package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark's output must match.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs the benchmark briefly and returns its exit code, its
// report, and the decoded result line.
func runShort(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out bytes.Buffer
	args = append(args, "--seed", "7", "--seconds", "0.4")
	code, err := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("last line is not a result (%v, run error %v):\n%s", jerr, err, out.String())
	}
	return code, out.String(), res
}

func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	s := loadSpec(t)
	var listed []string
	for _, w := range s.Work {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames()) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", listed, workloadNames())
	}
	for _, w := range workloadNames() {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			t.Run(w+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				code, out, res := runShort(t, "--workload", w, "--trace", strconv.Itoa(trace))
				if code != exitOK || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v:\n%s", code, res, out)
				}
				if !strings.Contains(out, "gomaxprocs=") || !strings.Contains(out, "nproc=") {
					t.Errorf("report does not name GOMAXPROCS and nproc:\n%s", out)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestSeedReplaysInputs(t *testing.T) {
	titles := []string{"T2", "Casablanca", "Duck Amuck"}
	if !reflect.DeepEqual(titleSequence(3, 0, titles), titleSequence(3, 0, titles)) {
		t.Error("same seed gave different title orders")
	}
	if reflect.DeepEqual(titleSequence(3, 0, titles), titleSequence(4, 0, titles)) ||
		reflect.DeepEqual(titleSequence(3, 0, titles), titleSequence(3, 1, titles)) {
		t.Error("title order ignores the seed or the caller")
	}
	if !reflect.DeepEqual(rotation(3, 12), rotation(3, 12)) {
		t.Error("same seed gave different settop rotations")
	}
	if reflect.DeepEqual(rotation(3, 12), rotation(4, 12)) {
		t.Error("settop rotation ignores the seed")
	}
	if !reflect.DeepEqual(payloadSequence(3, 1), payloadSequence(3, 1)) {
		t.Error("same seed gave different payloads")
	}
	for _, p := range payloadSequence(3, 1) {
		if len(p) < 16 || len(p) > 128 {
			t.Fatalf("payload of %d bytes", len(p))
		}
	}
}

// fakeInstance is a workload whose cycles can fail a check or stall.
type fakeInstance struct {
	bad     bool
	release chan struct{} // closing it ends a stalled cycle
}

func (f *fakeInstance) cycle(d *caller) (time.Duration, error) {
	switch {
	case f.bad:
		return 0, errors.Join(errCheck, errors.New("wrong bytes"))
	case f.release != nil && d.id == 0:
		<-f.release
	}
	return time.Microsecond, nil
}
func (f *fakeInstance) probe(*caller) error { return nil }
func (f *fakeInstance) verify() error       { return nil }
func (f *fakeInstance) close()              {}

func withFake(t *testing.T, f *fakeInstance) {
	workloads["fake"] = workload{name: "fake", transport: "none", auth: "none", latency: "fake",
		setup: func(config) (instance, error) { return f, nil }}
	t.Cleanup(func() { delete(workloads, "fake") })
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	withFake(t, &fakeInstance{bad: true})
	code, out, res := runShort(t, "--workload", "fake")
	if code != exitFailed || res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("exit %d, result %+v:\n%s", code, res, out)
	}
}

func TestStallCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the stall deadline")
	}
	f := &fakeInstance{}
	withFake(t, f)
	f.release = make(chan struct{})
	defer close(f.release)
	code, out, res := runShort(t, "--workload", "fake")
	if code != exitFailed || res.Correct || res.Failed != 1 || !strings.Contains(out, "stalled") {
		t.Fatalf("exit %d, result %+v:\n%s", code, res, out)
	}
}
