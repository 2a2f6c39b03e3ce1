// Command settopbench is the repository's settop-level benchmark.  It
// drives the system only through its public packages, the way settops and
// client processes do, checks every reply, and prints its metrics by name
// with their units.  The last line of standard output is one JSON object:
// end-to-end metrics from an untraced run (--trace 0), or per-layer
// metrics from a traced run (--trace 1).
//
//	bash settopbench/run.sh --workload movie-churn --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads, the metrics, and which layer metric
// should move which end-to-end metric on which workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Exit codes: a finished run whose checks all passed, a run that failed a
// check or stalled, and a run that never started.
const (
	exitOK     = 0
	exitFailed = 1
	exitUsage  = 2
)

// setups is the number of set-ups per run: setup_s is their median, and
// the timed region drives the last one.
const setups = 7

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "settopbench:", err)
	}
	os.Exit(code)
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("settopbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed region in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	o.trace = *traceFlag == 1
	return o, nil
}

// run executes one benchmark run and writes its report to out; the JSON
// result is the last line.  It returns the process exit code.
func run(args []string, out io.Writer) (int, error) {
	o, err := parseFlags(args)
	if err != nil {
		return exitUsage, err
	}
	w := workloads[o.workload]
	cfg := config{seed: o.seed, callers: runtime.NumCPU(), traced: o.trace}

	var inst instance
	setupSecs := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		if inst, err = setUp(w, cfg); err != nil {
			return exitUsage, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}

	res, runErr := measure(inst, cfg, time.Duration(o.seconds*float64(time.Second)))
	if res == nil {
		inst.close()
		return exitUsage, runErr
	}
	if runErr == nil {
		// A stalled caller may still hold the system; only a drained run
		// can be verified and torn down.
		runErr = inst.verify()
		inst.close()
	}
	correct := runErr == nil && res.checkErr == nil

	fmt.Fprintf(out, "# settopbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d nproc=%d callers=%d loop=closed transport=%s auth=%s host_steal=%s\n",
		w.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.callers, w.transport, w.auth, formatShare(stealShare(res.winHost[0], res.winHost[len(res.winHost)-1])))
	fmt.Fprintf(out, "# latency=%s samples=%d p50_us=%.1f p99_us=%.1f error_rate=%g (%d/%d) orb_client_failures=%g orb_call_timeouts=%g setups_s=%s\n",
		w.latency, res.hist.n, us(res.hist.quantile(0.50)), us(res.hist.quantile(0.99)),
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted,
		res.total["orb_client_failures"], res.total["orb_call_timeouts"], formatList(setupSecs))
	series := windowSeries(res)
	fmt.Fprintf(out, "# by window: ops_per_s=%s p50_us=%s p99_us=%s cpu_us_per_op=%s host_steal_pct=%s\n",
		formatList(series.rate), formatList(series.p50), formatList(series.p99), formatList(series.cpu), formatList(series.steal))
	for _, e := range []error{runErr, res.checkErr} {
		if e != nil {
			fmt.Fprintf(out, "# FAILED: %v\n", e)
		}
	}

	var metrics map[string]metric
	if o.trace {
		stats := aggregate(res.spans)
		metrics = layerMetrics(res, stats)
		if err := reportTrace(out, filepath.Join(".bench_build", "trace-"+w.name+".csv"), w.latency, res.spans, stats); err != nil {
			return exitFailed, err
		}
	} else {
		metrics = endToEndMetrics(series, res.heapPeak, median(setupSecs))
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "# %-28s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}

	line, err := json.Marshal(result{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
	if err != nil {
		return exitFailed, err
	}
	fmt.Fprintln(out, string(line))
	if !correct {
		return exitFailed, errors.Join(runErr, res.checkErr)
	}
	return exitOK, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// series holds one run's figures window by window.
type series struct {
	rate, p50, p99, cpu []float64
	steal               []float64 // percent; -1 when unknown
}

// windowSeries reads the run's windows.  The p99 is read over groups of
// consecutive windows holding at least p99Samples samples, so each reading
// has ten samples beyond it, or over the whole run when it is shorter.
func windowSeries(r *runResult) series {
	var s series
	var group latencyHist
	for w := range r.wins {
		if w+1 < len(r.winHost) {
			s.steal = append(s.steal, max(-1, 100*stealShare(r.winHost[w], r.winHost[w+1])))
		}
		ops := float64(r.wins[w].n)
		s.rate = append(s.rate, ops/r.winLen.Seconds())
		if ops == 0 {
			continue // no latency or CPU share to read
		}
		s.p50 = append(s.p50, us(r.wins[w].quantile(0.50)))
		if w+1 < len(r.winCPU) {
			s.cpu = append(s.cpu, us(r.winCPU[w+1]-r.winCPU[w])/ops)
		}
		if group.merge(&r.wins[w]); group.n >= p99Samples {
			s.p99 = append(s.p99, us(group.quantile(0.99)))
			group = latencyHist{}
		}
	}
	if len(s.p99) == 0 {
		s.p99 = append(s.p99, us(r.hist.quantile(0.99)))
	}
	return s
}

// endToEndMetrics are what a viewer or client process sees, from the
// untraced run: each is the median of its window series, so a burst of
// outside load moves it little.  The failure share is carried by the
// result's attempted and failed counts rather than by a metric, because
// it is zero on a healthy run.
func endToEndMetrics(s series, heapPeak uint64, setupSecs float64) map[string]metric {
	return map[string]metric{
		"setup_s":        {setupSecs, "s"},
		"ops_per_s":      {median(s.rate), "1/s"},
		"latency_p50_us": {median(s.p50), "us"},
		"latency_p99_us": {median(s.p99), "us"},
		"cpu_us_per_op":  {median(s.cpu), "us"},
		"heap_peak_mb":   {float64(heapPeak) / (1 << 20), "MB"},
	}
}

// p99Samples is the fewest samples a p99 reading is taken over.
const p99Samples = 1000

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median is 0 for an empty list.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// formatShare prints a share as a percentage, or "unknown" when it is
// negative.
func formatShare(x float64) string {
	if x < 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
