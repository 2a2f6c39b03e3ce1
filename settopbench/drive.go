package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// opDeadline bounds one cycle in wall-clock time.  The cluster's fake clock
// is frozen while timing, so a retry that sleeps on it never wakes; a cycle
// still running after this long is counted as a failed, stalled operation.
const opDeadline = 2 * time.Second

// window is the target length of the equal windows a timed region is
// split into; the end-to-end figures are medians over windows.
const window = time.Second

// probeEvery is the fixed ratio of workload cycles to probe rounds in the
// second half of a traced run.
const probeEvery = 8

// errCheck marks an output that failed the benchmark's correctness check,
// as opposed to an operation that returned an error.
var errCheck = errors.New("output check failed")

type config struct {
	seed    int64
	callers int
	traced  bool
}

// workload is one named benchmark workload.
type workload struct {
	name      string
	transport string
	auth      string
	// latency names the user-facing request: the span whose duration is the
	// latency sample, and the root of the traced run's tail attribution.
	latency string
	// warm is the number of cycles each caller runs during set-up, so caches
	// are filled and lazy set-up has finished before timing starts.
	warm  int64
	setup func(cfg config) (instance, error)
}

// instance is a set-up workload, ready to be driven.
type instance interface {
	// cycle runs one closed-loop iteration for d and returns the latency of
	// its user-facing request.  A reply that fails its check yields an
	// error wrapping errCheck.
	cycle(d *caller) (time.Duration, error)
	// probe issues one round of the traced run's probe calls for d.
	probe(d *caller) error
	// verify checks the system's state once every caller has drained.
	verify() error
	close()
}

var workloads = map[string]workload{
	"movie-churn": {name: "movie-churn", transport: "memnet", auth: "signed",
		latency: "settop.open_movie", warm: 50, setup: newMovieChurn},
	"power-on": {name: "power-on", transport: "memnet", auth: "signed",
		latency: "settop.power_on", warm: 12, setup: newPowerOn},
	"rpc-tcp": {name: "rpc-tcp", transport: "tcp-loopback", auth: "unsigned",
		latency: "orb.invoke", warm: 2000, setup: newRPCTCP},
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// caller is one closed-loop client: a settop or client process that sends
// its next request only after the previous reply.
type caller struct {
	id  int
	n   int64     // cycles started; selects the cycle's seeded inputs
	rec *recorder // nil in an untraced run
	// wins holds the latencies of successful cycles by the window in which
	// they started.  It lives in winMem, outside the Go heap.
	wins   []latencyHist
	winMem []byte
	epoch  time.Time
	winLen time.Duration

	attempted, failed atomic.Int64
	checkErr          error // first failed output check
	busySince         atomic.Int64
	done              chan struct{}
	stalled           bool // set by the watchdog; the goroutine is abandoned
	frameBuf          []byte
}

func newCallers(cfg config, epoch time.Time, winLen time.Duration, nwin int) ([]*caller, error) {
	ds := make([]*caller, cfg.callers)
	for i := range ds {
		d := &caller{id: i, epoch: epoch, winLen: winLen}
		var err error
		if d.winMem, d.wins, err = mapHists(nwin); err != nil {
			freeCallers(ds[:i])
			return nil, err
		}
		if cfg.traced {
			d.rec = &recorder{epoch: epoch, open: -1}
		}
		ds[i] = d
	}
	return ds, nil
}

// freeCallers unmaps the callers' latency records.  A stalled caller's
// goroutine may still record into its own, so those stay mapped.
func freeCallers(ds []*caller) {
	for _, d := range ds {
		if !d.stalled {
			syscall.Munmap(d.winMem)
			d.wins, d.winMem = nil, nil
		}
	}
}

// mapHists returns n zeroed histograms in anonymous memory outside the Go
// heap.  The callers' latency records are live for the whole timed region,
// and on the heap they would count toward heap_peak_mb as if the program
// held them.
func mapHists(n int) ([]byte, []latencyHist, error) {
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(latencyHist{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mapping latency records: %w", err)
	}
	return mem, unsafe.Slice((*latencyHist)(unsafe.Pointer(unsafe.SliceData(mem))), n), nil
}

func (d *caller) loop(inst instance, until time.Time, probes bool, maxCycles int64) {
	defer close(d.done)
	for i := int64(0); maxCycles == 0 || i < maxCycles; i++ {
		start := time.Now()
		if !start.Before(until) {
			return
		}
		d.busySince.Store(start.UnixNano())
		if d.rec != nil {
			d.rec.cycle = int32(d.n)
		}
		lat, err := inst.cycle(d)
		if err == nil && probes && d.n%probeEvery == 0 {
			err = inst.probe(d)
		}
		d.busySince.Store(0)
		d.n++
		d.attempted.Add(1)
		if err != nil {
			d.failed.Add(1)
			if errors.Is(err, errCheck) && d.checkErr == nil {
				d.checkErr = err
			}
			continue
		}
		d.wins[min(int(start.Sub(d.epoch)/d.winLen), len(d.wins)-1)].record(lat)
	}
}

// drive runs every caller until the deadline (or for maxCycles cycles each,
// when maxCycles > 0) and waits for them, watching for stalls.  A stalled
// caller is marked and left behind; drive then reports the stall.
func drive(inst instance, ds []*caller, until time.Time, probes bool, maxCycles int64) error {
	for _, d := range ds {
		d.done = make(chan struct{})
		go d.loop(inst, until, probes, maxCycles)
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var stalls []error
	for _, d := range ds {
	wait:
		for {
			select {
			case <-d.done:
				break wait
			case now := <-tick.C:
				if s := d.busySince.Load(); s != 0 && now.UnixNano()-s > int64(opDeadline) {
					d.stalled = true
					stalls = append(stalls, fmt.Errorf("caller %d: cycle %d stalled for more than %v", d.id, d.n, opDeadline))
					break wait
				}
			}
		}
	}
	return errors.Join(stalls...)
}

// setUp builds a workload instance and warms it with a few untimed cycles
// per caller; setup_s measures both.
func setUp(w workload, cfg config) (instance, error) {
	inst, err := w.setup(cfg)
	if err != nil {
		return nil, err
	}
	if w.warm == 0 {
		return inst, nil
	}
	ds, err := newCallers(cfg, time.Now(), time.Hour, 1)
	if err != nil {
		inst.close()
		return nil, err
	}
	defer freeCallers(ds)
	if err := drive(inst, ds, time.Now().Add(time.Hour), false, w.warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, d := range ds {
		if d.failed.Load() != 0 {
			inst.close()
			return nil, fmt.Errorf("warm-up: caller %d failed %d of %d cycles: %v", d.id, d.failed.Load(), d.attempted.Load(), d.checkErr)
		}
	}
	return inst, nil
}

// runResult is what one timed region measured.
type runResult struct {
	attempted, failed int64
	checkErr          error
	heapPeak          uint64
	winHost           []hostTicks   // the host's CPU ticks, read with winCPU
	hist              latencyHist   // every window
	wins              []latencyHist // by window
	winCPU            []time.Duration
	winLen            time.Duration
	// total holds counter deltas over the whole timed region; counted and
	// countedOps cover the part the per-op counts are taken from (the
	// probe-free first half of a traced run).
	total, counted counterSet
	countedOps     float64
	spans          []*recorder
}

// measure drives the instance for length.  A traced run spends its first
// half without probes, so counter deltas are the workload's own, and its
// second half with probe rounds interleaved every probeEvery cycles.
func measure(inst instance, cfg config, length time.Duration) (*runResult, error) {
	runtime.GC()
	before := snapshotCounters()
	start := time.Now()
	nwin := max(1, int(length/window))
	winLen := length / time.Duration(nwin)
	ds, err := newCallers(cfg, start, winLen, nwin)
	if err != nil {
		return nil, err
	}
	defer freeCallers(ds)
	smp := startSampler(start, winLen, nwin)

	var counted counterSet
	var countedOps float64
	if cfg.traced {
		err = drive(inst, ds, start.Add(length/2), false, 0)
		counted = snapshotCounters().sub(before)
		countedOps = float64(completed(ds))
		if err == nil {
			err = drive(inst, ds, start.Add(length), true, 0)
		}
	} else {
		err = drive(inst, ds, start.Add(length), false, 0)
	}
	heapPeak, winCPU, winHost := smp.finish()
	// The result's own records are made only now, after the heap is no
	// longer watched.
	r := &runResult{winLen: winLen, wins: make([]latencyHist, nwin), heapPeak: heapPeak, winCPU: winCPU, winHost: winHost,
		counted: counted, countedOps: countedOps}
	r.total = snapshotCounters().sub(before)
	if !cfg.traced {
		r.counted, r.countedOps = r.total, float64(completed(ds))
	}

	for _, d := range ds {
		r.attempted += d.attempted.Load()
		r.failed += d.failed.Load()
		if d.stalled {
			// The stalled cycle never returned: it was attempted and failed.
			r.attempted++
			r.failed++
			continue
		}
		for w := range d.wins {
			r.wins[w].merge(&d.wins[w])
			r.hist.merge(&d.wins[w])
		}
		if d.rec != nil {
			r.spans = append(r.spans, d.rec)
		}
		if r.checkErr == nil {
			r.checkErr = d.checkErr
		}
	}
	return r, err
}

func completed(ds []*caller) int64 {
	var n int64
	for _, d := range ds {
		n += d.attempted.Load() - d.failed.Load()
	}
	return n
}

// latencyHist records durations in log-spaced buckets 1% wide and keeps
// each bucket's exact sum, so a quantile reads as the mean of the samples
// in its bucket: within 1% of the exact order statistic, every digit
// measured, and in fixed memory, so recording allocates nothing while the
// heap is being watched.
type latencyHist struct {
	n      int64
	counts [histBuckets]int64
	sums   [histBuckets]int64
}

// histBuckets spans 1ns to e^(2400·ln 1.01)ns ≈ 2·10^10 ns, past opDeadline.
const histBuckets = 2400

var histScale = 1 / math.Log1p(0.01)

func (h *latencyHist) record(d time.Duration) {
	i := 0
	if d > 1 {
		i = min(int(math.Log(float64(d))*histScale), histBuckets-1)
	}
	h.n++
	h.counts[i]++
	h.sums[i] += int64(d)
}

func (h *latencyHist) merge(o *latencyHist) {
	h.n += o.n
	for i := range h.counts {
		h.counts[i] += o.counts[i]
		h.sums[i] += o.sums[i]
	}
}

// quantile returns the mean of the bucket holding the q-th sample.
func (h *latencyHist) quantile(q float64) time.Duration {
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var cum int64
	for i, c := range h.counts {
		cum += c
		if c > 0 && cum >= rank {
			return time.Duration(h.sums[i] / c)
		}
	}
	return 0
}

// sampler polls the bytes held by heap objects, live or not yet swept,
// keeping the largest reading, and reads the process's CPU time at every
// window boundary.  With the CPU time it reads the host's CPU ticks, so a
// window slowed by a burst of hypervisor steal shows in the report.
type sampler struct {
	stop, done chan struct{}
	start      time.Time
	winLen     time.Duration
	nwin       int
	heapPeak   uint64
	cpu        []time.Duration // at the start of each window, then at the end
	host       []hostTicks     // read with cpu
}

const heapSampleEvery = 2 * time.Millisecond

func startSampler(start time.Time, winLen time.Duration, nwin int) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), start: start, winLen: winLen, nwin: nwin}
	s.mark()
	go s.run()
	return s
}

func (s *sampler) run() {
	defer close(s.done)
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(heap)
		s.heapPeak = max(s.heapPeak, heap[0].Value.Uint64())
		select {
		case <-s.stop:
			s.mark()
			return
		case now := <-tick.C:
			if len(s.cpu) < s.nwin && now.Sub(s.start) >= time.Duration(len(s.cpu))*s.winLen {
				s.mark()
			}
		}
	}
}

func (s *sampler) mark() {
	s.cpu = append(s.cpu, cpuTime())
	s.host = append(s.host, readHostTicks())
}

// finish stops the sampler and returns the heap peak and the CPU readings.
func (s *sampler) finish() (uint64, []time.Duration, []hostTicks) {
	close(s.stop)
	<-s.done
	return s.heapPeak, s.cpu, s.host
}

// stealShare is the share of the host's CPU time the hypervisor stole
// between two readings, or -1 when it is unknown.
func stealShare(a, b hostTicks) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// hostTicks is the host-wide CPU time from the first line of /proc/stat,
// in clock ticks: the steal share and the sum of all states.
type hostTicks struct {
	steal, total uint64
	ok           bool
}

// readHostTicks reads /proc/stat; where it cannot be read, ok is false.
func readHostTicks() hostTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if err != nil || len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
