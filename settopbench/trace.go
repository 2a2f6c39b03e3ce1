package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed step of a traced cycle, recorded around a call into
// one layer.  Spans of one cycle share the cycle id.
type span struct {
	name       string
	start, end time.Duration // since the run's epoch
	parent     int32         // index of the enclosing span in the same recorder; -1 for a root
	cycle      int32
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder keeps one caller's spans in memory until the run ends.  Only
// its caller's goroutine touches it, so it needs no locking.
type recorder struct {
	epoch time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
	cycle int32
}

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(name string, f func() error) (time.Duration, error) {
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: r.open, cycle: r.cycle})
	r.open = i
	err := f()
	s := &r.spans[i]
	s.end = time.Since(r.epoch)
	r.open = s.parent
	return s.dur(), err
}

func (r *recorder) span(name string, f func() error) error {
	_, err := r.timed(name, f)
	return err
}

// spanStat aggregates every span of one name.
type spanStat struct {
	durs []time.Duration
	sum  time.Duration
	self time.Duration // sum of durations minus the time direct children cover
}

func (s *spanStat) mean() time.Duration { return s.sum / time.Duration(len(s.durs)) }

func (s *spanStat) median() time.Duration { return s.durs[len(s.durs)/2] }

type spanStats map[string]*spanStat

// meanUS is a span's mean duration in microseconds, 0 if the workload
// never entered it.
func (st spanStats) meanUS(name string) float64 {
	if s, ok := st[name]; ok {
		return us(s.mean())
	}
	return 0
}

func aggregate(recs []*recorder) spanStats {
	st := spanStats{}
	for _, r := range recs {
		childSum := make([]time.Duration, len(r.spans))
		for i := range r.spans {
			if p := r.spans[i].parent; p >= 0 {
				childSum[p] += r.spans[i].dur()
			}
		}
		for i := range r.spans {
			s := &r.spans[i]
			a := st[s.name]
			if a == nil {
				a = &spanStat{}
				st[s.name] = a
			}
			a.durs = append(a.durs, s.dur())
			a.sum += s.dur()
			a.self += s.dur() - childSum[i]
		}
	}
	for _, a := range st {
		sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
	}
	return st
}

// reportTrace prints the span table and the tail attribution of the root
// span, and writes every span to path.
func reportTrace(out io.Writer, path, root string, recs []*recorder, st spanStats) error {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# %-24s %9s %12s %12s %12s\n", "span", "n", "mean_us", "self_us", "median_us")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(out, "# %-24s %9d %12.1f %12.1f %12.1f\n", n, len(s.durs), us(s.mean()),
			us(s.self)/float64(len(s.durs)), us(s.median()))
	}
	attributeTail(out, root, recs, st)
	if err := writeSpans(path, recs); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "# spans written to %s\n", path)
	return nil
}

// attributeTail finds, for every root span above the root's p99, the child
// span that carries the excess over its own median, descending while one
// child holds at least half of its parent's excess.  The remainder is the
// parent's self time ("self").
func attributeTail(out io.Writer, root string, recs []*recorder, st spanStats) {
	rs, ok := st[root]
	if !ok {
		return
	}
	threshold := rs.durs[min(len(rs.durs)-1, len(rs.durs)*99/100)]
	type blame struct {
		n      int
		excess time.Duration
	}
	blames := map[string]*blame{}
	tail := 0
	for _, r := range recs {
		for i := range r.spans {
			s := &r.spans[i]
			if s.name != root || s.dur() <= threshold {
				continue
			}
			tail++
			path := root
			for cur := int32(i); ; {
				excess := r.spans[cur].dur() - st[r.spans[cur].name].median()
				best, bestExcess := int32(-1), time.Duration(0)
				kids := children(r, cur)
				for _, k := range kids {
					if e := r.spans[k].dur() - st[r.spans[k].name].median(); e > bestExcess {
						best, bestExcess = k, e
					}
				}
				if best < 0 || bestExcess < excess/2 {
					if len(kids) > 0 {
						path += " > self"
					}
					break
				}
				path += " > " + r.spans[best].name
				cur = best
			}
			b := blames[path]
			if b == nil {
				b = &blame{}
				blames[path] = b
			}
			b.n++
			b.excess += s.dur() - rs.median()
		}
	}
	fmt.Fprintf(out, "# tail %s: %d of %d spans above p99 %.1fus (median %.1fus); excess carried by:\n",
		root, tail, len(rs.durs), us(threshold), us(rs.median()))
	paths := make([]string, 0, len(blames))
	for p := range blames {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		if blames[paths[i]].n != blames[paths[j]].n {
			return blames[paths[i]].n > blames[paths[j]].n
		}
		return paths[i] < paths[j]
	})
	for _, p := range paths {
		b := blames[p]
		fmt.Fprintf(out, "# tail   %-56s %6d  mean excess %.1fus\n", p, b.n, us(b.excess)/float64(b.n))
	}
}

// children lists span i's direct children.  A recorder appends spans in
// the order they begin on one goroutine, so i's descendants are exactly
// the spans after it that begin before it ends.
func children(r *recorder, i int32) []int32 {
	var kids []int32
	for k := i + 1; int(k) < len(r.spans) && r.spans[k].start < r.spans[i].end; k++ {
		if r.spans[k].parent == i {
			kids = append(kids, k)
		}
	}
	return kids
}

// writeSpans writes one CSV row per span: the caller, the cycle, the span's
// index and its parent's within that caller, its name, and its start and
// end in nanoseconds since the run began.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "caller,cycle,span,parent,name,start_ns,end_ns")
	for c, r := range recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", c, s.cycle, i, s.parent, s.name, int64(s.start), int64(s.end))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
