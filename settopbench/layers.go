package main

import (
	"runtime/metrics"
	"strings"

	"itv/internal/obs"
)

// counterSet sums, over every node registry in the process, the counters
// the per-layer metrics are computed from, plus the runtime's allocation
// and GC counts.  Registries accumulate for the life of the process, so
// only differences between two snapshots are meaningful.
type counterSet map[string]float64

var nodeCounters = []string{
	"orb_client_calls",
	"orb_client_local_calls",
	"orb_client_failures",
	"orb_call_timeouts",
	"orb_pool_dials",
	"names_resolves",
	"core_rebinds",
	"transport_frames_sent",
	"transport_bytes_sent",
}

// serverHistograms are the ORB's per-method queue-wait and flush-wait
// histograms; their _count and _sum_ms rows are summed across methods.
var serverHistograms = []string{"orb_queue_wait", "orb_flush_wait"}

func snapshotCounters() counterSet {
	cs := counterSet{}
	for _, h := range obs.Hosts() {
		for _, s := range obs.Node(h).Snapshot() {
			if k, ok := counterKey(s.Name); ok {
				cs[k] += s.Value
			}
		}
	}
	rs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rs)
	cs["runtime_alloc_bytes"] = float64(rs[0].Value.Uint64())
	cs["runtime_gc_cycles"] = float64(rs[1].Value.Uint64())
	return cs
}

// counterKey maps a registry snapshot row onto the counterSet key it
// feeds, if any.
func counterKey(row string) (string, bool) {
	for _, fam := range serverHistograms {
		if !strings.HasPrefix(row, fam+"{") {
			continue
		}
		for _, suffix := range []string{"_count", "_sum_ms"} {
			if strings.HasSuffix(row, "}"+suffix) {
				return fam + suffix, true
			}
		}
		return "", false
	}
	for _, c := range nodeCounters {
		if row == c {
			return c, true
		}
	}
	return "", false
}

func (cs counterSet) sub(o counterSet) counterSet {
	out := counterSet{}
	for k, v := range cs {
		out[k] = v - o[k]
	}
	return out
}

// spanMetrics are the per-layer metrics read from spans: each is the mean
// duration of the span of the same name, without the _us suffix, or 0 on
// a workload that never enters that layer.
var spanMetrics = []string{
	"orb.null_call_us",
	"wire.frame_us",
	"transport.rtt_us",
	"auth.issue_ticket_us",
	"names.resolve_us",
	"names.resolve_as_us",
	"names.list_repl_us",
	"mms.open_us",
	"mms.close_us",
	"media.has_us",
	"media.load_us",
	"media.play_us",
	"media.position_us",
	"cmgr.allocate_us",
	"cmgr.release_us",
	"vod.get_position_us",
	"vod.save_position_us",
	"rds.open_data_us",
	"bootsvc.params_us",
	"bootsvc.kernel_us",
	"settop.open_movie_us",
	"settop.poll_playback_us",
	"settop.close_movie_us",
	"settop.boot_us",
	"settop.change_channel_us",
}

// layerMetrics are the traced run's per-layer metrics: span means, and
// counts per completed cycle over the probe-free half of the run.
func layerMetrics(r *runResult, st spanStats) map[string]metric {
	c, ops := r.counted, r.countedOps
	perOp := func(key string) float64 { return ratio(c[key], ops) }
	remote := c["orb_client_calls"] - c["orb_client_local_calls"]
	m := map[string]metric{
		"orb.calls_per_op": {perOp("orb_client_calls"), "count/op"},
		// Each remote call writes a request and a response frame; the
		// transport counts one frame per Write, however many frames the
		// ORB's coalescer packed into it.
		"orb.batch_frames_per_write": {ratio(2*remote, c["transport_frames_sent"]), "frames/write"},
		"orb.queue_wait_mean_us":     {ratio(1000*c["orb_queue_wait_sum_ms"], c["orb_queue_wait_count"]), "us"},
		"orb.flush_wait_mean_us":     {ratio(1000*c["orb_flush_wait_sum_ms"], c["orb_flush_wait_count"]), "us"},
		"orb.dials_per_op":           {perOp("orb_pool_dials"), "count/op"},
		"orb.client_failures":        {r.total["orb_client_failures"], "count"},
		"orb.call_timeouts":          {r.total["orb_call_timeouts"], "count"},
		"transport.frames_per_op":    {perOp("transport_frames_sent"), "count/op"},
		"transport.bytes_per_op":     {perOp("transport_bytes_sent"), "B/op"},
		"names.resolves_per_op":      {perOp("names_resolves"), "count/op"},
		"core.rebinds_per_op":        {perOp("core_rebinds"), "count/op"},
		"runtime.alloc_bytes_per_op": {perOp("runtime_alloc_bytes"), "B/op"},
		"runtime.gc_per_op":          {perOp("runtime_gc_cycles"), "count/op"},
	}
	for _, name := range spanMetrics {
		m[name] = metric{st.meanUS(strings.TrimSuffix(name, "_us")), "us"}
	}
	return m
}
