package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Per-layer metrics, from the traced repetitions: CPU-profile shares
// by layer, span statistics from the decorators, and counters read
// from public APIs. Every workload reports every name; a layer a
// workload does not exercise reads 0.

// selfLayers are the layers whose self share is reported as
// <layer>.self_share.
var selfLayers = []string{"sim", "shard", "cellnet", "core", "predict", "service", "mobility", "traffic"}

// counterMetrics are per-repetition counters (medians over the traced
// repetitions), with their units.
var counterMetrics = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"cellnet.handoffs", "count"},
	{"cellnet.exchanges", "count"},
	{"core.eq5.hit_ratio", "ratio"},
	{"core.eq5.rebuilds_per_event", "ratio"},
	{"core.br_calcs_per_admission", "ratio"},
	{"predict.records_per_admission", "ratio"},
	{"policy.decide_handoff.count", "count"},
	{"service.restore_s", "s"},
	{"service.checkpoint_bytes", "B"},
}

func perLayer(s *runSet) []metric {
	f := s.folded
	var ms []metric
	for _, l := range selfLayers {
		ms = append(ms, metric{l + ".self_share", f.share(f.self[l]), "ratio"})
	}
	ms = append(ms,
		metric{"runtime.gc_share", f.share(f.self["runtime.gc"]), "ratio"},
		metric{"runtime.alloc_share", f.share(f.self["runtime.alloc"]), "ratio"},
	)
	for _, b := range cumBuckets {
		ms = append(ms, metric{b.name + ".cum_share", f.share(f.cum[b.name]), "ratio"})
	}
	rs := s.traced
	for _, c := range counterMetrics {
		ms = append(ms, metric{c.name, median(each(rs, func(r *repResult) float64 { return r.layer[c.name] })), c.unit})
	}

	var selfNs, spans int64
	for _, r := range rs {
		selfNs += r.spans.selfNs[spanDecideNew]
		spans += int64(r.spans.count[spanDecideNew])
	}
	spanMetric := func(f func(sp *spanRep) float64) float64 {
		return median(each(rs, func(r *repResult) float64 { return f(r.spans) }))
	}
	ms = append(ms,
		metric{"policy.decide_new.count", spanMetric(func(sp *spanRep) float64 { return float64(sp.count[spanDecideNew]) }), "count"},
		metric{"policy.decide_new.p50_us", spanMetric(func(sp *spanRep) float64 { return sp.p50[spanDecideNew] }) / 1e3, "us"},
		metric{"policy.decide_new.p99_us", spanMetric(func(sp *spanRep) float64 { return sp.p99[spanDecideNew] }) / 1e3, "us"},
		metric{"policy.decide_new.self_us", ratio(float64(selfNs), float64(spans)) / 1e3, "us"},
	)
	for _, k := range []uint8{spanOutgoing, spanSnapshot, spanRecompute} {
		ms = append(ms,
			metric{spanNames[k] + ".count", spanMetric(func(sp *spanRep) float64 { return float64(sp.count[k]) }), "count"},
			metric{spanNames[k] + ".p50_us", spanMetric(func(sp *spanRep) float64 { return sp.p50[k] }) / 1e3, "us"},
		)
	}

	phd := median(each(rs, func(r *repResult) float64 { return r.phd }))
	if math.IsNaN(phd) {
		phd = 0 // the server admits no hand-offs
	}
	ms = append(ms,
		metric{"runtime.gc_cycles", median(each(rs, func(r *repResult) float64 { return float64(r.seg.gcCycles) })), "count"},
		metric{"runtime.heap_sampled_peak_mb", median(each(rs, func(r *repResult) float64 { return float64(r.seg.heapPeak) / 1e6 })), "MB"},
		metric{"runtime.gc_pause_ms", median(each(rs, func(r *repResult) float64 { return float64(r.seg.gcPauseNs) / 1e6 })), "ms"},
		metric{"trace.overhead_ratio", ratio(nsPerEvent(rs), nsPerEvent(s.untraced)), "ratio"},
		metric{"p_hd", phd, "ratio"},
		metric{"bench.fail_ratio", ratio(float64(s.failed), float64(s.attempted)), "ratio"},
		metric{"bench.wall_ns_per_event", wallNsPerEvent(s.untraced), "ns"},
	)
	return ms
}

// spanRep summarizes one traced repetition's spans by name.
type spanRep struct {
	count    [numSpanNames]int
	p50, p99 [numSpanNames]float64 // ns
	selfNs   [numSpanNames]int64   // duration minus direct children's, summed
}

func summarizeSpans(logs *logSet) *spanRep {
	sr := &spanRep{}
	var durs [numSpanNames][]int64
	for _, l := range logs.logs {
		child := make([]int64, len(l.spans))
		for _, sp := range l.spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for j, sp := range l.spans {
			d := sp.end - sp.start
			durs[sp.name] = append(durs[sp.name], d)
			sr.selfNs[sp.name] += d - child[j]
			sr.count[sp.name]++
		}
	}
	for k := range durs {
		sr.p50[k], sr.p99[k] = quantile(durs[k], 0.50), quantile(durs[k], 0.99)
	}
	return sr
}

func tracePath(o options, suffix string) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d%s", o.workload, o.seed, suffix))
}

// writeSpans writes the logs' spans as CSV: log index, span index,
// name, start and end (ns since the run began), parent span index.
func (s *logSet) writeSpans(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "log,span,name,start_ns,end_ns,parent"); err != nil {
		return err
	}
	for li, l := range s.logs {
		for si, sp := range l.spans {
			if _, err := fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", li, si, spanNames[sp.name], sp.start, sp.end, sp.parent); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeFile(path string, body func(w io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	if err := body(w); err != nil {
		fh.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
