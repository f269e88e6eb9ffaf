// Command cellbench is cellqos's end-to-end benchmark. It runs one
// named workload for a wall-time budget, checks every repetition's
// outcome, and prints each metric by name and unit; the last line of
// standard output is one JSON object with the verdict and the metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash cellbench/run.sh --workload ring-ac3 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced repetitions;
// --trace 1 alternates untraced and traced repetitions (CPU profile
// and spans around the timed segment) and reports the per-layer
// metrics. See cellbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    string
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cellbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-time budget for the repetitions, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "workload size: full or short")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for spans and folded profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "cellbench: unknown workload %q (want %s)\n", o.workload, workloadNames())
		return 2
	}
	sc, ok := w.scales[o.scale]
	if !ok {
		fmt.Fprintf(stderr, "cellbench: unknown scale %q\n", o.scale)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "cellbench: --trace must be 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "cellbench: %v\n", err)
		return 1
	}

	prov := provenance(o)
	fmt.Fprintf(stdout, "provenance %s\n", mustJSON(prov))
	if w == metroWorkload {
		fmt.Fprintf(stdout, "note: %s starts empty (no connections, no estimator history), as BenchmarkShardedMetro/shards=2 in BENCH_sim.json\n", w.name)
	}

	s, err := runReps(w, sc, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "cellbench: %v\n", err)
		return 1
	}
	var ms []metric
	if o.trace == 0 {
		ms = endToEnd(s)
	} else {
		ms = perLayer(s)
		if err := writeFile(tracePath(o, ".folded"), s.folded.writeStacks); err != nil {
			fmt.Fprintf(stderr, "cellbench: writing folded profile: %v\n", err)
			return 1
		}
	}
	out := map[string]any{}
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	fmt.Fprintf(stdout, "%s\n", mustJSON(map[string]any{
		"correct":   s.failed == 0,
		"attempted": s.attempted,
		"failed":    s.failed,
		"metrics":   out,
	}))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// provenance describes where and how the numbers were made.
func provenance(o options) map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"scale":      o.scale,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"dirty":      modified,
		"same_as":    sameAs(o.workload),
	}
}

func sameAs(workload string) string {
	if workload == metroWorkload.name {
		return "BENCH_sim.json BenchmarkShardedMetro/shards=2 (same config, seed 1, 30 s from empty)"
	}
	return ""
}

// cpuModel reads the CPU model name from /proc/cpuinfo where the host
// has one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ---------------------------------------------------------------------
// Repetitions

// runSet is every repetition of one invocation.
type runSet struct {
	untraced  []*repResult
	traced    []*repResult
	attempted int
	failed    int
	folded    *folded // traced repetitions' CPU profiles
	spansPath string  // the first traced repetition's spans
}

// keep reduces a finished repetition to its summary: latency
// percentiles, span statistics, and the profile folded into the run's
// total. What a run retains stays small and constant per repetition,
// so later repetitions run against the same heap — and the same GC
// pacing — as the first. Only the first traced repetition's spans are
// written out: all of them would take tens of megabytes on the metro.
func (s *runSet) keep(r *repResult, traced bool) error {
	lat := r.logs.latencies()
	r.admitP50, r.admitP99 = quantile(lat, 0.50), quantile(lat, 0.99)
	if traced {
		r.spans = summarizeSpans(r.logs)
		p, err := parseProfile(r.seg.profile)
		if err != nil {
			return err
		}
		s.folded.add(p.stacks())
		if len(s.traced) == 0 {
			if err := writeFile(s.spansPath, r.logs.writeSpans); err != nil {
				return err
			}
		}
		s.traced = append(s.traced, r)
	} else {
		s.untraced = append(s.untraced, r)
	}
	r.logs, r.seg.profile = nil, nil
	return nil
}

// runReps repeats the workload until the wall budget is spent and the
// minimum repetition count is met. With tracing, repetitions alternate
// untraced and traced. A repetition fails if it panics, errs, breaks
// an identity, or its digest differs from the pinned one (default
// seed) or from the invocation's first.
func runReps(w *workload, sc scale, o options, log io.Writer) (*runSet, error) {
	env := &runEnv{epoch: wall.Now(), dir: o.out}
	s := &runSet{folded: newFolded(), spansPath: tracePath(o, ".spans.csv")}
	if w.prepare != nil {
		if err := w.prepare(sc, o.seed, env); err != nil {
			s.attempted, s.failed = 1, 1
			fmt.Fprintf(log, "prepare: FAILED: %v\n", err)
			return s, nil
		}
	}
	minUntraced, minTraced := 3, 0
	if o.trace == 1 {
		minUntraced, minTraced = 2, 2
	}
	pinned := ""
	if o.seed == defaultSeed {
		var err error
		if pinned, err = pinnedDigest(w.name, o.scale); err != nil {
			return nil, err
		}
	}
	reference := pinned
	budget := stopwatch()
	for i := 0; ; i++ {
		if budget().Seconds() >= o.seconds && len(s.untraced) >= minUntraced && len(s.traced) >= minTraced {
			break
		}
		traced := o.trace == 1 && i%2 == 1
		s.attempted++
		base := liveHeapNow()
		r, err := safeRep(w, sc, o.seed, traced, env)
		if err == nil {
			r.seg.subtractHeap(base + r.logs.footprint())
		}
		if err == nil && reference != "" && r.digest != reference {
			err = fmt.Errorf("outcome digest %s, want %s", r.digest, reference)
		}
		if err != nil {
			s.failed++
			fmt.Fprintf(log, "rep %d (traced=%v): FAILED: %v\n", i, traced, err)
			if s.failed >= 3 {
				return s, nil // every later repetition would fail the same way
			}
			continue
		}
		if reference == "" {
			reference = r.digest
		}
		if err := s.keep(r, traced); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(log, "rep %d (traced=%v): setup %.3fs, timed %.3fs (cpu %.3fs), %d events, admit p50/p99 %.1f/%.1f us, digest %s\n",
			i, traced, r.setup.Seconds(), time.Duration(r.seg.wallNs).Seconds(), time.Duration(r.seg.cpuNs).Seconds(), r.events,
			r.admitP50/1e3, r.admitP99/1e3, r.digest)
	}
	return s, nil
}

// safeRep runs one repetition, turning a panic into an error.
func safeRep(w *workload, sc scale, seed uint64, traced bool, env *runEnv) (r *repResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return w.rep(sc, seed, traced, env)
}

// ---------------------------------------------------------------------
// Metrics

type metric struct {
	name  string
	value float64
	unit  string
}

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

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return float64(s[k-1])
}

func each(rs []*repResult, f func(r *repResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// nsPerEvent is the CPU time of the timed segment per event, median
// over repetitions. It counts every thread of the process, GC workers
// included, and leaves out time spent waiting for a CPU, which on a
// shared host is set by the host, not by the program.
func nsPerEvent(rs []*repResult) float64 {
	return median(each(rs, func(r *repResult) float64 { return float64(r.seg.cpuNs) / float64(r.events) }))
}

// wallNsPerEvent is the wall time of the timed segment per event,
// median over repetitions.
func wallNsPerEvent(rs []*repResult) float64 {
	return median(each(rs, func(r *repResult) float64 { return float64(r.seg.wallNs) / float64(r.events) }))
}

// endToEnd is what a user of the system sees, from the untraced
// repetitions: medians over repetitions.
func endToEnd(s *runSet) []metric {
	rs := s.untraced
	return []metric{
		{"ns_per_event", nsPerEvent(rs), "ns"},
		{"allocs_per_event", median(each(rs, func(r *repResult) float64 { return float64(r.seg.mallocs) / float64(r.events) })), "allocs/event"},
		{"bytes_per_event", median(each(rs, func(r *repResult) float64 { return float64(r.seg.bytes) / float64(r.events) })), "B/event"},
		{"heap_peak_mb", median(each(rs, func(r *repResult) float64 { return float64(r.seg.heapEnd) / 1e6 })), "MB"},
		{"setup_s", median(each(rs, func(r *repResult) float64 { return r.setup.Seconds() })), "s"},
		{"admit_us_p50", median(each(rs, func(r *repResult) float64 { return r.admitP50 })) / 1e3, "us"},
		{"admit_us_p99", median(each(rs, func(r *repResult) float64 { return r.admitP99 })) / 1e3, "us"},
		{"p_cb", median(each(rs, func(r *repResult) float64 { return r.pcb })), "ratio"},
	}
}
