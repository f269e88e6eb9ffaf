package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestShortScale runs every workload at its short scale, untraced and
// traced, at the default seed: each repetition checks its own
// conservation identities (an error fails it), and its digest must
// equal the pinned short-scale digest, so the traced run's outcome is
// the untraced run's.
func TestShortScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			want, err := pinnedDigest(w.name, "short")
			if err != nil {
				t.Fatal(err)
			}
			env := &runEnv{epoch: wall.Now(), dir: t.TempDir()}
			if w.prepare != nil {
				if err := w.prepare(w.scales["short"], defaultSeed, env); err != nil {
					t.Fatal(err)
				}
			}
			for _, traced := range []bool{false, true} {
				r, err := safeRep(w, w.scales["short"], defaultSeed, traced, env)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if r.digest != want {
					t.Errorf("traced=%v: digest %s, pinned %s", traced, r.digest, want)
				}
				if r.events == 0 || r.seg.wallNs <= 0 || r.seg.cpuNs <= 0 {
					t.Errorf("traced=%v: %d events in %d ns (%d ns CPU)", traced, r.events, r.seg.wallNs, r.seg.cpuNs)
				}
				if traced && len(r.seg.profile) == 0 {
					t.Errorf("traced run recorded no CPU profile")
				}
			}
		})
	}
}

// TestOtherSeedDiffers guards the digest against ignoring its inputs:
// another seed must give another outcome.
func TestOtherSeedDiffers(t *testing.T) {
	w := serveWorkload
	sc := w.scales["short"]
	var digests [2]string
	for i := range digests {
		seed := uint64(defaultSeed + i)
		env := &runEnv{epoch: wall.Now(), dir: t.TempDir()}
		if err := w.prepare(sc, seed, env); err != nil {
			t.Fatal(err)
		}
		r, err := safeRep(w, sc, seed, false, env)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = r.digest
	}
	if digests[0] == digests[1] {
		t.Fatalf("seeds %d and %d share digest %s", defaultSeed, defaultSeed+1, digests[0])
	}
}

// TestOutputMatchesBenchmarkJSON runs the command end to end at short
// scale and checks the last line: exactly the four keys, and exactly
// the metric names and units BENCHMARK.json declares for each trace
// mode.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.ReplaceAll(workloadNames(), ", ", ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, command has %s", got, want)
	}
	for trace, declared := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "serve", "--scale", "short", "--seconds", "0",
			"--trace", []string{"0", "1"}[trace], "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		last := lines[len(lines)-1]
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(last), &keys); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		if len(keys) != 4 {
			t.Errorf("trace %d: last line has %d keys, want 4", trace, len(keys))
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("trace %d: verdict %s", trace, last)
		}
		want := map[string]string{}
		for _, m := range declared {
			want[m.Name] = m.Unit
		}
		for name, m := range res.Metrics {
			if u, ok := want[name]; !ok {
				t.Errorf("trace %d: undeclared metric %s", trace, name)
			} else if u != m.Unit {
				t.Errorf("trace %d: %s unit %q, declared %q", trace, name, m.Unit, u)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace %d: %s = %v", trace, name, m.Value)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace %d: declared metric %s missing", trace, name)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Folding a synthetic profile with known frames.

// protoWriter encodes just enough profile.proto for the folding test.
type protoWriter struct{ b []byte }

func (w *protoWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *protoWriter) uint(field int, v uint64) {
	w.varint(uint64(field)<<3 | 0)
	w.varint(v)
}

func (w *protoWriter) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *protoWriter) packed(field int, vs []uint64) {
	var p protoWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytes(field, p.b)
}

// syntheticProfile builds a profile whose samples are given as stacks
// of function names, leaf first, each weighted [count, cpu ns]. A
// location may hold several inlined functions: a stack entry "a|b"
// is one location with a inlined into b. Sample 0 is written with
// unpacked repeated fields, the rest packed.
func syntheticProfile(samples []struct {
	stack []string
	ns    int64
}) []byte {
	var p protoWriter
	strs := map[string]uint64{"": 0}
	order := []string{""}
	str := func(s string) uint64 {
		if i, ok := strs[s]; ok {
			return i
		}
		strs[s] = uint64(len(order))
		order = append(order, s)
		return strs[s]
	}
	funcs := map[string]uint64{}
	locs := map[string]uint64{}
	var fnMsgs, locMsgs [][]byte
	for si, s := range samples {
		var locIDs []uint64
		for _, entry := range s.stack {
			id, ok := locs[entry]
			if !ok {
				var loc protoWriter
				id = uint64(len(locs) + 1)
				locs[entry] = id
				loc.uint(1, id)
				for _, fn := range strings.Split(entry, "|") {
					fid, ok := funcs[fn]
					if !ok {
						fid = uint64(len(funcs) + 1)
						funcs[fn] = fid
						var f protoWriter
						f.uint(1, fid)
						f.uint(2, str(fn))
						fnMsgs = append(fnMsgs, f.b)
					}
					var line protoWriter
					line.uint(1, fid)
					line.uint(2, 10)
					loc.bytes(4, line.b)
				}
				locMsgs = append(locMsgs, loc.b)
			}
			locIDs = append(locIDs, id)
		}
		var sm protoWriter
		if si == 0 {
			for _, id := range locIDs {
				sm.uint(1, id)
			}
			sm.uint(2, 1)
			sm.uint(2, uint64(s.ns))
		} else {
			sm.packed(1, locIDs)
			sm.packed(2, []uint64{1, uint64(s.ns)})
		}
		p.bytes(2, sm.b)
	}
	for _, l := range locMsgs {
		p.bytes(4, l)
	}
	for _, f := range fnMsgs {
		p.bytes(5, f)
	}
	for _, s := range order {
		p.bytes(6, []byte(s))
	}
	return p.b
}

func TestFoldSyntheticProfile(t *testing.T) {
	const (
		core    = "cellqos/internal/core.(*Engine).OutgoingReservation"
		eq6     = "cellqos/internal/core.(*Engine).ComputeTargetReservation"
		admit   = "cellqos/internal/core.(*Engine).AdmitNewRequest"
		record  = "cellqos/internal/core.(*Engine).RecordDeparture"
		predict = "cellqos/internal/predict.(*Estimator).rebuildPair"
		queue   = "cellqos/internal/sim.(*EventQueue).Pop"
		kernel  = "cellqos/internal/sim/shard.(*Kernel).runWindow.func1"
		cellnet = "cellqos/internal/cellnet.(*Network).request"
	)
	samples := []struct {
		stack []string
		ns    int64
	}{
		// Eq. 5 walk under an admission: core self.
		{[]string{core, eq6, "main.(*timedPolicy).DecideNew", admit, cellnet, kernel}, 40},
		// The estimator under Record, its frame inlined into Record's
		// location: predict self, and core.record cumulative.
		{[]string{"sort.Float64s", predict + "|" + record, cellnet, kernel}, 30},
		// Allocation under the cellnet driver: runtime.alloc, whatever
		// module frame sits above it.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", cellnet, kernel}, 10},
		// GC assist inside an allocation: runtime.gc wins over alloc.
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", cellnet}, 5},
		// Background mark worker: runtime.gc.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 5},
		// The event heap: container/heap under the queue, sim self.
		{[]string{"container/heap.down", queue, kernel}, 6},
		// The shard kernel itself: shard self.
		{[]string{kernel}, 2},
		// Scheduler: other.
		{[]string{"runtime.futex", "runtime.schedule"}, 2},
	}
	p, err := parseProfile(syntheticProfile(samples))
	if err != nil {
		t.Fatal(err)
	}
	f := newFolded()
	f.add(p.stacks())
	if f.total != 100 {
		t.Fatalf("total %d, want 100", f.total)
	}
	wantSelf := map[string]int64{
		"core": 40, "predict": 30, "runtime.alloc": 10, "runtime.gc": 10,
		"sim": 6, "shard": 2, "other": 2,
	}
	if !equalCounts(f.self, wantSelf) {
		t.Errorf("self %v, want %v", f.self, wantSelf)
	}
	wantCum := map[string]int64{
		"core.admit_new": 40, "core.eq6": 40, "core.eq5": 40, "core.record": 30, "sim.queue": 6,
	}
	if !equalCounts(f.cum, wantCum) {
		t.Errorf("cum %v, want %v", f.cum, wantCum)
	}
	if got := f.share(f.self["core"]); got != 0.4 {
		t.Errorf("core share %v, want 0.4", got)
	}
	var out bytes.Buffer
	if err := f.writeStacks(&out); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if want := kernel + ";" + cellnet + ";" + admit + ";main.(*timedPolicy).DecideNew;" + eq6 + ";" + core + " 40"; first != want {
		t.Errorf("heaviest folded stack %q, want %q", first, want)
	}
}

func equalCounts(got, want map[string]int64) bool {
	var g, w []string
	for k, v := range got {
		if v != 0 {
			g = append(g, k)
		}
	}
	for k := range want {
		w = append(w, k)
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ",") != strings.Join(w, ",") {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

func TestModulePackage(t *testing.T) {
	for frame, want := range map[string]string{
		"cellqos/internal/core.(*Engine).AdmitNewRequest":      "core",
		"cellqos/internal/sim/shard.(*Kernel).runWindow.func1": "sim/shard",
		"cellqos/internal/predict.searchEvent":                 "predict",
		"cellqos/internal/service.(*Server).Serve.func1":       "service",
	} {
		if got, ok := modulePackage(frame); !ok || got != want {
			t.Errorf("modulePackage(%q) = %q, %v; want %q", frame, got, ok, want)
		}
	}
	if _, ok := modulePackage("runtime.mallocgc"); ok {
		t.Errorf("runtime frame taken for a module package")
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(1000 - i) // 1000..1
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 %v, want 500", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
}
