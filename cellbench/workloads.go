package main

import (
	"fmt"
	"time"

	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// repResult is one repetition of a workload: set-up, then one timed
// segment, then the checks.
type repResult struct {
	setup  time.Duration
	seg    segment
	events uint64
	pcb    float64
	phd    float64 // NaN where the workload admits no hand-offs
	digest string
	logs   *logSet // decision latencies and, when traced, spans; dropped once summarized
	// Summaries kept after the repetition: DecideNew latency
	// percentiles (ns), and span statistics when traced.
	admitP50, admitP99 float64
	spans              *spanRep
	// layer holds per-layer counters read from public APIs after the
	// segment, keyed by metric name.
	layer map[string]float64
}

// workload is one named benchmark input.
type workload struct {
	name string
	// scales maps a scale name to its size parameters.
	scales map[string]scale
	// prepare, when set, runs once per run before the repetitions.
	prepare func(sc scale, seed uint64, env *runEnv) error
	rep     func(sc scale, seed uint64, traced bool, env *runEnv) (*repResult, error)
}

// scale sizes a workload. Fields unused by a workload stay zero.
type scale struct {
	warm    float64 // simulated warm-up seconds (ring) or events (serve)
	timed   float64 // simulated timed seconds (sims) or events (serve)
	slice   float64 // simulated seconds between heap samples
	side    int     // metro hex grid side
	latHint int     // expected decisions per cell log, to presize it
}

var workloads = []*workload{ringWorkload, metroWorkload, serveWorkload}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// runEnv carries what a repetition may touch outside its own state.
type runEnv struct {
	epoch time.Time // span timestamps are relative to it
	dir   string    // directory for the run's files (--out)
	// serveCheckpoint is the serve warm-up's checkpoint file.
	serveCheckpoint []byte
}

// ---------------------------------------------------------------------
// ring-ac3: the paper's §5.1 ring at its heaviest load point. Its
// working set is small and Eq. 5/6 and the estimator dominate, so
// kernel changes should not move it.

var ringWorkload = &workload{
	name: "ring-ac3",
	scales: map[string]scale{
		"full":  {warm: 1200, timed: 8000, slice: 100, latHint: 9600},
		"short": {warm: 600, timed: 200, slice: 50, latHint: 256},
	},
	rep: runRing,
}

func ringConfig(seed uint64, pol core.AdmissionPolicy) cellnet.Config {
	top := topology.Ring(10)
	cfg := cellnet.PaperBase()
	cfg.Topology = top
	cfg.Admission = pol
	cfg.Mix = traffic.Mix{VoiceRatio: 0.5}
	cfg.Mobility = &mobility.Linear{Top: top, DiameterKm: 1, Speed: mobility.HighMobility}
	cfg.Schedule = traffic.Constant{
		Lambda: traffic.RateForLoad(300, cfg.Mix, cfg.MeanLifetime),
		MinKmh: mobility.HighMobility.MinKmh, MaxKmh: mobility.HighMobility.MaxKmh,
	}
	cfg.Seed = seed
	return cfg
}

func runRing(sc scale, seed uint64, traced bool, env *runEnv) (*repResult, error) {
	logs := newLogSet(env.epoch, traced, sc.latHint, false)
	pol, err := newTimedPolicy("AC3", logs)
	if err != nil {
		return nil, err
	}
	cfg := ringConfig(seed, pol)
	elapsed := setupClock()
	n, err := cellnet.New(cfg)
	if err != nil {
		return nil, err
	}
	// Warm up for at least sc.warm simulated seconds, the connection
	// population's settling time, and on until every estimator pair is
	// full. Both depend only on the seed.
	warm := sc.warm
	n.RunUntil(warm)
	for !estimatorsFull(n, cfg) {
		if warm >= ringMaxWarm {
			return nil, fmt.Errorf("estimators not full after %v s of warm-up", warm)
		}
		warm += sc.slice
		n.RunUntil(warm)
	}
	n.ResetStats()
	setup := elapsed()
	return runSim(n, cfg.Topology.NumCells(), warm, sc, traced, logs, setup)
}

// ringMaxWarm bounds the ring warm-up, in simulated seconds.
const ringMaxWarm = 20000

// estimatorsFull reports whether every cell's estimator holds a full
// N_quad selection for each (prev, next) pair a linear mobile can
// produce on a ring: born here and leaving either way, or passing
// through in either direction.
func estimatorsFull(n *cellnet.Network, cfg cellnet.Config) bool {
	now := n.Now()
	for id := 0; id < cfg.Topology.NumCells(); id++ {
		est := n.Engine(topology.CellID(id)).Estimator(now)
		count := map[[2]topology.LocalIndex]int{}
		for prev := topology.LocalIndex(0); prev <= 2; prev++ {
			for _, s := range est.Selected(now, prev) {
				count[[2]topology.LocalIndex{prev, s.Next}]++
			}
		}
		for _, pair := range [][2]topology.LocalIndex{{0, 1}, {0, 2}, {1, 2}, {2, 1}} {
			if count[pair] < cfg.Estimation.NQuad {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------
// metro-hex: BenchmarkShardedMetro at 2 shards (BENCH_sim.json's
// shards=2 entry), cold start. Its working set is large, so the event
// kernel, allocation and GC dominate.

var metroWorkload = &workload{
	name: "metro-hex",
	scales: map[string]scale{
		"full":  {timed: 30, slice: 1, side: 100, latHint: 64},
		"short": {timed: 10, slice: 1, side: 20, latHint: 32},
	},
	rep: runMetro,
}

func metroConfig(side int, seed uint64, pol core.AdmissionPolicy) cellnet.Config {
	top := topology.Hex(side, side, true)
	cfg := cellnet.PaperBase()
	cfg.Topology = top
	cfg.Admission = pol
	cfg.Mix = traffic.Mix{VoiceRatio: 0.8}
	cfg.Mobility = &mobility.HexWalk{Top: top, DiameterKm: 1, Speed: mobility.HighMobility, Persistence: 0.8}
	cfg.Schedule = traffic.Constant{
		Lambda: traffic.RateForLoad(150, cfg.Mix, cfg.MeanLifetime),
		MinKmh: mobility.HighMobility.MinKmh, MaxKmh: mobility.HighMobility.MaxKmh,
	}
	cfg.Seed = seed
	cfg.Sharding = cellnet.ShardingConfig{Shards: 2, SignalingLatency: 0.25, ExchangePeriod: 5}
	return cfg
}

func runMetro(sc scale, seed uint64, traced bool, env *runEnv) (*repResult, error) {
	// Construction takes tens of milliseconds, so it is repeated and
	// the median reported; the last network built is the one timed.
	var (
		n      *cellnet.Network
		cells  int
		logs   *logSet
		setups = make([]float64, metroSetups)
	)
	for i := range setups {
		// Drop the previous build so setupClock's collection frees it.
		n, logs = nil, newLogSet(env.epoch, traced, sc.latHint, false)
		pol, err := newTimedPolicy("AC3", logs)
		if err != nil {
			return nil, err
		}
		cfg := metroConfig(sc.side, seed, pol)
		cells = cfg.Topology.NumCells()
		elapsed := setupClock()
		if n, err = cellnet.New(cfg); err != nil {
			return nil, err
		}
		setups[i] = elapsed().Seconds()
	}
	setup := time.Duration(median(setups) * 1e9)
	return runSim(n, cells, 0, sc, traced, logs, setup)
}

// metroSetups is how many times a metro repetition builds its network.
const metroSetups = 5

// ---------------------------------------------------------------------
// Shared simulation driver.

// runSim times n from start to start+sc.timed in slices, then checks
// the conservation identities and digests the outcome.
func runSim(n *cellnet.Network, cells int, start float64, sc scale, traced bool, logs *logSet, setup time.Duration) (*repResult, error) {
	engines := make([]*core.Engine, cells)
	for id := range engines {
		engines[id] = n.Engine(topology.CellID(id))
	}
	logs.resetLatencies()
	before := logs.counts()
	eq5Before := readEq5(engines)
	recBefore := recorded(engines, start)
	evBefore := n.EventsFired()

	end := start + sc.timed
	seg, err := timeSegment(traced, func(h *heapSampler) error {
		for t := start + sc.slice; ; t += sc.slice {
			if t > end {
				t = end
			}
			n.RunUntil(t)
			h.poll()
			if t == end {
				return nil
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res := n.Snapshot()
	events := n.EventsFired() - evBefore
	dc := logs.counts().minus(before)
	tot := res.Total

	switch {
	case events == 0 || tot.Requested == 0:
		return nil, fmt.Errorf("timed segment fired %d events and %d requests", events, tot.Requested)
	case tot.Requested != dc.newCount || tot.Blocked != dc.newDenied:
		return nil, fmt.Errorf("conservation: requested %d = admitted %d + blocked %d, but the policy decided %d (%d denied)",
			tot.Requested, tot.Requested-tot.Blocked, tot.Blocked, dc.newCount, dc.newDenied)
	case tot.HandOffs != dc.handOffCount || tot.Dropped != dc.handOffDropped:
		return nil, fmt.Errorf("conservation: hand-offs %d = accepted %d + dropped %d, but the policy decided %d (%d dropped)",
			tot.HandOffs, tot.HandOffs-tot.Dropped, tot.Dropped, dc.handOffCount, dc.handOffDropped)
	}

	d := newDigester()
	d.u64("events", events)
	d.u64("requested", tot.Requested)
	d.u64("blocked", tot.Blocked)
	d.u64("handoffs", tot.HandOffs)
	d.u64("dropped", tot.Dropped)
	d.u64("completed", tot.Completed)
	d.u64("exited", tot.Exited)
	d.u64("tests", tot.AdmissionTests)
	d.u64("brcalcs", tot.BrCalcs)
	d.u64("exchanges", res.Exchanges)
	d.f64("pcb", res.PCB)
	d.f64("phd", res.PHD)
	d.f64("ncalc", res.NCalc)
	for _, c := range res.Cells {
		d.f64("br", c.Br)
		d.u64("bu", uint64(c.Bu))
	}

	eq5 := readEq5(engines).minus(eq5Before)
	layer := map[string]float64{
		"sim.events":                    float64(events),
		"cellnet.handoffs":              float64(tot.HandOffs),
		"cellnet.exchanges":             float64(res.Exchanges),
		"policy.decide_handoff.count":   float64(dc.handOffCount),
		"core.br_calcs_per_admission":   ratio(float64(tot.BrCalcs), float64(tot.AdmissionTests)),
		"predict.records_per_admission": ratio(float64(recorded(engines, n.Now())-recBefore), float64(dc.newCount)),
	}
	eq5.into(layer, events)
	return &repResult{
		setup:  setup,
		seg:    seg,
		events: events,
		pcb:    res.PCB,
		phd:    res.PHD,
		digest: d.sum(),
		logs:   logs,
		layer:  layer,
	}, nil
}

// recorded sums the quadruplets every engine's estimator has taken in.
func recorded(engines []*core.Engine, now float64) uint64 {
	var sum uint64
	for _, e := range engines {
		if est := e.Estimator(now); est != nil {
			sum += est.Recorded()
		}
	}
	return sum
}

// eq5Counts reads the Eq. 5 materialized view's counters where the
// engine still exposes them. The interfaces are anonymous on purpose:
// if the view is deleted the metrics read as zero and this still
// compiles.
type eq5Counts struct {
	ok                     bool
	hits, misses, rebuilds uint64
}

func readEq5(engines []*core.Engine) eq5Counts {
	var c eq5Counts
	for _, e := range engines {
		var eng any = e
		cache, okCache := eng.(interface{ Eq5CacheStats() (uint64, uint64) })
		view, okView := eng.(interface {
			Eq5ViewStats() (uint64, uint64, uint64)
		})
		if !okCache || !okView {
			return eq5Counts{}
		}
		h, m := cache.Eq5CacheStats()
		r, _, _ := view.Eq5ViewStats()
		c.ok = true
		c.hits += h
		c.misses += m
		c.rebuilds += r
	}
	return c
}

func (c eq5Counts) minus(o eq5Counts) eq5Counts {
	return eq5Counts{ok: c.ok && o.ok, hits: c.hits - o.hits, misses: c.misses - o.misses, rebuilds: c.rebuilds - o.rebuilds}
}

func (c eq5Counts) into(layer map[string]float64, events uint64) {
	if !c.ok {
		layer["core.eq5.hit_ratio"] = 0
		layer["core.eq5.rebuilds_per_event"] = 0
		return
	}
	layer["core.eq5.hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.misses))
	layer["core.eq5.rebuilds_per_event"] = ratio(float64(c.rebuilds), float64(events))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
