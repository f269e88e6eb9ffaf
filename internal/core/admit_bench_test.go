package core_test

import (
	"slices"
	"testing"
	"time"

	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// The admission benchmarks drive AdmitNew on a cluster of degree-6
// engines (a wrapped hex-grid neighborhood) whose estimators are loaded
// with a full complement of hand-off history, at small/medium/large
// per-cell connection populations. Arrivals come in bursts that share a
// timestamp — the paper's "every new-connection request recomputes B_r"
// fast path — so the cost measured is exactly the Eq. 5–6 walk:
// ComputeTargetReservation → 6 × OutgoingReservation → per-connection
// estimator queries.

// benchDegree is the cluster fan-out; benchCells engines are wired into
// a circulant graph (neighbors at ring distance 1, 2 and 3), which gives
// every cell exactly benchDegree neighbors like a wrapped hex grid.
const (
	benchDegree = 6
	benchCells  = 12
	benchStart  = 1000.0
	benchBurst  = 8
	// benchLive caps the benchmark-admitted connections live per cell.
	benchLive = 4
)

// benchOffsets lists neighbor ring offsets in local-index order 1..6.
// The inverse direction of local index li is li^1 in 0-based form:
// offsets come in ± pairs, so (li-1)^1+1 flips +d to −d.
var benchOffsets = [benchDegree]int{1, -1, 2, -2, 3, -3}

func benchNeighbor(self int, li topology.LocalIndex) int {
	return ((self+benchOffsets[li-1])%benchCells + benchCells) % benchCells
}

func benchToward(li topology.LocalIndex) topology.LocalIndex {
	return topology.LocalIndex((int(li)-1)^1) + 1
}

// benchCluster is an in-memory cluster: engines reach each other through
// benchPeers, which delegates straight to the neighbor engine (the
// cellnet wiring without the simulation around it).
type benchCluster struct {
	engines []*core.Engine
	peers   []*benchPeers
	live    [benchCells][]core.ConnID // benchmark-admitted connections, oldest first
	nextID  core.ConnID               // next ID for a benchmark-added connection
}

// admit runs one new-call admission in cell at now and registers the
// admitted connection, first retiring the cell's oldest
// benchmark-admitted connection once benchLive are live, so the
// population stays steady.
func (cl *benchCluster) admit(cell int, now float64) {
	e := cl.engines[cell]
	if !e.AdmitNew(now, 1, cl.peers[cell]).Admitted {
		return
	}
	live := cl.live[cell]
	if len(live) == benchLive {
		e.RemoveConnection(live[0])
		live = append(live[:0], live[1:]...)
	}
	benchAddConn(e, cl.nextID, 1, topology.Self, now)
	cl.live[cell] = append(live, cl.nextID)
	cl.nextID++
}

type benchPeers struct {
	cl   *benchCluster
	self int
}

func (p *benchPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	nb := p.cl.engines[benchNeighbor(p.self, li)]
	return nb.OutgoingReservation(now, benchToward(li), test), true
}

func (p *benchPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	nb := p.cl.engines[benchNeighbor(p.self, li)]
	return nb.UsedBandwidth(), nb.Capacity(), nb.LastTargetReservation(), true
}

func (p *benchPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	id := benchNeighbor(p.self, li)
	nb := p.cl.engines[id]
	br := nb.ComputeTargetReservation(now, p.cl.peers[id])
	return nb.UsedBandwidth(), nb.Capacity(), br, true
}

func (p *benchPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	nb := p.cl.engines[benchNeighbor(p.self, li)]
	return nb.MaxSojourn(now), true
}

// benchAddConn registers a rigid connection through the current public
// entry point (kept as a helper so the benchmark body survives API
// migrations unchanged).
func benchAddConn(e *core.Engine, id core.ConnID, bw int, prev topology.LocalIndex, now float64) {
	e.AddConnection(id, core.ConnSpec{Min: bw, Prev: prev}, now)
}

// newBenchCluster builds the cluster with connsPerCell active rigid
// connections per cell and every estimator loaded with perPair
// quadruplets for each (prev, next) pair — sojourns spread over
// [5, 125) so Eq. 4 denominators stay populated across the
// extant-sojourn range. Cell c starts with T_est = tStart(c).
func newBenchCluster(pol core.Policy, connsPerCell, perPair int, tStart func(cell int) float64) *benchCluster {
	cfg := core.Config{
		Capacity:   2*connsPerCell + 64,
		Degree:     benchDegree,
		Policy:     pol,
		PHDTarget:  0.01,
		Estimation: predict.StationaryConfig(),
	}
	cl := &benchCluster{nextID: core.ConnID(1) << 40}
	for c := 0; c < benchCells; c++ {
		cl.live[c] = make([]core.ConnID, 0, benchLive)
		cfg.TStart = tStart(c)
		e := core.NewEngine(cfg)
		ev := 0.0
		for prev := topology.LocalIndex(0); int(prev) <= benchDegree; prev++ {
			for next := topology.LocalIndex(1); int(next) <= benchDegree; next++ {
				for k := 0; k < perPair; k++ {
					soj := 5 + float64((k*7+int(prev)*3+int(next))%120)
					e.RecordDeparture(predict.Quadruplet{Event: ev, Prev: prev, Next: next, Sojourn: soj})
					ev += 0.01
				}
			}
		}
		for j := 0; j < connsPerCell; j++ {
			id := core.ConnID(c)<<32 | core.ConnID(j+1)
			prev := topology.LocalIndex(j % (benchDegree + 1))
			benchAddConn(e, id, 1, prev, benchStart-float64(j%90))
		}
		// Grow the connection table to the size the timed loop reaches
		// (benchLive more), so its one-time growth is not amortized into
		// B/op, where it would shrink as b.N grows.
		for j := 1; j <= benchLive; j++ {
			benchAddConn(e, core.ConnID(c)<<32|core.ConnID(connsPerCell+j), 1, topology.Self, 0)
		}
		for j := 1; j <= benchLive; j++ {
			e.RemoveConnection(core.ConnID(c)<<32 | core.ConnID(connsPerCell+j))
		}
		cl.engines = append(cl.engines, e)
		cl.peers = append(cl.peers, &benchPeers{cl: cl, self: c})
	}
	return cl
}

// uniformTest gives every cell the same T_est, so neighbors query each
// engine with one window.
func uniformTest(int) float64 { return 4 }

// spreadTest gives neighboring cells different T_est values, as the
// per-cell controller does once each cell has seen its own drops: an
// engine is then queried with a different window by each neighbor.
func spreadTest(cell int) float64 { return 2 + float64(cell%5) }

// benchmarkAdmitNew measures sustained admission throughput: requests
// arrive in bursts of benchBurst sharing one timestamp, round-robin over
// the cells (see benchCluster.admit).
//
// Repeated queries on unchanged state are the best case for any cache
// of Eq. 5; BenchmarkAdmitNewWorkload measures the paper's workload
// shape instead.
//
// Besides the standard mean ns/op it reports the per-operation p99 as a
// custom "p99-ns/op" metric (see reportP99). The per-op wall-clock
// sampling is diagnostics around the measured region, preallocated so it
// adds no allocations to the steady state. cmd/benchjson gates the
// metric with the other time-based numbers under -check-time.
func benchmarkAdmitNew(b *testing.B, connsPerCell int) {
	cl := newBenchCluster(core.AC1, connsPerCell, 40, uniformTest)
	now := benchStart
	durs := make([]time.Duration, 0, b.N)
	wall := clock.Wall{} // per-op latency sampling; never reaches engine state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opStart := wall.Now()
		cl.admit(i%benchCells, now)
		durs = append(durs, wall.Since(opStart))
		if (i+1)%benchBurst == 0 {
			now += 0.25
		}
	}
	b.StopTimer()
	reportP99(b, durs)
}

// reportP99 reports the per-operation p99 latency as "p99-ns/op": the
// tail is where an admission that recomputes B_r over a large
// connection table shows, and the mean alone hides it.
func reportP99(b *testing.B, durs []time.Duration) {
	slices.Sort(durs)
	p99 := durs[len(durs)*99/100] // len·99/100 < len for every len ≥ 1
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns/op")
}

func BenchmarkAdmitNew(b *testing.B) {
	b.Run("small", func(b *testing.B) { benchmarkAdmitNew(b, 16) })
	b.Run("medium", func(b *testing.B) { benchmarkAdmitNew(b, 64) })
	b.Run("large", func(b *testing.B) { benchmarkAdmitNew(b, 256) })
}

// The workload-shaped admission benchmark follows the AC3 ring run
// rather than a same-timestamp burst.
const (
	// workloadStep is the simulated time between two admissions.
	workloadStep = 0.03
	// workloadRecordsPerAdmission is the ring's measured rate of
	// estimator records per admission test (cellbench's
	// predict.records_per_admission on ring-ac3).
	workloadRecordsPerAdmission = 0.95
)

// benchmarkAdmitNewWorkload measures admission on the state the paper's
// ring actually presents:
//
//   - the policy is AC3, as in the ring, so an admission also recomputes
//     its suspect neighbors' B_r;
//   - neighboring cells run different T_est windows (spreadTest);
//   - every pair's selection starts full at N_quad, as after the ring's
//     warm-up, so each Record evicts a sample instead of growing the
//     selection;
//   - the clock advances on every admission, and hand-off departures
//     feed the estimators at workloadRecordsPerAdmission.
//
// Each departure takes the next of a cell's resident connections in
// turn, records its quadruplet (sojourn = time since it entered), and
// registers it again as a hand-off arrival, so the population and the
// spread of extant sojourns stay steady while every estimator keeps
// changing. No audit is attached. ns/op covers the admission and its
// share of records; p99-ns/op covers the admission alone.
func benchmarkAdmitNewWorkload(b *testing.B, connsPerCell int) {
	cl := newBenchCluster(core.AC3, connsPerCell, predict.StationaryConfig().NQuad, spreadTest)
	now := benchStart
	var resident [benchCells][]core.ConnID
	for c := range resident {
		for j := 0; j < connsPerCell; j++ {
			resident[c] = append(resident[c], core.ConnID(c)<<32|core.ConnID(j+1))
		}
	}
	handOff := func(k int) {
		cell, turn := k%benchCells, k/benchCells
		e := cl.engines[cell]
		slot := turn % connsPerCell
		id := resident[cell][slot]
		_, prev, enteredAt, _ := e.Connection(id)
		e.RemoveConnection(id)
		e.RecordDeparture(predict.Quadruplet{
			Event: now, Prev: prev, Next: topology.LocalIndex(turn%benchDegree + 1),
			Sojourn: now - enteredAt,
		})
		benchAddConn(e, cl.nextID, 1, topology.LocalIndex(turn%(benchDegree+1)), now)
		resident[cell][slot] = cl.nextID
		cl.nextID++
	}
	durs := make([]time.Duration, 0, b.N)
	wall := clock.Wall{} // per-op latency sampling; never reaches engine state
	records, credit := 0, 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opStart := wall.Now()
		cl.admit(i%benchCells, now)
		durs = append(durs, wall.Since(opStart))
		for credit += workloadRecordsPerAdmission; credit >= 1; credit-- {
			handOff(records)
			records++
		}
		now += workloadStep
	}
	b.StopTimer()
	reportP99(b, durs)
}

func BenchmarkAdmitNewWorkload(b *testing.B) {
	b.Run("small", func(b *testing.B) { benchmarkAdmitNewWorkload(b, 16) })
	b.Run("medium", func(b *testing.B) { benchmarkAdmitNewWorkload(b, 64) })
	b.Run("large", func(b *testing.B) { benchmarkAdmitNewWorkload(b, 256) })
}

// BenchmarkOutgoingReservation isolates the Eq. 5 answer path of one
// loaded engine: repeated queries at one timestamp cycling over the six
// directions — the exact pattern a burst of neighbor admissions
// produces. This is the steady-state estimator-query layer, which must
// run allocation-free.
func BenchmarkOutgoingReservation(b *testing.B) {
	cl := newBenchCluster(core.AC1, 256, 40, uniformTest)
	e := cl.engines[0]
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		toward := topology.LocalIndex(i%benchDegree) + 1
		sum += e.OutgoingReservation(benchStart, toward, 4)
	}
	benchSink = sum
}

var benchSink float64
