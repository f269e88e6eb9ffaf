package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// seedEq5Engine builds an AC1 engine with enough hand-off history that
// Eq. 5 sums are non-trivial in both directions, plus a few live
// connections.
func seedEq5Engine() *Engine {
	e := NewEngine(adaptiveConfig(AC1))
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 20})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: topology.Self, Next: 2, Sojourn: 40})
	e.RecordDeparture(predict.Quadruplet{Event: 2, Prev: 1, Next: 2, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 90)
	e.AddConnection(2, ConnSpec{Min: 2, Prev: 1}, 95)
	return e
}

// checkEq5 fails t unless OutgoingReservation agrees with naiveEq5 at
// (now, toward, test), and returns the answer.
func checkEq5(t *testing.T, e *Engine, now float64, toward topology.LocalIndex, test float64) float64 {
	t.Helper()
	got := e.OutgoingReservation(now, toward, test)
	want := naiveEq5(e, now, toward, test)
	if !(math.Abs(got-want) <= eq5PropTolerance) { // NaN fails too
		t.Fatalf("OutgoingReservation(now=%v, toward=%d, test=%v) = %v, naive = %v (diff %v)",
			now, toward, test, got, want, math.Abs(got-want))
	}
	return got
}

// TestPropertyIncrementalBr complements TestPropertyEq5Incremental with
// a denser check and a different op mix: explicit EvictBefore sweeps and
// hand-offs out that are followed by a fresh arrival, with the
// reservation window held to two values so equal (now, T_est) queries
// recur. After every event it compares OutgoingReservation with
// naiveEq5, and re-asks the same question to pin that repeated queries
// on unchanged state are bit-identical. Run under -race via `make race`.
func TestPropertyIncrementalBr(t *testing.T) {
	cfgs := []struct {
		name string
		est  predict.Config
	}{
		{"stationary", predict.StationaryConfig()},
		{"windowed", predict.Config{Tint: 40, Period: 200, NwinPeriods: 1, NQuad: 30, RebuildEvery: 5}},
	}
	for _, tc := range cfgs {
		for seed := uint64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				runIncrementalBrOps(t, tc.est, seed)
			})
		}
	}
}

func runIncrementalBrOps(t *testing.T, estCfg predict.Config, seed uint64) {
	t.Helper()
	cfg := Config{
		Capacity: 200, Degree: 4, Policy: AC1,
		PHDTarget: 0.01, TStart: 1, Estimation: estCfg,
	}
	e := NewEngine(cfg)
	r := rand.New(rand.NewPCG(0x1BCB41EC, seed))
	now := 0.0
	var live []ConnID
	nextID := ConnID(1)

	randDir := func() topology.LocalIndex {
		return topology.LocalIndex(1 + r.IntN(cfg.Degree))
	}
	windows := []float64{5, 12.5}
	positive := 0
	check := func(step int, what string) {
		t.Helper()
		toward := randDir()
		test := windows[r.IntN(len(windows))]
		got := e.OutgoingReservation(now, toward, test)
		want := naiveEq5(e, now, toward, test)
		if !(math.Abs(got-want) <= eq5PropTolerance) { // NaN fails too
			t.Fatalf("step %d after %s: OutgoingReservation(now=%v, toward=%d, test=%v) = %v, naive = %v (diff %v)",
				step, what, now, toward, test, got, want, math.Abs(got-want))
		}
		if again := e.OutgoingReservation(now, toward, test); again != got {
			t.Fatalf("step %d after %s: repeated query %v != first answer %v", step, what, again, got)
		}
		if got > 0 {
			positive++
		}
	}

	for step := 0; step < 500; step++ {
		what := "query"
		switch op := r.IntN(14); {
		case op < 3: // admit a new connection
			what = "add"
			min := 1 + r.IntN(5)
			if e.used+min > cfg.Capacity {
				break
			}
			spec := ConnSpec{Min: min, Prev: topology.Self}
			if r.IntN(3) == 0 {
				spec.Max = min + r.IntN(4)
			}
			if r.IntN(4) == 0 {
				spec.Hint = randDir()
			}
			e.AddConnection(nextID, spec, now)
			live = append(live, nextID)
			nextID++
		case op < 5: // connection ends
			what = "remove"
			if len(live) == 0 {
				break
			}
			i := r.IntN(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			e.RemoveConnection(id)
		case op < 7: // hand-off out: departure recorded, then a fresh arrival
			what = "hand-off"
			if len(live) == 0 {
				break
			}
			i := r.IntN(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			e.RecordDeparture(predict.Quadruplet{
				Event: now, Prev: topology.Self, Next: randDir(),
				Sojourn: r.Float64() * 50,
			})
			e.RemoveConnection(id)
			min := 1 + r.IntN(5)
			if e.used+min <= cfg.Capacity {
				e.AddConnection(nextID, ConnSpec{Min: min, Prev: randDir()}, now)
				live = append(live, nextID)
				nextID++
			}
		case op < 9: // estimator learns a quadruplet
			what = "record"
			prev := topology.Self
			if r.IntN(2) == 0 {
				prev = randDir()
			}
			e.RecordDeparture(predict.Quadruplet{
				Event: now, Prev: prev, Next: randDir(),
				Sojourn: r.Float64() * 50,
			})
		case op == 9: // explicit estimator eviction
			what = "evict"
			e.patterns.Estimator(now).EvictBefore(now - 20 - r.Float64()*100)
		case op == 10: // §3.1 deletion rule
			what = "sweep"
			e.SweepHistory(now)
		case op < 13: // clock advance
			what = "advance"
			now += r.Float64() * 5
		default:
		}
		check(step, what)
	}
	// Final full fan-out at one key: every direction must agree.
	for toward := topology.LocalIndex(1); int(toward) <= cfg.Degree; toward++ {
		for _, test := range windows {
			checkEq5(t, e, now, toward, test)
		}
	}
	if positive == 0 {
		t.Fatal("no query returned a positive reservation: the run never exercised Eq. 4")
	}
}

// TestEq5ViewEdgeCases pins Eq. 5 answers across state changes that
// land between two queries at one timestamp: an add/remove pair, the
// swap-remove of a middle table slot, a Record, and evictions with and
// without samples actually dropping.
func TestEq5ViewEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{
			// Adding then removing the last connection restores the
			// table, so the walk sums the same terms in the same order.
			name: "same-timestamp add/remove pair",
			run: func(t *testing.T, e *Engine) {
				before := e.OutgoingReservation(100, 1, 30)
				e.AddConnection(50, ConnSpec{Min: 3, Prev: 1}, 100)
				e.RemoveConnection(50)
				if got := e.OutgoingReservation(100, 1, 30); got != before {
					t.Fatalf("after add/remove pair: %v, want %v", got, before)
				}
			},
		},
		{
			// Removing a middle slot swaps the last connection into
			// its place; the answer must follow the reordered table.
			name: "same-timestamp middle swap-remove",
			run: func(t *testing.T, e *Engine) {
				e.OutgoingReservation(100, 1, 30)
				e.AddConnection(50, ConnSpec{Min: 3, Prev: 1}, 100)
				e.AddConnection(51, ConnSpec{Min: 7, Prev: 2, Hint: 1}, 100)
				e.RemoveConnection(1) // seeded conn at slot 0: 51 swaps in
				if e.ConnectionCount() != 3 {
					t.Fatalf("ConnectionCount = %d, want 3", e.ConnectionCount())
				}
			},
		},
		{
			// A Record between two queries at equal now: the second
			// query must see the new selection.
			name: "record between equal-now queries",
			run: func(t *testing.T, e *Engine) {
				before := e.OutgoingReservation(100, 1, 30)
				e.RecordDeparture(predict.Quadruplet{Event: 100, Prev: topology.Self, Next: 1, Sojourn: 12})
				if got := checkEq5(t, e, 100, 1, 30); got == before {
					t.Fatalf("equal-now query after Record still answers %v", got)
				}
			},
		},
		{
			// EvictBefore that drops samples bumps the generation, and
			// the next query answers for the shrunken selection.
			name: "evict drops samples",
			run: func(t *testing.T, e *Engine) {
				e.OutgoingReservation(100, 1, 30)
				est := e.patterns.Estimator(100)
				gen := est.Generation()
				est.EvictBefore(1.5) // drops the Event=0 and Event=1 quadruplets
				if est.Generation() == gen {
					t.Fatal("EvictBefore dropped samples without bumping the generation")
				}
				checkEq5(t, e, 100, 1, 30)
			},
		},
		{
			// EvictBefore that drops nothing leaves the generation and
			// the answer alone.
			name: "evict drops nothing",
			run: func(t *testing.T, e *Engine) {
				before := e.OutgoingReservation(100, 1, 30)
				est := e.patterns.Estimator(100)
				gen := est.Generation()
				est.EvictBefore(-1)
				if est.Generation() != gen {
					t.Fatal("no-op EvictBefore bumped the generation")
				}
				if got := e.OutgoingReservation(100, 1, 30); got != before {
					t.Fatalf("after no-op evict: %v, want %v", got, before)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := seedEq5Engine()
			tc.run(t, e)
			for _, toward := range []topology.LocalIndex{1, 2} {
				checkEq5(t, e, 100, toward, 30)
			}
		})
	}
}

// TestEq5ViewAdvanceAllocationFree pins the steady-state cost model:
// advancing the clock and re-querying Eq. 5 allocates nothing.
func TestEq5ViewAdvanceAllocationFree(t *testing.T) {
	e := seedEq5Engine()
	for i := 0; i < 30; i++ {
		e.RecordDeparture(predict.Quadruplet{
			Event: float64(3 + i), Prev: topology.LocalIndex(i % 3),
			Next: topology.LocalIndex(1 + i%2), Sojourn: float64(5 + (i*7)%40),
		})
	}
	now := 100.0
	e.OutgoingReservation(now, 1, 30)
	e.OutgoingReservation(now, 2, 30)
	allocs := testing.AllocsPerRun(200, func() {
		now += 0.25
		e.OutgoingReservation(now, 1, 30)
		e.OutgoingReservation(now, 2, 30)
	})
	if allocs != 0 {
		t.Fatalf("steady-state advance allocated %v times per run, want 0", allocs)
	}
}

// TestEq5CacheExtendsOnSameTimestampAdd checks that a connection added
// at the query timestamp joins the Eq. 5 sum and never lowers it.
func TestEq5CacheExtendsOnSameTimestampAdd(t *testing.T) {
	e := seedEq5Engine()
	now := 100.0
	before := checkEq5(t, e, now, 1, 30)
	e.AddConnection(3, ConnSpec{Min: 5, Prev: topology.Self}, now)
	got := checkEq5(t, e, now, 1, 30)
	if got <= before {
		t.Fatalf("adding a Self connection did not raise the Eq. 5 sum: %v -> %v", before, got)
	}
}

// TestEq5CacheSurvivesRemove checks that a removed connection leaves
// the Eq. 5 sum, and that the swap-reordered table still answers right.
func TestEq5CacheSurvivesRemove(t *testing.T) {
	e := seedEq5Engine()
	before := checkEq5(t, e, 100, 1, 30)
	e.RemoveConnection(1)
	got := checkEq5(t, e, 100, 1, 30)
	if got >= before {
		t.Fatalf("removing connection 1 did not lower the Eq. 5 sum: %v -> %v", before, got)
	}
}

// TestEq5CacheInvalidatesOnNewHistory checks that a quadruplet recorded
// after a query changes the next answer at the same timestamp.
func TestEq5CacheInvalidatesOnNewHistory(t *testing.T) {
	e := seedEq5Engine()
	before := checkEq5(t, e, 100, 1, 30)
	// A Self→2 sojourn past connection 1's extant sojourn (10) joins
	// the Eq. 4 denominator only, so p_h toward 1 falls.
	e.RecordDeparture(predict.Quadruplet{Event: 99, Prev: topology.Self, Next: 2, Sojourn: 15})
	got := checkEq5(t, e, 100, 1, 30)
	if got >= before {
		t.Fatalf("new Self→2 history did not lower the reservation toward 1: %v -> %v", before, got)
	}
}
