package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// eq5PropTolerance bounds the difference between the Eq. 5 walk and
// the naive oracle. The two sum the same terms in different ways (prefix
// sums and subtraction versus direct accumulation), so they agree to
// rounding, not bit for bit.
const eq5PropTolerance = 1e-9

// TestPropertyEq5Incremental drives an engine through long random
// interleavings of connection adds and removals, hand-off departures
// feeding the estimator, history sweeps, and clock advances, and after
// every reservation query compares OutgoingReservation with naiveEq5, an
// Eq. 5 sum built directly from the estimator's selected samples. The
// estimator's own indexes are checked against a naive selection by
// predict.TestPropertyIndexedMatchesNaive; this test binds the Eq. 5
// layer above them. Run under -race via `make race`.
func TestPropertyEq5Incremental(t *testing.T) {
	cfgs := []struct {
		name string
		est  predict.Config
	}{
		// Infinite window: the selection changes only on Record.
		{"stationary", predict.StationaryConfig()},
		// Finite window with a small rebuild budget: selections also
		// change through lazy drift rebuilds and eviction, not only on
		// Record.
		{"windowed", predict.Config{Tint: 40, Period: 200, NwinPeriods: 1, NQuad: 30, RebuildEvery: 5}},
	}
	for _, tc := range cfgs {
		for seed := uint64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				runEq5Ops(t, tc.est, seed)
			})
		}
	}
}

// naiveEq5 evaluates Eq. 5, B = Σ_j b(C_j) · p_h(C_j → toward within
// test), straight from Estimator.Selected: each Eq. 4 probability is a
// plain weight sum over the (sojourn, weight, next) samples of the
// connection's prev, with none of the estimator's prefix sums or binary
// searches. Hinted connections (§7) use the (prev, hint) pair's sojourn
// distribution, falling back to the prev-marginal one when the pair has
// no sample past the extant sojourn.
func naiveEq5(e *Engine, now float64, toward topology.LocalIndex, test float64) float64 {
	est := e.patterns.Estimator(now)
	sum := 0.0
	for _, c := range e.conns {
		if c.hint != NoHint && c.hint != toward {
			continue
		}
		ext := math.Max(now-c.enteredAt, 0)
		var den, num, pairDen, pairNum float64
		for _, s := range est.Selected(now, c.prev) {
			if s.Sojourn <= ext {
				continue // already survived: outside the Eq. 4 condition
			}
			in := s.Sojourn <= ext+test
			den += s.Weight
			if in && (c.hint != NoHint || s.Next == toward) {
				num += s.Weight
			}
			if s.Next == c.hint {
				pairDen += s.Weight
				if in {
					pairNum += s.Weight
				}
			}
		}
		if c.hint != NoHint && pairDen > 0 {
			den, num = pairDen, pairNum
		}
		if den > 0 {
			sum += float64(c.min) * num / den
		}
	}
	return sum
}

func runEq5Ops(t *testing.T, estCfg predict.Config, seed uint64) {
	t.Helper()
	cfg := Config{
		Capacity: 200, Degree: 4, Policy: AC1,
		PHDTarget: 0.01, TStart: 1, Estimation: estCfg,
	}
	e := NewEngine(cfg)
	r := rand.New(rand.NewPCG(0xE55CACE, seed))
	now := 0.0
	var live []ConnID
	nextID := ConnID(1)

	randDir := func() topology.LocalIndex {
		return topology.LocalIndex(1 + r.IntN(cfg.Degree))
	}
	positive := 0 // answers > 0: guards against a vacuous run of zeros
	query := func(step int) {
		toward := randDir()
		test := 1 + r.Float64()*9
		got := e.OutgoingReservation(now, toward, test)
		want := naiveEq5(e, now, toward, test)
		if !(math.Abs(got-want) <= eq5PropTolerance) { // NaN fails too
			t.Fatalf("step %d: OutgoingReservation(now=%v, toward=%d, test=%v) = %v, naive = %v (diff %v)",
				step, now, toward, test, got, want, math.Abs(got-want))
		}
		if got > 0 {
			positive++
		}
	}

	for step := 0; step < 400; step++ {
		switch op := r.IntN(12); {
		case op < 3: // admit or hand a connection in
			min := 1 + r.IntN(5)
			if e.used+min > cfg.Capacity {
				break
			}
			spec := ConnSpec{Min: min, Prev: topology.Self}
			if r.IntN(2) == 0 {
				spec.Prev = randDir() // hand-off arrival
			}
			if r.IntN(3) == 0 {
				spec.Max = min + r.IntN(4) // adaptive QoS
			}
			if r.IntN(4) == 0 {
				spec.Hint = randDir() // §7 route guidance
			}
			e.AddConnection(nextID, spec, now)
			live = append(live, nextID)
			nextID++
		case op < 5: // connection leaves (drop or hand-off departure)
			if len(live) == 0 {
				break
			}
			i := r.IntN(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if r.IntN(2) == 0 {
				e.RecordDeparture(predict.Quadruplet{
					Event: now, Prev: topology.Self, Next: randDir(),
					Sojourn: r.Float64() * 50,
				})
			}
			e.RemoveConnection(id)
		case op < 7: // estimator learns a quadruplet
			prev := topology.Self
			if r.IntN(2) == 0 {
				prev = randDir()
			}
			e.RecordDeparture(predict.Quadruplet{
				Event: now, Prev: prev, Next: randDir(),
				Sojourn: r.Float64() * 50,
			})
		case op == 7: // §3.1 deletion rule
			e.SweepHistory(now)
		case op == 8: // clock advance
			now += r.Float64() * 5
		default:
			query(step)
		}
	}
	// Final full fan-out at one key: every direction must agree.
	for toward := topology.LocalIndex(1); int(toward) <= cfg.Degree; toward++ {
		test := 1 + r.Float64()*9
		got := e.OutgoingReservation(now, toward, test)
		want := naiveEq5(e, now, toward, test)
		if !(math.Abs(got-want) <= eq5PropTolerance) { // NaN fails too
			t.Fatalf("final: toward %d: OutgoingReservation %v vs naive %v", toward, got, want)
		}
	}
	if positive == 0 {
		t.Fatal("no query returned a positive reservation: the run never exercised Eq. 4")
	}
}
