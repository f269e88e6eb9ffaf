// Package a is the genepoch fixture: estimator-derived values cached
// across a generation bump, next to the approved re-derive and
// Generation()-gated forms. The stale-read shape is the bug class any
// cache of estimator-derived values must rule out — an early Eq. 5
// memo kept per-connection denominators across Record and drifted from
// the from-scratch walk.
package a

import "cellqos/internal/predict"

// staleRead caches a denominator, lets Record move the epoch, then
// reuses the dead value.
func staleRead(e *predict.Estimator, q predict.Quadruplet) float64 {
	denom := e.SurvivorWeight(100, 1, 5)
	e.Record(q)
	return denom // want `denom \(from SurvivorWeight\) is read after Record bumped the estimator generation`
}

// staleAfterSweep: eviction sweeps bump the epoch too.
func staleAfterSweep(e *predict.Estimator) float64 {
	bound := e.MaxSojourn(100)
	e.SweepAt(200)
	return bound // want `bound \(from MaxSojourn\) is read after SweepAt bumped the estimator generation`
}

// rederived recomputes after the mutation: fresh, not flagged.
func rederived(e *predict.Estimator, q predict.Quadruplet) float64 {
	denom := e.SurvivorWeight(100, 1, 5)
	e.Record(q)
	denom = e.SurvivorWeight(100, 1, 5)
	return denom
}

// generationGated compares epochs before trusting the cached value.
func generationGated(e *predict.Estimator, q predict.Quadruplet, cachedGen uint64) float64 {
	denom := e.SurvivorWeight(100, 1, 5)
	e.Record(q)
	if e.Generation() != cachedGen {
		return -1
	}
	return denom
}

// useBeforeMutation is safe: the value is consumed before the epoch
// moves.
func useBeforeMutation(e *predict.Estimator, q predict.Quadruplet) float64 {
	w := e.HandOffWeight(100, 1, 2, 5, 10)
	out := w * 2
	e.Record(q)
	return out
}

// allowEscapeHatch exercises //cellqos:allow with a justification.
func allowEscapeHatch(e *predict.Estimator, q predict.Quadruplet) float64 {
	denom := e.SurvivorWeight(100, 1, 5)
	e.Record(q)
	return denom //cellqos:allow genepoch fixture: intentional before/after comparison
}
