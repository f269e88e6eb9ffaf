package core

import "fmt"

// Ledger is a consistent snapshot of an Engine's bandwidth accounting,
// taken under the engine's lock. It exists so an external checker
// (internal/audit) can verify conservation invariants — Σ bw == B_u,
// B_u + pledged ≤ C + margin, elastic min ≤ bw ≤ max — without reaching
// into unexported state or racing concurrent deployments.
type Ledger struct {
	// Static configuration echoed for bound checks.
	Capacity int
	Margin   int // HandOffMargin (CDMA soft capacity, §7)
	Degree   int
	Adaptive bool // policy runs the predictive machinery

	// Live accounting.
	Used        int // B_u as tracked incrementally
	Pledged     int // MobSpec pledge pool
	Connections int
	SumBw       int // Σ granted bandwidth over the connection table
	SumMin      int // Σ minimum QoS over the connection table

	// BadConn describes the first connection whose own record is
	// inconsistent (bw outside [min,max], non-positive min, or a stale
	// index entry); empty when the table is sound.
	BadConn string

	// LastBr is B_r^prev; Test is the current T_est (0 when non-adaptive).
	LastBr float64
	Test   float64

	// Degraded-mode accounting (unreachable neighbors, Fallback policy).
	// BrCalcs is the lifetime count of Eq. 6 evaluations;
	// DegradedBrCalcs of those, how many substituted ≥1 fallback
	// contribution; DegradedAdmissions counts admission tests decided on
	// unknown neighbor state; LastBrDegraded flags the latest B_r.
	BrCalcs            uint64
	DegradedBrCalcs    uint64
	DegradedAdmissions uint64
	LastBrDegraded     bool
}

// Ledger snapshots the engine's accounting state atomically.
func (e *Engine) Ledger() Ledger {
	e.lock()
	defer e.unlock()
	l := Ledger{
		Capacity:           e.cfg.Capacity,
		Margin:             e.cfg.HandOffMargin,
		Degree:             e.cfg.Degree,
		Adaptive:           e.traits.Adaptive,
		Used:               e.used,
		Pledged:            e.pledged,
		Connections:        len(e.conns),
		LastBr:             e.lastBr,
		BrCalcs:            e.brCalcs,
		DegradedBrCalcs:    e.degradedBrCalcs,
		DegradedAdmissions: e.degradedAdmissions,
		LastBrDegraded:     e.lastBrDegraded,
	}
	if e.tc != nil {
		l.Test = e.tc.Test()
	}
	for i := range e.conns {
		c := &e.conns[i]
		l.SumBw += c.bw
		l.SumMin += c.min
		if l.BadConn == "" {
			switch {
			case c.min <= 0 || c.max < c.min:
				l.BadConn = fmt.Sprintf("conn %d: bad range [%d,%d]", c.id, c.min, c.max)
			case c.bw < c.min || c.bw > c.max:
				l.BadConn = fmt.Sprintf("conn %d: bw %d outside [%d,%d]", c.id, c.bw, c.min, c.max)
			case e.index[c.id] != i:
				l.BadConn = fmt.Sprintf("conn %d: index points at %d, stored at %d", c.id, e.index[c.id], i)
			}
		}
	}
	if len(e.index) != len(e.conns) && l.BadConn == "" {
		l.BadConn = fmt.Sprintf("index has %d entries for %d connections", len(e.index), len(e.conns))
	}
	return l
}
