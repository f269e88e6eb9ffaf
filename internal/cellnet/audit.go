package cellnet

import (
	"fmt"

	"cellqos/internal/stats"
)

// auditNow runs the full invariant audit against the network's current
// state (cfg.Audit must be non-nil). Per-engine ledger and counter
// checks delegate to the checker; the cross-layer conservation laws —
// which need the network's connection table — are assembled here:
//
//   - connection lifecycle: every live connection is registered in
//     exactly one engine, the one of its recorded cell. Together with
//     Σ engine connection counts == len(conns) that means no connection
//     leaked an engine entry on teardown and none is double-registered.
//   - pledge conservation: each cell's pledged pool equals the sum of
//     min-QoS bandwidth of live connections pledging there (MobSpec);
//     pledges released exactly once, never leaked past a teardown.
//   - wired conservation: backbone link usage equals the sum over live
//     paths of hops × min-QoS bandwidth; paths released exactly once.
func (n *Network) auditNow() {
	ck := n.cfg.Audit
	now := n.now()
	engineConns := 0
	var sys stats.Counters
	for _, c := range n.cells {
		l := c.engine.Ledger()
		ck.Engine(c.label, now, l)
		ck.Counters(c.label, now, c.counters)
		if !n.cfg.Faults.Enabled && (l.DegradedBrCalcs != 0 || l.DegradedAdmissions != 0) {
			// A fault-free in-process network can never lose a peer
			// exchange; any degraded-mode accounting here means an
			// ok=false path fired spuriously and the fallback policy is
			// silently distorting B_r.
			ck.Failf("degraded-accounting", c.label, now, fmt.Sprintf("%+v", l),
				"fault-free run recorded %d degraded B_r calcs / %d degraded admissions",
				l.DegradedBrCalcs, l.DegradedAdmissions)
		}
		engineConns += l.Connections
		sys.Add(&c.counters)
	}
	ck.Counters("system", now, sys)

	if engineConns != len(n.conns) {
		ck.Failf("connection-lifecycle", "system", now,
			fmt.Sprintf("engines=%d network=%d", engineConns, len(n.conns)),
			"engines hold %d connection entries, network tracks %d live connections",
			engineConns, len(n.conns))
	}
	pledgedWant := make([]int, len(n.cells))
	wiredWant := 0
	for id, conn := range n.conns {
		if _, _, _, ok := n.cells[conn.cell].engine.Connection(id); !ok {
			// With the count equality above, presence in the recorded cell
			// implies presence in exactly one cell.
			ck.Failf("connection-lifecycle", fmt.Sprintf("cell %d", conn.cell), now,
				fmt.Sprintf("conn %d bw=%d entered=%.6g", id, conn.bw, conn.enteredAt),
				"live connection %d is not registered in its cell's engine", id)
		}
		for _, pid := range conn.pledges {
			pledgedWant[pid] += conn.min
		}
		if conn.wpath.Valid() {
			wiredWant += len(conn.wpath.Links) * conn.min
		}
	}
	for i, c := range n.cells {
		if got := c.engine.PledgedBandwidth(); got != pledgedWant[i] {
			ck.Failf("pledge-conservation", c.label, now,
				fmt.Sprintf("pledged=%d expected=%d", got, pledgedWant[i]),
				"engine pledge pool %d BUs != %d BUs pledged by live connections", got, pledgedWant[i])
		}
	}
	if b := n.cfg.Backbone; b != nil {
		if got := b.Graph().TotalUsed(); got != wiredWant {
			ck.Failf("wired-conservation", "backbone", now,
				fmt.Sprintf("links=%d paths=%d", got, wiredWant),
				"backbone links carry %d BUs, live paths account for %d", got, wiredWant)
		}
	}
}
