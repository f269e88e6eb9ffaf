package cellnet

import (
	"fmt"
	"math"
	"math/rand/v2"

	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/predict"
	"cellqos/internal/sim"
	"cellqos/internal/sim/shard"
	"cellqos/internal/stats"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// This file implements the asynchronous signaling model selected by
// Config.Sharding.SignalingLatency > 0: the metro-scale mode where one
// run executes across all kernel shards concurrently.
//
// The synchronous model cannot be parallelized bit-exactly — it consumes
// one shared RNG stream in global event order and queries neighbor
// engines with zero latency. The async model replaces both with
// constructions whose results are independent of the shard count:
//
//   - Randomness: each cell owns a PCG stream (arrivals, class mix,
//     lifetimes, retries) and each connection owns a PCG stream seeded
//     from its ID (mobility path draws, which happen hop by hop as the
//     connection migrates across shards). Streams are keyed by cell and
//     connection IDs, never by shard.
//   - Cross-cell interaction: every hand-off and every peer-state
//     exchange travels as a mailbox message (shard.Shard.Send) with the
//     uniform one-way SignalingLatency. Messages are delivered at
//     window barriers ordered by (time, source cell, per-cell sequence)
//     — all shard-count independent.
//   - Peer state: instead of synchronous queries, every ExchangePeriod
//     each cell sends a query to each neighbor (arriving one latency
//     later); the neighbor evaluates Eq. 5 toward the asker plus its
//     snapshot state and replies (one more latency). Replies land in
//     the asker's mirror, which then serves core.Peers reads locally.
//     Until the first reply arrives a neighbor reads as unreachable and
//     the engine's Fallback policy applies — the same degradation
//     machinery the fault-injection mode exercises, now modeling
//     information delay instead of loss.
//
// Same-time events on different cells are safe to reorder: they either
// touch disjoint per-cell state or interact only through the keyed
// mailbox. That, plus the kernel's deterministic merge, is the whole
// determinism argument (DESIGN.md §13).

// cellStream derives cell id's RNG stream selector (splitmix-style odd
// multiplier keeps streams well separated for adjacent IDs).
func cellStream(id topology.CellID) uint64 {
	return 0x9e3779b97f4a7c15 ^ (uint64(id)+1)*0xbf58476d1ce4e5b9
}

// connStream derives a connection's RNG stream selector from its
// shard-count-independent ID.
func connStream(id core.ConnID) uint64 {
	return 0x2545f4914f6cdd1d ^ (uint64(id)+1)*0x94d049bb133111eb
}

// mirrorEntry is one neighbor's last replied state.
type mirrorEntry struct {
	ok         bool    // a reply has arrived
	outgoing   float64 // Eq. 5 contribution toward this cell, at reply time
	used, cap  int
	lastBr     float64
	maxSojourn float64
}

// mirrorPeers serves core.Peers from the cell's mirror: reads are local
// and immediate; freshness is bounded by ExchangePeriod + 2·latency.
// The now/test arguments are ignored — they were fixed when the mirror
// entry was computed, which is exactly the staleness the model is about.
type mirrorPeers struct{ c *cell }

func (p *mirrorPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	e := p.c.mirror[li]
	return e.outgoing, e.ok
}

func (p *mirrorPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	e := p.c.mirror[li]
	return e.used, e.cap, e.lastBr, e.ok
}

func (p *mirrorPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	// A delayed plane cannot force a synchronous recompute; the last
	// replied B_r stands in. AC2/AC3 therefore see Exchange-period-old
	// neighbor reservations, which is the point of the model.
	e := p.c.mirror[li]
	return e.used, e.cap, e.lastBr, e.ok
}

func (p *mirrorPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	e := p.c.mirror[li]
	return e.maxSojourn, e.ok
}

// shardState is one shard's ownership table: the cells it hosts and the
// connections currently resident in them. Only events executing on the
// shard touch it; the coordinator reads it at barriers and between runs.
type shardState struct {
	idx   int
	sh    *shard.Shard
	cells []*cell // owned cells, ascending ID
	conns map[core.ConnID]*connection

	// Single-writer lifecycle counters for the barrier conservation
	// audit: births/deaths of connections on this shard, and hand-off
	// messages sent to/received from the mailbox.
	births, deaths uint64
	sentHO, recvHO uint64
}

// send books a mailbox message from cell c with the model's uniform
// signaling latency and a (source cell, per-cell sequence) ordering key.
func (n *Network) send(c *cell, dstCell topology.CellID, fn sim.Event) {
	c.msgSeq++
	key := uint64(c.id)<<32 | (c.msgSeq & 0xffffffff)
	at := c.sched.Now() + n.cfg.Sharding.SignalingLatency
	c.sched.(*shard.Shard).Send(n.part.ShardOf(dstCell), at, key, fn)
}

// startAsync finishes construction for the async model: ownership
// tables, initial arrivals, per-shard history sweeps, peer-exchange
// rounds, and the barrier audit.
func (n *Network) startAsync() {
	n.shards = make([]*shardState, n.shk.NumShards())
	for s := range n.shards {
		st := &shardState{idx: s, sh: n.shk.Shard(s), conns: make(map[core.ConnID]*connection)}
		for _, id := range n.part.Cells(s) {
			st.cells = append(st.cells, n.cells[id])
		}
		n.shards[s] = st
	}
	usesPeers := n.traits.UsesPeers
	for _, st := range n.shards {
		for _, c := range st.cells {
			n.scheduleNextArrivalAsync(st, c)
		}
		if n.traits.Adaptive && !math.IsInf(n.cfg.Estimation.Tint, 1) {
			n.scheduleShardSweep(st, n.cfg.Estimation.Period)
		}
		if usesPeers {
			n.scheduleExchange(st, n.cfg.Sharding.exchangeEvery())
		}
	}
	if n.cfg.Audit != nil {
		n.shk.AtBarrier(func(now float64) {
			n.barrierTick++
			if n.cfg.Audit.Sample(n.barrierTick) {
				n.auditAsyncNow(now)
			}
		})
	}
}

// scheduleNextArrivalAsync books cell c's next Poisson new-connection
// request from its own stream.
func (n *Network) scheduleNextArrivalAsync(st *shardState, c *cell) {
	at, ok := traffic.NextArrival(c.rng, n.cfg.Schedule, c.sched.Now())
	if !ok {
		return // no load ever again
	}
	if _, err := c.sched.At(at, func(sim.Scheduler) {
		class := n.cfg.Mix.Sample(c.rng)
		min, max := class.Bandwidth, class.Bandwidth
		if n.cfg.AdaptiveQoS.Enabled && class == traffic.Video {
			min = n.cfg.AdaptiveQoS.VideoMinBUs
		}
		n.requestAsync(st, c, min, max, serviceClass(class), 1)
		n.scheduleNextArrivalAsync(st, c)
	}); err != nil {
		panic(err)
	}
}

// requestAsync runs the admission test for a new connection in cell c.
// Reservation state of neighbors comes from the mirror, so the test is
// local and immediate; only its inputs are delayed.
func (n *Network) requestAsync(st *shardState, c *cell, min, max int, svc core.ServiceClass, nRet int) {
	now := c.sched.Now()
	d := c.engine.AdmitNewRequest(now, core.Request{Bandwidth: min, Class: svc}, c.peers)
	c.counters.RecordAdmissionTest(d.BrCalcs)
	admitted := d.Admitted
	c.counters.RecordRequest(!admitted)
	c.hourly.RecordRequest(now, !admitted)
	n.noteBr(c, now)
	if admitted {
		n.establishAsync(st, c, min, max, svc, now)
		return
	}
	if n.cfg.Retry.ShouldRetry(c.rng, nRet) {
		c.sched.MustAfter(n.cfg.Retry.WaitSeconds, func(sim.Scheduler) {
			n.requestAsync(st, c, min, max, svc, nRet+1)
		})
	}
}

// establishAsync creates an admitted connection in cell c with a
// shard-count-independent ID and its own mobility stream.
func (n *Network) establishAsync(st *shardState, c *cell, min, max int, svc core.ServiceClass, now float64) {
	c.connSeq++
	id := core.ConnID(uint64(c.id)<<32 | (c.connSeq & 0xffffffff))
	conn := &connection{
		id:         id,
		bw:         min,
		min:        min,
		max:        max,
		class:      svc,
		cell:       c.id,
		prevInCell: topology.Self,
		enteredAt:  now,
		diesAt:     now + traffic.Lifetime(c.rng, n.cfg.MeanLifetime),
		rng:        rand.New(rand.NewPCG(n.cfg.Seed, connStream(id))),
	}
	conn.path = n.newPathFrom(conn.rng, c.id, now)
	st.conns[id] = conn
	st.births++
	hop, ok := conn.path.NextHop()
	if min == max {
		c.engine.AddConnection(id, core.ConnSpec{Min: min, Prev: topology.Self, Hint: n.hintFor(c.id, hop, ok), Class: svc}, now)
	} else {
		conn.bw = c.engine.AddConnection(id, core.ConnSpec{Min: min, Max: max, Prev: topology.Self, Class: svc}, now)
	}
	n.noteBu(c, now)
	n.scheduleDepartureAsync(st, conn, hop, ok)
}

// newPathFrom is newPath against an explicit stream and clock.
func (n *Network) newPathFrom(rng *rand.Rand, start topology.CellID, now float64) mobility.Path {
	if sa, ok := n.cfg.Mobility.(mobility.SpeedAware); ok {
		lo, hi := n.cfg.Schedule.Speed(now)
		if hi > 0 {
			return sa.NewPathWithSpeed(rng, start, mobility.SpeedRange{MinKmh: lo, MaxKmh: hi})
		}
	}
	return n.cfg.Mobility.NewPath(rng, start)
}

// scheduleDepartureAsync books the connection's next event on the shard
// owning its current cell. A connection can arrive from a hand-off with
// its lifetime already expired (it died in transit); the remaining
// lifetime clamps to zero and the completion fires immediately.
func (n *Network) scheduleDepartureAsync(st *shardState, conn *connection, hop mobility.Hop, ok bool) {
	c := n.cells[conn.cell]
	now := c.sched.Now()
	if ok && !math.IsInf(hop.Sojourn, 1) && now+hop.Sojourn < conn.diesAt {
		c.sched.MustAfter(hop.Sojourn, func(sim.Scheduler) { n.onCrossingAsync(st, conn.id, hop) })
		return
	}
	d := conn.diesAt - now
	if d < 0 {
		d = 0
	}
	c.sched.MustAfter(d, func(sim.Scheduler) { n.onLifetimeEndAsync(st, conn.id) })
}

// onCrossingAsync processes a mobile reaching its cell boundary: the
// departing cell releases and records immediately; the connection then
// travels to the destination cell as a mailbox message and the admission
// outcome is decided there, one signaling latency later.
func (n *Network) onCrossingAsync(st *shardState, id core.ConnID, hop mobility.Hop) {
	conn, ok := st.conns[id]
	if !ok {
		panic(fmt.Sprintf("cellnet: crossing for dead connection %d", id))
	}
	from := n.cells[conn.cell]
	now := from.sched.Now()
	tSoj := now - conn.enteredAt

	if hop.Next == topology.None {
		from.engine.RemoveConnection(id)
		n.reclaim(from, now)
		from.counters.Exited++
		st.deaths++
		delete(st.conns, id)
		return
	}

	nextLocal, okLocal := n.cfg.Topology.LocalOf(from.id, hop.Next)
	if !okLocal {
		panic(fmt.Sprintf("cellnet: crossing %d→%d between non-neighbors", from.id, hop.Next))
	}
	from.engine.RemoveConnection(id)
	n.reclaim(from, now)
	// The movement is always recorded: with a delayed control plane the
	// departing cell cannot know the remote admission outcome (Config
	// validation rejects SkipDroppedDepartures in this mode).
	from.engine.RecordDeparture(predict.Quadruplet{
		Event: now, Prev: conn.prevInCell, Next: nextLocal, Sojourn: tSoj,
	})
	delete(st.conns, id)
	st.sentHO++
	fromID, toID := from.id, hop.Next
	dstState := n.shards[n.part.ShardOf(toID)]
	n.send(from, toID, func(sim.Scheduler) {
		n.onHandOffArrive(dstState, conn, fromID, toID)
	})
}

// onHandOffArrive processes a hand-off message at the destination cell.
func (n *Network) onHandOffArrive(st *shardState, conn *connection, fromID, toID topology.CellID) {
	to := n.cells[toID]
	now := to.sched.Now()
	st.recvHO++
	admitted := to.engine.AdmitHandOffRequest(now, core.Request{Bandwidth: conn.min, Class: conn.class}, to.peers).Admitted
	if !admitted && n.cfg.AdaptiveQoS.Enabled {
		admitted = to.engine.DowngradeToFit(conn.min)
		n.noteBu(to, now)
	}
	to.counters.RecordHandOff(!admitted)
	to.hourly.RecordHandOff(now, !admitted)
	to.engine.NoteHandOffArrival(now, !admitted, to.peers)
	if to.trace != nil {
		to.trace.Test.Append(now, to.engine.Test())
		to.trace.PHD.Append(now, to.counters.PHD())
	}
	if !admitted {
		st.deaths++ // hand-off drop: the connection dies in transit
		return
	}
	prevLocal, _ := n.cfg.Topology.LocalOf(toID, fromID)
	nextHop, okNext := conn.path.NextHop()
	if conn.min == conn.max {
		to.engine.AddConnection(conn.id, core.ConnSpec{Min: conn.min, Prev: prevLocal, Hint: n.hintFor(toID, nextHop, okNext), Class: conn.class}, now)
	} else {
		conn.bw = to.engine.AddConnection(conn.id, core.ConnSpec{Min: conn.min, Max: conn.max, Prev: prevLocal, Class: conn.class}, now)
	}
	n.noteBu(to, now)
	conn.cell = toID
	conn.prevInCell = prevLocal
	conn.enteredAt = now
	st.conns[conn.id] = conn
	n.scheduleDepartureAsync(st, conn, nextHop, okNext)
}

// onLifetimeEndAsync completes a connection naturally.
func (n *Network) onLifetimeEndAsync(st *shardState, id core.ConnID) {
	conn, ok := st.conns[id]
	if !ok {
		panic(fmt.Sprintf("cellnet: lifetime end for dead connection %d", id))
	}
	c := n.cells[conn.cell]
	c.engine.RemoveConnection(id)
	n.reclaim(c, c.sched.Now())
	c.counters.Completed++
	st.deaths++
	delete(st.conns, id)
}

// scheduleShardSweep books the §3.1 cache-deletion pass over this
// shard's cells only.
func (n *Network) scheduleShardSweep(st *shardState, period float64) {
	st.sh.MustAfter(period, func(sim.Scheduler) {
		t := st.sh.Now()
		for _, c := range st.cells {
			c.engine.SweepHistory(t)
		}
		n.scheduleShardSweep(st, period)
	})
}

// scheduleExchange books the shard's next peer-exchange round: each
// owned cell queries each neighbor. A round is one event per shard, not
// per cell — rounds across shards share a timestamp, which is safe
// because each cell's part touches only that cell plus the mailbox.
func (n *Network) scheduleExchange(st *shardState, period float64) {
	st.sh.MustAfter(period, func(sim.Scheduler) {
		now := st.sh.Now()
		for _, c := range st.cells {
			n.exchangeCell(c, now)
		}
		n.scheduleExchange(st, period)
	})
}

// exchangeCell queries every neighbor of c for the round. The neighbor
// answers with its Eq. 5 contribution toward c (evaluated with c's
// T_est as of the query) and its snapshot state; the reply lands in c's
// mirror two latencies after now.
//
// The round's queries are batched into one mailbox message per
// destination shard instead of one per neighbor: the per-neighbor
// onPeerQuery calls touch disjoint neighbor state and previously
// executed back-to-back anyway (consecutive per-cell keys at one
// timestamp), so executing them in local-index order inside a single
// delivery preserves the exact event order while cutting mailbox
// traffic per exchange round from degree messages to the number of
// neighboring shards. Exchange accounting stays per query — Exchanges
// counts information exchanges, not transport messages.
func (n *Network) exchangeCell(c *cell, now float64) {
	test := c.engine.Test()
	deg := n.cfg.Topology.Degree(c.id)
	type query struct {
		li   topology.LocalIndex
		nbID topology.CellID
	}
	type bundle struct {
		shard   int
		queries []query
	}
	var bundles []bundle
	for i := 1; i <= deg; i++ {
		li := topology.LocalIndex(i)
		nbID, ok := n.cfg.Topology.FromLocal(c.id, li)
		if !ok {
			panic(fmt.Sprintf("cellnet: bad local index %d for cell %d", li, c.id))
		}
		c.exchanges++
		s := n.part.ShardOf(nbID)
		found := false
		for bi := range bundles {
			if bundles[bi].shard == s {
				bundles[bi].queries = append(bundles[bi].queries, query{li, nbID})
				found = true
				break
			}
		}
		if !found {
			bundles = append(bundles, bundle{shard: s, queries: []query{{li, nbID}}})
		}
	}
	srcID := c.id
	for _, b := range bundles {
		qs := b.queries
		n.send(c, qs[0].nbID, func(sim.Scheduler) {
			for _, q := range qs {
				n.onPeerQuery(srcID, q.nbID, q.li, test)
			}
		})
	}
}

// onPeerQuery answers a peer-state query at the neighbor and mails the
// reply back to the asker.
func (n *Network) onPeerQuery(srcID, nbID topology.CellID, liAtSrc topology.LocalIndex, test float64) {
	nb := n.cells[nbID]
	now := nb.sched.Now()
	toward, ok := n.cfg.Topology.LocalOf(nbID, srcID)
	if !ok {
		panic("cellnet: asymmetric neighborhood")
	}
	e := mirrorEntry{
		ok:         true,
		outgoing:   nb.engine.OutgoingReservation(now, toward, test),
		used:       nb.engine.UsedBandwidth(),
		cap:        nb.engine.Capacity(),
		lastBr:     nb.engine.LastTargetReservation(),
		maxSojourn: nb.engine.MaxSojourn(now),
	}
	n.send(nb, srcID, func(sim.Scheduler) {
		n.cells[srcID].mirror[liAtSrc] = e
	})
}

// auditAsyncNow is the cross-shard conservation sweep, run at window
// barriers (all shards quiescent, outboxes delivered). On top of the
// per-cell ledger/counter checks it verifies shard ownership and the
// hand-off conservation law: connections born minus connections dead
// equals connections resident in engines plus hand-offs still in the
// mailbox. The synchronous fault-free "no degraded accounting" check
// does not apply here — before a cell's first exchange reply its
// neighbors legitimately read as unreachable.
func (n *Network) auditAsyncNow(now float64) {
	ck := n.cfg.Audit
	engineConns := 0
	var sys stats.Counters
	for _, c := range n.cells {
		l := c.engine.Ledger()
		ck.Engine(c.label, now, l)
		ck.Counters(c.label, now, c.counters)
		engineConns += l.Connections
		sys.Add(&c.counters)
	}
	ck.Counters("system", now, sys)

	live := 0
	var births, deaths, sent, recv uint64
	for _, st := range n.shards {
		for id, conn := range st.conns {
			if _, _, _, ok := n.cells[conn.cell].engine.Connection(id); !ok {
				ck.Failf("connection-lifecycle", fmt.Sprintf("shard %d", st.idx), now,
					fmt.Sprintf("conn %d cell=%d", id, conn.cell),
					"live connection %d is not registered in its cell's engine", id)
			}
			if n.part.ShardOf(conn.cell) != st.idx {
				ck.Failf("shard-ownership", fmt.Sprintf("shard %d", st.idx), now,
					fmt.Sprintf("conn %d cell=%d", id, conn.cell),
					"connection %d resides in cell %d owned by shard %d, tracked by shard %d",
					id, conn.cell, n.part.ShardOf(conn.cell), st.idx)
			}
		}
		live += len(st.conns)
		births += st.births
		deaths += st.deaths
		sent += st.sentHO
		recv += st.recvHO
	}
	if recv > sent {
		ck.Failf("handoff-conservation", "system", now,
			fmt.Sprintf("sent=%d recv=%d", sent, recv),
			"more hand-off messages received (%d) than sent (%d)", recv, sent)
	}
	inFlight := int(sent - recv)
	if engineConns != live {
		ck.Failf("connection-lifecycle", "system", now,
			fmt.Sprintf("engines=%d shards=%d", engineConns, live),
			"engines hold %d connection entries, shard tables track %d", engineConns, live)
	}
	if int(births)-int(deaths) != live+inFlight {
		ck.Failf("handoff-conservation", "system", now,
			fmt.Sprintf("births=%d deaths=%d live=%d inflight=%d", births, deaths, live, inFlight),
			"conservation broken: %d born - %d dead != %d resident + %d in flight",
			births, deaths, live, inFlight)
	}
}
