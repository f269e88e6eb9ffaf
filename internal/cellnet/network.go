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
	"cellqos/internal/wired"
)

// Trace records a cell's control state over time (Figs. 10–11).
type Trace struct {
	// Test is T_est after each hand-off arrival.
	Test stats.Series
	// Br is the target reservation bandwidth after each recomputation.
	Br stats.Series
	// PHD is the cumulative hand-off dropping probability after each
	// hand-off arrival.
	PHD stats.Series
}

// cell bundles one base station's engine with its metrics.
type cell struct {
	id       topology.CellID
	engine   *core.Engine
	peers    core.Peers
	sched    sim.Scheduler // the cell's kernel shard (the whole kernel at 1 shard)
	counters stats.Counters
	hourly   stats.Hourly
	brTW     stats.TimeWeighted
	buTW     stats.TimeWeighted
	degTW    stats.TimeWeighted // degraded adaptive-QoS bandwidth
	// exchanges counts peer information exchanges initiated by this cell
	// (each is one request/response round trip on the signaling network).
	exchanges uint64
	trace     *Trace
	// label locates the cell in audit violations ("cell <id>"); set
	// once at construction, and only when auditing is configured, so
	// the per-event sweep formats nothing on its clean path.
	label string

	// Asynchronous-signaling state (Config.Sharding.Async); nil/zero in
	// the classic synchronous modes.
	rng     *rand.Rand    // per-cell stream: arrivals, class mix, lifetimes, retries
	mirror  []mirrorEntry // last known neighbor state, by local index (entry 0 unused)
	connSeq uint64        // per-cell connection counter (IDs: cell<<32 | seq)
	msgSeq  uint64        // per-cell message counter (mailbox ordering keys)
}

// connection is the network-level state of one mobile's connection.
type connection struct {
	id         core.ConnID
	bw         int
	cell       topology.CellID
	prevInCell topology.LocalIndex // local index (in cell's space) of the previous cell
	enteredAt  float64
	diesAt     float64
	path       mobility.Path
	wpath      wired.Path        // reserved backbone path (when a Backbone is configured)
	pledges    []topology.CellID // cells holding a MobSpec pledge for this connection
	min, max   int               // QoS range; rigid connections have min == max == bw
	class      core.ServiceClass // service class (voice = 0, video = streaming)
	// rng is the connection's private stream (async sharding only): the
	// mobility path draws per hop while the connection migrates across
	// shards, so the draws must follow the connection, not a cell or the
	// run. Nil in the classic synchronous modes, which share one stream.
	rng *rand.Rand
}

// Network is a runnable cellular-network simulation.
//
// In the classic synchronous modes a Network is single-threaded and
// confined to one goroutine: engines, counters, the event kernel and the
// RNG are all unsynchronized ("one Network per goroutine"). Concurrent
// sweeps (internal/runner) build one Network per scenario point from an
// independent Config; the only Config field that cannot be shared
// between Networks is the mutable Backbone pointer, which New claims via
// wired.Backbone.Attach.
//
// With Config.Sharding the cells are partitioned across the shards of an
// internal/sim/shard kernel. At zero signaling latency the shards merge
// serially — same semantics, same goldens. At positive latency the run
// switches to the asynchronous signaling model (see network_async.go)
// and the shards execute concurrently; each shard then only ever touches
// the cells and connections it owns, and Run/RunUntil/Snapshot remain
// single-goroutine entry points.
type Network struct {
	cfg    Config
	traits core.PolicyTraits // resolved admission-policy traits
	kernel sim.Kernel
	shk    *shard.Kernel        // non-nil when Sharding selects the sharded kernel
	part   *topology.Partition  // cell→shard ownership (nil with the single-heap kernel)
	shards []*shardState        // async mode only: per-shard ownership tables
	rng    *rand.Rand           // shared stream (nil in async mode)
	cells  []*cell
	conns  map[core.ConnID]*connection // synchronous modes only; async owns conns per shard
	nextID core.ConnID

	// Soft hand-off outcome counters (§7 CDMA extension).
	softSaved   uint64 // hand-offs completed within the overlap window
	softExpired uint64 // pending hand-offs dropped at window expiry

	// Fault-injection state (Config.Faults): a dedicated RNG stream so
	// the fault schedule never perturbs the traffic/mobility draws, and
	// the count of injected exchange failures.
	faultRng   *rand.Rand
	peerFaults uint64

	// specCache memoizes the MobSpec within-horizon cell set per start
	// cell (specOK marks computed entries — an empty spec is a valid
	// result). Topology and horizon are immutable for the life of a
	// Network, so the BFS runs once per cell per run and an admission
	// burst walks precomputed specs, paying only the pledge calls.
	specCache [][]topology.CellID
	specOK    []bool

	// barrierTick counts windowed-kernel barriers in the async model;
	// the cross-shard audit samples on it (see network_async.go).
	barrierTick uint64
}

// now returns the serial simulation clock. Valid in the synchronous
// modes (single-heap or serial merge), where the kernel clock is the
// current event time; async event code reads its shard clock instead.
func (n *Network) now() float64 { return n.kernel.Now() }

// New builds a network from a validated config.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backbone != nil {
		if err := cfg.Backbone.Attach(); err != nil {
			return nil, err
		}
	}
	n := &Network{cfg: cfg, traits: cfg.admissionTraits()}
	async := cfg.Sharding.Async()
	if !async {
		n.rng = rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))
		n.conns = make(map[core.ConnID]*connection)
	}
	if cfg.Faults.Enabled {
		n.faultRng = rand.New(rand.NewPCG(cfg.Seed, 0xfa17_fa17_fa17_fa17))
	}
	// Pick the event kernel. One shard at zero latency keeps the classic
	// single-heap Simulator; otherwise the cells are partitioned across a
	// sharded kernel — merged serially at zero latency (same semantics),
	// windowed in parallel under the async signaling model.
	nshards := cfg.Sharding.NumShards()
	var single *sim.Simulator
	if nshards == 1 && !async {
		single = sim.New()
		n.kernel = single
	} else {
		n.part = topology.NewPartition(cfg.Topology, nshards)
		n.shk = shard.New(shard.Config{Shards: nshards, Lookahead: cfg.Sharding.SignalingLatency})
		n.kernel = n.shk
	}
	num := cfg.Topology.NumCells()
	n.cells = make([]*cell, num)
	for i := 0; i < num; i++ {
		id := topology.CellID(i)
		c := &cell{id: id, engine: core.NewEngine(cfg.engineConfig(id))}
		if cfg.Audit != nil {
			c.label = fmt.Sprintf("cell %d", id)
		}
		if single != nil {
			c.sched = single
		} else {
			c.sched = n.shk.Shard(n.part.ShardOf(id))
		}
		if async {
			c.peers = &mirrorPeers{c: c}
			c.rng = rand.New(rand.NewPCG(cfg.Seed, cellStream(id)))
			c.mirror = make([]mirrorEntry, cfg.Topology.Degree(id)+1)
		} else {
			c.peers = &memPeers{n: n, c: c}
		}
		c.brTW.Set(0, c.engine.LastTargetReservation())
		c.buTW.Set(0, 0)
		n.cells[i] = c
	}
	for _, id := range cfg.TraceCells {
		gap := cfg.TraceMinGap
		n.cells[id].trace = &Trace{
			Test: stats.Series{MinGap: gap},
			Br:   stats.Series{MinGap: gap},
			PHD:  stats.Series{MinGap: gap},
		}
	}
	if async {
		n.startAsync()
		return n, nil
	}
	for _, c := range n.cells {
		n.scheduleNextArrival(c)
	}
	if n.traits.Adaptive && !math.IsInf(cfg.Estimation.Tint, 1) {
		// Periodically apply the §3.1 cache-deletion rule so long runs
		// don't accumulate out-of-date quadruplets in idle pairs.
		n.scheduleSweep(cfg.Estimation.Period)
	}
	if cfg.Audit != nil {
		// Invariant auditing at event boundaries: every event's state
		// mutations are complete when the hook fires, so any ledger drift
		// is pinned to the event that introduced it.
		n.kernel.AfterEvent(func() {
			if cfg.Audit.Sample(n.kernel.Fired()) {
				n.auditNow()
			}
		})
	}
	return n, nil
}

// scheduleSweep books a recurring estimation-cache eviction pass. The
// sweep touches every cell, which is only legal because the synchronous
// modes execute serially; the async model schedules per-shard sweeps.
func (n *Network) scheduleSweep(period float64) {
	n.cells[0].sched.MustAfter(period, func(sim.Scheduler) {
		t := n.now()
		for _, c := range n.cells {
			c.engine.SweepHistory(t)
		}
		n.scheduleSweep(period)
	})
}

// MustNew is New for configs known to be valid; it panics on error.
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Now returns the simulation clock.
func (n *Network) Now() float64 { return n.now() }

// Engine exposes a cell's engine for tests and diagnostics.
func (n *Network) Engine(id topology.CellID) *core.Engine { return n.cells[id].engine }

// ActiveConnections returns the number of live connections system-wide.
// In the async model this excludes hand-offs in flight between shards.
func (n *Network) ActiveConnections() int {
	if n.shards != nil {
		total := 0
		for _, st := range n.shards {
			total += len(st.conns)
		}
		return total
	}
	return len(n.conns)
}

// EventsFired returns the number of simulation events executed.
func (n *Network) EventsFired() uint64 { return n.kernel.Fired() }

// scheduleNextArrival books the cell's next Poisson new-connection
// request from the schedule.
func (n *Network) scheduleNextArrival(c *cell) {
	at, ok := traffic.NextArrival(n.rng, n.cfg.Schedule, n.now())
	if !ok {
		return // no load ever again
	}
	if _, err := c.sched.At(at, func(sim.Scheduler) {
		class := n.cfg.Mix.Sample(n.rng)
		min, max := class.Bandwidth, class.Bandwidth
		if n.cfg.AdaptiveQoS.Enabled && class == traffic.Video {
			min = n.cfg.AdaptiveQoS.VideoMinBUs
		}
		n.request(c, min, max, serviceClass(class), 1)
		n.scheduleNextArrival(c)
	}); err != nil {
		panic(err)
	}
}

// serviceClass maps the traffic mix onto admission service classes:
// voice is the highest priority, video the degradable streaming class.
func serviceClass(class traffic.Class) core.ServiceClass {
	if class == traffic.Video {
		return core.ClassStreaming
	}
	return core.ClassRealTime
}

// request runs the admission test for a new connection needing at least
// min and at most max BUs in cell c; nRet counts requests made so far by
// this user (for the retry model). Admission — and reservation — is on
// the minimum-QoS basis (§1).
func (n *Network) request(c *cell, min, max int, svc core.ServiceClass, nRet int) {
	now := n.now()
	d := c.engine.AdmitNewRequest(now, core.Request{Bandwidth: min, Class: svc}, c.peers)
	c.counters.RecordAdmissionTest(d.BrCalcs)
	admitted := d.Admitted
	var pledges []topology.CellID
	if admitted && n.traits.MobSpec {
		// Ref. [14]-style baseline: pledge the bandwidth in every cell of
		// the mobility specification, all-or-nothing.
		pledges, admitted = n.pledgeSpec(c.id, min)
	}
	var wpath wired.Path
	if admitted && n.cfg.Backbone != nil {
		// Wired-link reservation (§2/§7 extension): the backbone must
		// also carry the connection, or it blocks.
		wpath, admitted = n.cfg.Backbone.Connect(c.id, min)
		if !admitted && len(pledges) > 0 {
			// The MobSpec pledges were provisional on the whole admission:
			// a wired block means no connection, so roll them back.
			for _, id := range pledges {
				n.cells[id].engine.Unpledge(min)
			}
			pledges = nil
		}
	}
	c.counters.RecordRequest(!admitted)
	c.hourly.RecordRequest(now, !admitted)
	n.noteBr(c, now)
	if admitted {
		n.establish(c, min, max, svc, wpath, pledges)
		return
	}
	if n.cfg.Retry.ShouldRetry(n.rng, nRet) {
		c.sched.MustAfter(n.cfg.Retry.WaitSeconds, func(sim.Scheduler) {
			n.request(c, min, max, svc, nRet+1)
		})
	}
}

// pledgeSpec reserves bw in every cell within the MobSpec horizon of
// start, rolling back on the first refusal. The spec itself comes from
// the per-cell cache (mobSpec), so a burst of admissions in one cell
// repeats only the pledge calls, not the topology BFS.
func (n *Network) pledgeSpec(start topology.CellID, bw int) ([]topology.CellID, bool) {
	spec := n.mobSpec(start)
	for i, id := range spec {
		if !n.cells[id].engine.Pledge(bw) {
			for _, back := range spec[:i] {
				n.cells[back].engine.Unpledge(bw)
			}
			return nil, false
		}
	}
	if len(spec) == 0 {
		return nil, true
	}
	// The pledge list is per-connection mutable state (dropPledge and
	// hand-off re-pledges edit it in place): hand out a copy, never the
	// cached spec.
	return append([]topology.CellID(nil), spec...), true
}

// mobSpec returns the memoized within-horizon cell set for start.
func (n *Network) mobSpec(start topology.CellID) []topology.CellID {
	if n.specCache == nil {
		n.specCache = make([][]topology.CellID, len(n.cells))
		n.specOK = make([]bool, len(n.cells))
	}
	if !n.specOK[start] {
		h := n.cfg.MobSpecHorizon
		if h <= 0 {
			h = 2
		}
		n.specCache[start] = n.cfg.Topology.WithinHops(start, h)
		n.specOK[start] = true
	}
	return n.specCache[start]
}

// dropPledge releases the connection's pledge at one cell, if any.
func (n *Network) dropPledge(conn *connection, at topology.CellID) bool {
	for i, id := range conn.pledges {
		if id == at {
			n.cells[id].engine.Unpledge(conn.min)
			conn.pledges = append(conn.pledges[:i], conn.pledges[i+1:]...)
			return true
		}
	}
	return false
}

// releasePledges frees every remaining pledge of a dying connection.
func (n *Network) releasePledges(conn *connection) {
	for _, id := range conn.pledges {
		n.cells[id].engine.Unpledge(conn.min)
	}
	conn.pledges = nil
}

// establish creates an admitted connection in cell c.
func (n *Network) establish(c *cell, min, max int, svc core.ServiceClass, wpath wired.Path, pledges []topology.CellID) {
	now := n.now()
	n.nextID++
	conn := &connection{
		id:         n.nextID,
		bw:         min,
		min:        min,
		max:        max,
		class:      svc,
		cell:       c.id,
		prevInCell: topology.Self,
		enteredAt:  now,
		diesAt:     now + traffic.Lifetime(n.rng, n.cfg.MeanLifetime),
		path:       n.newPath(c.id),
		wpath:      wpath,
		pledges:    pledges,
	}
	n.conns[conn.id] = conn
	hop, ok := conn.path.NextHop()
	if min == max {
		c.engine.AddConnection(conn.id, core.ConnSpec{Min: min, Prev: topology.Self, Hint: n.hintFor(c.id, hop, ok), Class: svc}, now)
	} else {
		conn.bw = c.engine.AddConnection(conn.id, core.ConnSpec{Min: min, Max: max, Prev: topology.Self, Class: svc}, now)
	}
	n.noteBu(c, now)
	n.scheduleDeparture(conn, hop, ok)
}

// hintFor converts a known upcoming hop into a §7 direction hint when
// the scenario enables route-guidance information.
func (n *Network) hintFor(cur topology.CellID, hop mobility.Hop, ok bool) topology.LocalIndex {
	if !n.cfg.DirectionHints || !ok || hop.Next == topology.None {
		return core.NoHint
	}
	li, found := n.cfg.Topology.LocalOf(cur, hop.Next)
	if !found {
		return core.NoHint
	}
	return li
}

// newPath mints a movement path honoring the schedule's current speed
// range when the model supports it. A schedule that doesn't specify
// speeds (zero range, e.g. a bare traffic.Constant{Lambda: …}) defers to
// the model's own configured range.
func (n *Network) newPath(start topology.CellID) mobility.Path {
	if sa, ok := n.cfg.Mobility.(mobility.SpeedAware); ok {
		lo, hi := n.cfg.Schedule.Speed(n.now())
		if hi > 0 {
			return sa.NewPathWithSpeed(n.rng, start, mobility.SpeedRange{MinKmh: lo, MaxKmh: hi})
		}
	}
	return n.cfg.Mobility.NewPath(n.rng, start)
}

// scheduleDeparture books the single next event for a connection that
// just entered its current cell: either the boundary crossing or, when
// the connection dies first (or the mobile never moves), its natural
// end. The hop has already been drawn from the path (the engine may
// have consumed it as a direction hint).
func (n *Network) scheduleDeparture(conn *connection, hop mobility.Hop, ok bool) {
	now := n.now()
	sched := n.cells[conn.cell].sched
	if ok && !math.IsInf(hop.Sojourn, 1) && now+hop.Sojourn < conn.diesAt {
		sched.MustAfter(hop.Sojourn, func(sim.Scheduler) { n.onCrossing(conn.id, hop) })
		return
	}
	sched.MustAfter(conn.diesAt-now, func(sim.Scheduler) { n.onLifetimeEnd(conn.id) })
}

// onCrossing processes a mobile reaching its cell boundary.
func (n *Network) onCrossing(id core.ConnID, hop mobility.Hop) {
	conn, ok := n.conns[id]
	if !ok {
		panic(fmt.Sprintf("cellnet: crossing for dead connection %d", id))
	}
	now := n.now()
	from := n.cells[conn.cell]
	tSoj := now - conn.enteredAt

	if hop.Next == topology.None {
		// The mobile leaves the coverage area (open-line border).
		from.engine.RemoveConnection(id)
		n.reclaim(from, now)
		from.counters.Exited++
		n.releaseWired(conn)
		n.releasePledges(conn)
		delete(n.conns, id)
		return
	}

	to := n.cells[hop.Next]
	nextLocal, okLocal := n.cfg.Topology.LocalOf(from.id, to.id)
	if !okLocal {
		panic(fmt.Sprintf("cellnet: crossing %d→%d between non-neighbors", from.id, to.id))
	}
	// A MobSpec pledge at the destination converts into used bandwidth.
	n.dropPledge(conn, to.id)
	admitted := to.engine.AdmitHandOffRequest(now, core.Request{Bandwidth: conn.min, Class: conn.class}, to.peers).Admitted
	if !admitted && n.cfg.AdaptiveQoS.Enabled {
		// Adaptive QoS absorbs the hand-off by degrading existing
		// connections toward their minima (§1).
		admitted = to.engine.DowngradeToFit(conn.min)
		n.noteBu(to, now)
	}
	if admitted && n.cfg.Backbone != nil {
		// The backbone must re-route the wired path too, or the
		// hand-off drops despite wireless capacity.
		if wp, ok := n.cfg.Backbone.HandOff(conn.wpath, to.id, conn.min); ok {
			conn.wpath = wp
		} else {
			admitted = false
		}
	}

	// The departing cell observes the hand-off event (§3.1). Whether a
	// dropped hand-off still counts as a mobility observation is an
	// ablation toggle; the default records it.
	if admitted || !n.cfg.SkipDroppedDepartures {
		from.engine.RecordDeparture(predict.Quadruplet{
			Event: now, Prev: conn.prevInCell, Next: nextLocal, Sojourn: tSoj,
		})
	}

	if !admitted && n.cfg.SoftHandOff.Enabled {
		// §7 CDMA soft hand-off: hold both links for up to the overlap
		// window; the hand-off resolves (and is counted) later.
		deadline := math.Min(now+n.cfg.SoftHandOff.OverlapSeconds, conn.diesAt)
		n.scheduleSoftRetry(conn, from, to, deadline)
		return
	}

	n.resolveHandOff(conn, from, to, admitted)
	if !admitted {
		return
	}
	n.enterCell(conn, from, to)
}

// resolveHandOff books a hand-off outcome: counters, the T_est
// controller, traces, and teardown on a drop. The connection is removed
// from its old cell either way.
func (n *Network) resolveHandOff(conn *connection, from, to *cell, admitted bool) {
	now := n.now()
	to.counters.RecordHandOff(!admitted)
	to.hourly.RecordHandOff(now, !admitted)
	to.engine.NoteHandOffArrival(now, !admitted, to.peers)
	if to.trace != nil {
		to.trace.Test.Append(now, to.engine.Test())
		to.trace.PHD.Append(now, to.counters.PHD())
	}
	from.engine.RemoveConnection(conn.id)
	n.reclaim(from, now)
	if !admitted {
		n.releaseWired(conn)
		n.releasePledges(conn)
		delete(n.conns, conn.id) // hand-off drop: the connection dies
	}
}

// reclaim lets degraded adaptive-QoS connections grow back into freed
// bandwidth, then refreshes the cell's usage average.
func (n *Network) reclaim(c *cell, now float64) {
	if n.cfg.AdaptiveQoS.Enabled {
		c.engine.RedistributeFree()
	}
	n.noteBu(c, now)
}

// enterCell completes a successful hand-off: the connection joins the
// new cell and its next departure is scheduled.
func (n *Network) enterCell(conn *connection, from, to *cell) {
	now := n.now()
	prevLocal, _ := n.cfg.Topology.LocalOf(to.id, from.id)
	nextHop, okNext := conn.path.NextHop()
	if conn.min == conn.max {
		to.engine.AddConnection(conn.id, core.ConnSpec{Min: conn.min, Prev: prevLocal, Hint: n.hintFor(to.id, nextHop, okNext), Class: conn.class}, now)
	} else {
		conn.bw = to.engine.AddConnection(conn.id, core.ConnSpec{Min: conn.min, Max: conn.max, Prev: prevLocal, Class: conn.class}, now)
	}
	n.noteBu(to, now)
	conn.cell = to.id
	conn.prevInCell = prevLocal
	conn.enteredAt = now
	if n.traits.MobSpec {
		// Ref. [14] keeps the specification reserved for the whole
		// connection lifetime: the cell just left goes back on pledge
		// (the mobile may revisit it, e.g. by looping around a ring).
		// The bandwidth was freed this instant, so the pledge holds.
		if from.engine.Pledge(conn.min) {
			conn.pledges = append(conn.pledges, from.id)
		}
	}
	n.scheduleDeparture(conn, nextHop, okNext)
}

// scheduleSoftRetry books the next capacity re-test of a pending soft
// hand-off. While pending, the connection keeps its old-cell bandwidth
// (macrodiversity in the overlap region) and no other events exist for it.
func (n *Network) scheduleSoftRetry(conn *connection, from, to *cell, deadline float64) {
	now := n.now()
	next := math.Min(now+n.cfg.SoftHandOff.retryEvery(), deadline)
	n.cells[conn.cell].sched.MustAfter(next-now, func(sim.Scheduler) {
		n.onSoftRetry(conn.id, from, to, deadline)
	})
}

// onSoftRetry re-tests a pending soft hand-off.
func (n *Network) onSoftRetry(id core.ConnID, from, to *cell, deadline float64) {
	conn, ok := n.conns[id]
	if !ok {
		panic(fmt.Sprintf("cellnet: soft retry for dead connection %d", id))
	}
	now := n.now()
	if now >= conn.diesAt {
		// The call ended naturally while in the overlap region, still
		// served by the old cell.
		from.engine.RemoveConnection(id)
		n.reclaim(from, now)
		from.counters.Completed++
		n.releaseWired(conn)
		n.releasePledges(conn)
		delete(n.conns, id)
		return
	}
	// A MobSpec pledge at the destination converts into used bandwidth.
	n.dropPledge(conn, to.id)
	admitted := to.engine.AdmitHandOffRequest(now, core.Request{Bandwidth: conn.min, Class: conn.class}, to.peers).Admitted
	if !admitted && n.cfg.AdaptiveQoS.Enabled {
		admitted = to.engine.DowngradeToFit(conn.min)
		n.noteBu(to, now)
	}
	if admitted && n.cfg.Backbone != nil {
		if wp, wok := n.cfg.Backbone.HandOff(conn.wpath, to.id, conn.min); wok {
			conn.wpath = wp
		} else {
			admitted = false
		}
	}
	if admitted {
		n.softSaved++
		n.resolveHandOff(conn, from, to, true)
		n.enterCell(conn, from, to)
		return
	}
	if now >= deadline {
		n.softExpired++
		n.resolveHandOff(conn, from, to, false)
		return
	}
	n.scheduleSoftRetry(conn, from, to, deadline)
}

// onLifetimeEnd completes a connection naturally.
func (n *Network) onLifetimeEnd(id core.ConnID) {
	conn, ok := n.conns[id]
	if !ok {
		panic(fmt.Sprintf("cellnet: lifetime end for dead connection %d", id))
	}
	c := n.cells[conn.cell]
	c.engine.RemoveConnection(id)
	n.reclaim(c, n.now())
	c.counters.Completed++
	n.releaseWired(conn)
	n.releasePledges(conn)
	delete(n.conns, id)
}

// releaseWired frees a connection's backbone reservation, if any (the
// backbone always carries the minimum-QoS bandwidth).
func (n *Network) releaseWired(conn *connection) {
	if n.cfg.Backbone != nil && conn.wpath.Valid() {
		n.cfg.Backbone.Disconnect(conn.wpath, conn.min)
	}
}

// noteBu updates a cell's used-bandwidth time average (and, when
// adaptive QoS is on, the degradation average).
func (n *Network) noteBu(c *cell, now float64) {
	c.buTW.Set(now, float64(c.engine.UsedBandwidth()))
	if n.cfg.AdaptiveQoS.Enabled {
		c.degTW.Set(now, float64(c.engine.DegradedBandwidth()))
	}
}

// noteBr updates a cell's target-reservation time average and trace.
func (n *Network) noteBr(c *cell, now float64) {
	br := c.engine.LastTargetReservation()
	c.brTW.Set(now, br)
	if c.trace != nil {
		c.trace.Br.Append(now, br)
	}
}

// memPeers implements core.Peers by direct in-process calls to neighbor
// engines, counting one exchange per query (what a real deployment would
// send over the Fig. 1 signaling network). With Config.Faults enabled,
// each exchange independently fails with the configured probability —
// the in-process model of a lossy signaling plane — and the caller's
// engine degrades per its Fallback policy.
type memPeers struct {
	n *Network
	c *cell
}

func (p *memPeers) neighbor(li topology.LocalIndex) *cell {
	gid, ok := p.n.cfg.Topology.FromLocal(p.c.id, li)
	if !ok {
		panic(fmt.Sprintf("cellnet: bad local index %d for cell %d", li, p.c.id))
	}
	return p.n.cells[gid]
}

// faulted draws one Bernoulli trial from the dedicated fault stream.
func (p *memPeers) faulted() bool {
	if p.n.faultRng == nil {
		return false
	}
	if p.n.faultRng.Float64() >= p.n.cfg.Faults.Drop {
		return false
	}
	p.n.peerFaults++
	return true
}

// OutgoingReservation implements core.Peers (Eq. 5 at the neighbor).
func (p *memPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	p.c.exchanges++
	if p.faulted() {
		return 0, false
	}
	nb := p.neighbor(li)
	toward, ok := p.n.cfg.Topology.LocalOf(nb.id, p.c.id)
	if !ok {
		panic("cellnet: asymmetric neighborhood")
	}
	return nb.engine.OutgoingReservation(now, toward, test), true
}

// Snapshot implements core.Peers.
func (p *memPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	p.c.exchanges++
	if p.faulted() {
		return 0, 0, 0, false
	}
	nb := p.neighbor(li)
	return nb.engine.UsedBandwidth(), nb.engine.Capacity(), nb.engine.LastTargetReservation(), true
}

// RecomputeReservation implements core.Peers: the neighbor recomputes
// its own B_r (Eq. 6) with its own T_est and peers.
func (p *memPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	p.c.exchanges++
	if p.faulted() {
		return 0, 0, 0, false
	}
	nb := p.neighbor(li)
	br := nb.engine.ComputeTargetReservation(now, nb.peers)
	p.n.noteBr(nb, now)
	return nb.engine.UsedBandwidth(), nb.engine.Capacity(), br, true
}

// MaxSojourn implements core.Peers.
func (p *memPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	p.c.exchanges++
	if p.faulted() {
		return 0, false
	}
	return p.neighbor(li).engine.MaxSojourn(now), true
}
