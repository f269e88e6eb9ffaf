package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/service"
	"cellqos/internal/topology"
)

// serve: a service.Server over a 10-cell ring of AC3 engines, closed
// loop (one event at a time, flat out), restored from a checkpoint an
// untimed warm-up server wrote with the same seed. It makes three
// estimator writes per admission, so predict dominates, and it runs
// no event kernel.

const (
	serveCells    = 10
	serveStep     = 0.05 // simulated seconds per served event
	heapPollEvery = 1024 // served events between heap samples
	serveSetups   = 9    // set-ups per repetition
)

var serveWorkload = &workload{
	name: "serve",
	scales: map[string]scale{
		"full":  {warm: 20000, timed: 80000},
		"short": {warm: 4000, timed: 4000},
	},
	prepare: warmServe,
	rep:     runServe,
}

// buildServeCells builds the ring of engines as bsnet -serve does,
// wired through the benchmark's own peer mesh.
func buildServeCells(pol core.AdmissionPolicy, log *spanLog) []service.Cell {
	top := topology.Ring(serveCells)
	engines := make([]*core.Engine, serveCells)
	for i := range engines {
		engines[i] = core.NewEngine(core.Config{
			Capacity: 100, Degree: top.Degree(topology.CellID(i)), Admission: pol,
			PHDTarget: 0.01, TStart: 1,
			Estimation: predict.Config{Tint: math.Inf(1), NQuad: 100},
			Lock:       &sync.Mutex{},
		})
	}
	peers := make([]*meshPeers, serveCells)
	for i := range peers {
		peers[i] = &meshPeers{top: top, id: topology.CellID(i), engines: engines, peers: peers, log: log}
	}
	cells := make([]service.Cell, serveCells)
	for i := range cells {
		cells[i] = service.Cell{Engine: engines[i], Peers: peers[i]}
	}
	return cells
}

// serveConfig is bsnet -serve's drive with admissions inline, no pace
// and no gate, checkpointing only at shutdown.
func serveConfig(cells []service.Cell, ck *service.Checkpointer, seed uint64) service.Config {
	return service.Config{
		Cells:        cells,
		Checkpointer: ck,
		Seed:         seed,
		NewCallEvery: 4,
		CallHold:     200,
	}
}

// warmServe runs the untimed warm-up server once per run and keeps the
// checkpoint it wrote; every repetition restores a copy of it.
func warmServe(sc scale, seed uint64, env *runEnv) error {
	dir := filepath.Join(env.dir, "serve-warm")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ck, err := service.NewCheckpointer(dir)
	if err != nil {
		return err
	}
	pol, err := newTimedPolicy("AC3", newLogSet(env.epoch, false, 0, true))
	if err != nil {
		return err
	}
	srv := service.New(serveConfig(buildServeCells(pol, nil), ck, seed))
	srv.SetTime(&stepTime{next: 0, step: serveStep})
	rep := srv.Serve(uint64(sc.warm), nil)
	if rep.ExitCode != service.ExitClean {
		return fmt.Errorf("serve warm-up exited %d: %s", rep.ExitCode, rep.Err)
	}
	env.serveCheckpoint, err = os.ReadFile(ck.CurrentPath())
	return err
}

func runServe(sc scale, seed uint64, traced bool, env *runEnv) (*repResult, error) {
	dir, err := os.MkdirTemp(env.dir, "serve-state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ck, err := service.NewCheckpointer(dir)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(ck.CurrentPath(), env.serveCheckpoint, 0o644); err != nil {
		return nil, err
	}

	// Set-up takes about a millisecond, so it is repeated and the
	// median reported; the last server built is the one timed.
	var (
		logs             *logSet
		cells            []service.Cell
		srv              *service.Server
		info             service.RestoreInfo
		setups, restores []float64
	)
	for i := 0; i < serveSetups; i++ {
		logs = newLogSet(env.epoch, traced, int(sc.timed)/4+1, true)
		pol, err := newTimedPolicy("AC3", logs)
		if err != nil {
			return nil, err
		}
		elapsed := setupClock()
		cells = buildServeCells(pol, logs.shared)
		srv = service.New(serveConfig(cells, ck, seed))
		restoreTime := stopwatch()
		if info, err = srv.Restore(); err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		restores = append(restores, restoreTime().Seconds())
		setups = append(setups, elapsed().Seconds())
		if !info.Found || info.Source != "current" {
			return nil, fmt.Errorf("restore found=%v source=%q, want the warm-up checkpoint", info.Found, info.Source)
		}
	}

	engines := make([]*core.Engine, len(cells))
	for i, c := range cells {
		engines[i] = c.Engine
	}
	before := logs.counts()
	eq5Before := readEq5(engines)
	recBefore := recorded(engines, info.SimNow)

	var rep *service.Report
	seg, err := timeSegment(traced, func(h *heapSampler) error {
		srv.SetTime(&stepTime{next: info.SimNow, step: serveStep, heap: h})
		rep = srv.Serve(uint64(sc.timed), nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	dc := logs.counts().minus(before)
	decided := rep.Admitted + rep.Blocked
	switch {
	case rep.ExitCode != service.ExitClean:
		return nil, fmt.Errorf("server exited %d, want %d (clean): %s", rep.ExitCode, service.ExitClean, rep.Err)
	case rep.Events != uint64(sc.timed):
		return nil, fmt.Errorf("served %d events, budget %v", rep.Events, sc.timed)
	case rep.Offered != rep.Admitted+rep.Blocked+rep.Shed:
		return nil, fmt.Errorf("conservation: offered %d != admitted %d + blocked %d + shed %d",
			rep.Offered, rep.Admitted, rep.Blocked, rep.Shed)
	case dc.newCount != decided || dc.newDenied != rep.Blocked:
		return nil, fmt.Errorf("conservation: admitted %d + blocked %d, but the policy decided %d (%d denied)",
			rep.Admitted, rep.Blocked, dc.newCount, dc.newDenied)
	case dc.handOffCount != 0:
		return nil, fmt.Errorf("the server has no hand-off path, yet the policy decided %d hand-offs", dc.handOffCount)
	}
	ckInfo, err := os.Stat(ck.CurrentPath())
	if err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}

	pcb := ratio(float64(rep.Blocked), float64(rep.Offered))
	d := newDigester()
	d.u64("events", rep.Events)
	d.u64("offered", rep.Offered)
	d.u64("admitted", rep.Admitted)
	d.u64("blocked", rep.Blocked)
	d.u64("shed", rep.Shed)
	d.u64("handoffs", rep.HandOffs)
	d.u64("completions", rep.Completions)
	d.u64("brcalcs", rep.BrCalcs)
	d.u64("degraded", rep.Degraded)
	d.u64("checkpoints", rep.Checkpoints)
	d.f64("resume", rep.ResumeSimNow)
	d.f64("final", rep.FinalSimNow)
	d.f64("pcb", pcb)
	for _, e := range engines {
		d.f64("br", e.LastTargetReservation())
		d.u64("bu", uint64(e.UsedBandwidth()))
	}

	eq5 := readEq5(engines).minus(eq5Before)
	layer := map[string]float64{
		"service.restore_s":             median(restores),
		"service.checkpoint_bytes":      float64(ckInfo.Size()),
		"core.br_calcs_per_admission":   ratio(float64(rep.BrCalcs), float64(decided)),
		"predict.records_per_admission": ratio(float64(recorded(engines, rep.FinalSimNow)-recBefore), float64(decided)),
	}
	eq5.into(layer, rep.Events)
	return &repResult{
		setup:  time.Duration(median(setups) * 1e9),
		seg:    seg,
		events: rep.Events,
		pcb:    pcb,
		phd:    math.NaN(),
		digest: d.sum(),
		logs:   logs,
		layer:  layer,
	}, nil
}

// stepTime is the benchmark's service.TimeSource: the i-th call
// returns start + i·step. The server calls it once per event from its
// loop goroutine (admissions run inline), so it also samples the live
// heap every heapPollEvery events.
type stepTime struct {
	next, step float64
	calls      uint64
	heap       *heapSampler
}

var _ service.TimeSource = (*stepTime)(nil)

func (s *stepTime) SimNow() float64 {
	t := s.next
	s.next += s.step
	s.calls++
	if s.heap != nil && s.calls%heapPollEvery == 0 {
		s.heap.poll()
	}
	return t
}

// meshPeers is the benchmark's in-process core.Peers: direct calls
// between the engines of one ring. With a span log it records each
// call as a span, whose parent is the decision (or recomputation)
// that caused it.
type meshPeers struct {
	top     *topology.Topology
	id      topology.CellID
	engines []*core.Engine
	peers   []*meshPeers
	log     *spanLog // nil: no spans (the warm-up server)
}

// neighbor resolves local index li to the neighbor's engine, its id,
// and this cell's local index as seen from there.
func (m *meshPeers) neighbor(li topology.LocalIndex) (*core.Engine, topology.CellID, topology.LocalIndex) {
	gid, ok := m.top.FromLocal(m.id, li)
	if !ok {
		panic(fmt.Sprintf("cellbench: bad local index %d for cell %d", li, m.id))
	}
	toward, ok := m.top.LocalOf(gid, m.id)
	if !ok {
		panic("cellbench: asymmetric neighborhood")
	}
	return m.engines[gid], gid, toward
}

func (m *meshPeers) begin(name uint8) int32 {
	if m.log == nil {
		return -1
	}
	return m.log.begin(name)
}

func (m *meshPeers) finish(id int32) {
	if m.log != nil {
		m.log.finish(id)
	}
}

func (m *meshPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	sp := m.begin(spanOutgoing)
	nb, _, toward := m.neighbor(li)
	v := nb.OutgoingReservation(now, toward, test)
	m.finish(sp)
	return v, true
}

func (m *meshPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	sp := m.begin(spanSnapshot)
	nb, _, _ := m.neighbor(li)
	used, capacity, br := nb.UsedBandwidth(), nb.Capacity(), nb.LastTargetReservation()
	m.finish(sp)
	return used, capacity, br, true
}

func (m *meshPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	sp := m.begin(spanRecompute)
	nb, gid, _ := m.neighbor(li)
	br := nb.ComputeTargetReservation(now, m.peers[gid])
	used, capacity := nb.UsedBandwidth(), nb.Capacity()
	m.finish(sp)
	return used, capacity, br, true
}

// MaxSojourn is only asked after a dropped hand-off, which the server
// never has, so it records no span.
func (m *meshPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	nb, _, _ := m.neighbor(li)
	return nb.MaxSojourn(now), true
}
