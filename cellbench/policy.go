package main

import (
	"runtime"
	"sync"
	"time"
	"unsafe"

	"cellqos/internal/clock"
	"cellqos/internal/core"
)

// wall is the benchmark's only clock: every host-time read goes
// through internal/clock, like the rest of the module.
var wall clock.Clock = clock.Wall{}

// Span names recorded by the decorators.
const (
	spanDecideNew uint8 = iota
	spanOutgoing
	spanSnapshot
	spanRecompute
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"policy.decide_new", "peers.outgoing", "peers.snapshot", "peers.recompute",
}

// span is one timed call at a layer boundary. Start and end are host
// nanoseconds since the log's epoch; parent indexes the enclosing span
// in the same log (-1 for a root).
type span struct {
	name       uint8
	start, end int64
	parent     int32
}

// spanLog collects what the decorators measure for one cell (or, in
// the single-threaded serve workload, for the whole mesh). It is used
// by one goroutine at a time: a cell's decisions all run on the shard
// that owns the cell.
type spanLog struct {
	epoch time.Time
	trace bool // record spans (the traced run); latencies are always kept

	admitNs        []int64 // DecideNew CPU time, one per decision
	newCount       uint64
	newDenied      uint64
	handOffCount   uint64
	handOffDropped uint64

	spans []span
	open  []int32 // stack of open span indexes
}

func newSpanLog(epoch time.Time, trace bool, hint int) *spanLog {
	return &spanLog{epoch: epoch, trace: trace, admitNs: make([]int64, 0, hint)}
}

// begin opens a span and returns its index (-1 when not tracing).
func (l *spanLog) begin(name uint8) int32 {
	if !l.trace {
		return -1
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, start: int64(wall.Since(l.epoch)), parent: parent})
	l.open = append(l.open, id)
	return id
}

// finish closes span id.
func (l *spanLog) finish(id int32) {
	if id < 0 {
		return
	}
	l.spans[id].end = int64(wall.Since(l.epoch))
	l.open = l.open[:len(l.open)-1]
}

// logSet hands out span logs to the per-cell policy clones and keeps
// them for reading after the run. Clones are made while the network is
// built; the logs are read once every shard has stopped.
type logSet struct {
	mu     sync.Mutex
	epoch  time.Time
	trace  bool
	hint   int
	shared *spanLog // non-nil: every cell records into one log
	logs   []*spanLog
}

func newLogSet(epoch time.Time, trace bool, hint int, shared bool) *logSet {
	s := &logSet{epoch: epoch, trace: trace, hint: hint}
	if shared {
		s.shared = newSpanLog(epoch, trace, hint)
		s.logs = []*spanLog{s.shared}
	}
	return s
}

func (s *logSet) next() *spanLog {
	if s.shared != nil {
		return s.shared
	}
	l := newSpanLog(s.epoch, s.trace, s.hint)
	s.mu.Lock()
	s.logs = append(s.logs, l)
	s.mu.Unlock()
	return l
}

// timedPolicy decorates an admission policy with a measurement of the
// CPU time of every new-call decision and a count of every hand-off
// decision. It changes no decision: it forwards to inner and returns
// its answer untouched. The registered prototype only clones; each
// engine's clone (core.CellStater) records into its own log.
type timedPolicy struct {
	inner core.AdmissionPolicy
	logs  *logSet
	log   *spanLog
}

func newTimedPolicy(name string, logs *logSet) (*timedPolicy, error) {
	inner, err := core.PolicyByName(name)
	if err != nil {
		return nil, err
	}
	return &timedPolicy{inner: inner, logs: logs}, nil
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Traits() core.PolicyTraits { return p.inner.Traits() }

// CloneCellState gives each engine its own log, so shards never share
// decorator state.
func (p *timedPolicy) CloneCellState() core.AdmissionPolicy {
	return &timedPolicy{inner: p.inner, log: p.logs.next()}
}

// DecideNew records the decision's CPU time on its thread, not its wall
// time: on a shared host the wall time's tail measures how often the
// thread waited for a CPU. On a shared 2-vCPU VM, repetitions of the
// same serve work read a wall-time p99 of 107–218 us against a
// CPU-time p99 of 99–140 us. The span keeps the wall time for the
// traced run. The goroutine stays on its thread between the two reads.
func (p *timedPolicy) DecideNew(ctx *core.PolicyContext) core.Decision {
	l := p.log
	id := l.begin(spanDecideNew)
	runtime.LockOSThread()
	start := threadCPUNs()
	d := p.inner.DecideNew(ctx)
	l.admitNs = append(l.admitNs, threadCPUNs()-start)
	runtime.UnlockOSThread()
	l.finish(id)
	l.newCount++
	if !d.Admitted {
		l.newDenied++
	}
	return d
}

func (p *timedPolicy) DecideHandOff(ctx *core.PolicyContext) core.Decision {
	d := p.inner.DecideHandOff(ctx)
	p.log.handOffCount++
	if !d.Admitted {
		p.log.handOffDropped++
	}
	return d
}

// decisionCounts sums the decision counters of every log.
type decisionCounts struct {
	newCount, newDenied, handOffCount, handOffDropped uint64
}

func (s *logSet) counts() decisionCounts {
	var c decisionCounts
	for _, l := range s.logs {
		c.newCount += l.newCount
		c.newDenied += l.newDenied
		c.handOffCount += l.handOffCount
		c.handOffDropped += l.handOffDropped
	}
	return c
}

func (c decisionCounts) minus(o decisionCounts) decisionCounts {
	return decisionCounts{
		newCount:       c.newCount - o.newCount,
		newDenied:      c.newDenied - o.newDenied,
		handOffCount:   c.handOffCount - o.handOffCount,
		handOffDropped: c.handOffDropped - o.handOffDropped,
	}
}

// resetLatencies drops latencies and spans recorded so far (the
// warm-up's), keeping the counters.
func (s *logSet) resetLatencies() {
	for _, l := range s.logs {
		l.admitNs = l.admitNs[:0]
		l.spans = l.spans[:0]
		l.open = l.open[:0]
	}
}

// footprint is the heap the logs themselves hold, which the heap
// metrics leave out: they measure the program, not the decorator.
func (s *logSet) footprint() uint64 {
	n := uintptr(cap(s.logs)) * unsafe.Sizeof(s.shared)
	for _, l := range s.logs {
		n += unsafe.Sizeof(*l) +
			uintptr(cap(l.admitNs))*unsafe.Sizeof(int64(0)) +
			uintptr(cap(l.spans))*unsafe.Sizeof(span{}) +
			uintptr(cap(l.open))*unsafe.Sizeof(int32(0))
	}
	return uint64(n)
}

// latencies returns every recorded DecideNew latency.
func (s *logSet) latencies() []int64 {
	var out []int64
	for _, l := range s.logs {
		out = append(out, l.admitNs...)
	}
	return out
}
