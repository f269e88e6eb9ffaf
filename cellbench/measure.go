package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// segment is what one timed segment measured on the host.
type segment struct {
	wallNs   int64
	cpuNs    int64 // CPU time of all the process's threads over the segment
	mallocs  uint64
	bytes    uint64
	heapEnd  uint64 // live heap after a forced collection at the end, bytes
	heapPeak uint64 // peak live heap as of the latest GC, sampled between slices
	// Both heap figures count from the live heap before set-up, less
	// what the decorators' logs hold.
	gcCycles  uint32
	gcPauseNs uint64
	profile   []byte // gzipped CPU profile of the segment (traced runs)
}

// heapSampler reads the live heap (as marked by the latest GC) between
// slices of a timed segment and keeps the peak.
type heapSampler struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) poll() {
	if v := h.read(); v > h.peak {
		h.peak = v
	}
}

func (h *heapSampler) read() uint64 {
	metrics.Read(h.sample)
	if h.sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return h.sample[0].Value.Uint64()
}

// timeSegment runs body as one timed segment: a GC first so every
// segment starts from the same heap, then MemStats deltas, wall and
// CPU time, and — when traced — a CPU profile around exactly the body. body
// polls the sampler between its slices. After the clock stops, a
// forced collection measures exactly what the segment left reachable.
// The sampled peak is noisier: the live heap as of a GC counts what
// was allocated while that GC was marking.
func timeSegment(traced bool, body func(h *heapSampler) error) (segment, error) {
	runtime.GC()
	h := newHeapSampler()
	h.poll()
	var prof bytes.Buffer
	profiling := false
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return segment{}, fmt.Errorf("cpu profile: %w", err)
		}
		profiling = true
		defer func() { // body panicked: leave the profiler free for the next repetition
			if profiling {
				pprof.StopCPUProfile()
			}
		}()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start, cpuStart := wall.Now(), processCPUNs()
	err := body(h)
	elapsed, cpu := wall.Since(start), processCPUNs()-cpuStart
	runtime.ReadMemStats(&after)
	if profiling {
		pprof.StopCPUProfile()
		profiling = false
	}
	h.poll()
	if err != nil {
		return segment{}, err
	}
	runtime.GC()
	return segment{
		wallNs:    int64(elapsed),
		cpuNs:     cpu,
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		heapEnd:   h.read(),
		heapPeak:  h.peak,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseNs: after.PauseTotalNs - before.PauseTotalNs,
		profile:   prof.Bytes(),
	}, nil
}

// liveHeapNow collects garbage and returns the live heap, the base
// that a repetition's heap figures are measured from: it holds what
// earlier repetitions' results retain, not the workload.
func liveHeapNow() uint64 {
	runtime.GC()
	return newHeapSampler().read()
}

// subtractHeap makes the heap figures relative to base.
func (s *segment) subtractHeap(base uint64) {
	sub := func(v uint64) uint64 {
		if v < base {
			return 0
		}
		return v - base
	}
	s.heapEnd, s.heapPeak = sub(s.heapEnd), sub(s.heapPeak)
}

// stopwatch starts a wall-time measurement.
func stopwatch() func() time.Duration {
	start := wall.Now()
	return func() time.Duration { return wall.Since(start) }
}

// setupClock starts timing a set-up in CPU time of the whole process,
// after a collection so garbage from an earlier repetition is not
// collected on its clock.
func setupClock() func() time.Duration {
	runtime.GC()
	start := processCPUNs()
	return func() time.Duration { return time.Duration(processCPUNs() - start) }
}
