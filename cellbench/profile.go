package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A minimal reader for the pprof profile.proto format (the module is
// stdlib-only, so github.com/google/pprof is not available). It reads
// just what folding needs: samples, locations with their inlined
// lines, functions, and the string table.

type protoSample struct {
	locs   []uint64
	values []int64
}

type protoProfile struct {
	samples   []protoSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

var errTruncated = errors.New("profile: truncated protobuf")

type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one key and returns the field number, wire type, the
// varint value (wire type 0) or the payload (wire type 2).
func (r *protoReader) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, v, payload, err
}

// repeatedUint64 appends a repeated varint field, packed (wire 2) or
// not (wire 0).
func repeatedUint64(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pr := protoReader{b: payload}
	for len(pr.b) > 0 {
		x, err := pr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(data []byte) (*protoProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &protoProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	r := protoReader{b: data}
	for len(r.b) > 0 {
		num, wire, _, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		if wire != 2 {
			continue
		}
		switch num {
		case 2:
			s, err := parseSample(payload)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			if err := p.parseLocation(payload); err != nil {
				return nil, err
			}
		case 5:
			if err := p.parseFunction(payload); err != nil {
				return nil, err
			}
		case 6:
			p.strings = append(p.strings, string(payload))
		}
	}
	return p, nil
}

func parseSample(b []byte) (protoSample, error) {
	var s protoSample
	r := protoReader{b: b}
	for len(r.b) > 0 {
		num, wire, v, payload, err := r.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			s.locs, err = repeatedUint64(s.locs, wire, v, payload)
		case 2:
			var vals []uint64
			vals, err = repeatedUint64(nil, wire, v, payload)
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func (p *protoProfile) parseLocation(b []byte) error {
	var id uint64
	var funcs []uint64
	r := protoReader{b: b}
	for len(r.b) > 0 {
		num, _, v, payload, err := r.field()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id = v
		case 4: // Line{function_id = 1, line = 2}
			lr := protoReader{b: payload}
			for len(lr.b) > 0 {
				ln, _, lv, _, err := lr.field()
				if err != nil {
					return err
				}
				if ln == 1 {
					funcs = append(funcs, lv)
				}
			}
		}
	}
	p.locations[id] = funcs
	return nil
}

func (p *protoProfile) parseFunction(b []byte) error {
	var id uint64
	var name int64
	r := protoReader{b: b}
	for len(r.b) > 0 {
		num, _, v, _, err := r.field()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	p.functions[id] = name
	return nil
}

// stacks returns every sample as its frames (leaf first, inlined
// frames expanded) and its weight: the last sample value, which for a
// CPU profile is nanoseconds.
func (p *protoProfile) stacks() ([][]string, []int64) {
	frames := make([][]string, 0, len(p.samples))
	weights := make([]int64, 0, len(p.samples))
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var st []string
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				name := "?"
				if idx := p.functions[fid]; idx >= 0 && int(idx) < len(p.strings) {
					name = p.strings[idx]
				}
				st = append(st, name)
			}
		}
		frames = append(frames, st)
		weights = append(weights, s.values[len(s.values)-1])
	}
	return frames, weights
}

// Folding: every sample's weight goes to exactly one self bucket, and
// to each cumulative bucket whose frames appear anywhere on its stack.

const modulePrefix = "cellqos/internal/"

// gcFrames mark garbage-collector work: background marking, sweeping,
// scavenging, and the mark assists charged to allocating goroutines.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcAssistAlloc":  true,
	"runtime.gcStart":        true,
	"runtime.GC":             true,
}

// cumBuckets maps each cumulative metric to the frames (exact names,
// or prefixes ending in '.') that put a sample in it.
var cumBuckets = []struct {
	name   string
	frames []string
}{
	{"sim.queue", []string{modulePrefix + "sim.(*EventQueue).", "container/heap."}},
	{"core.admit_new", []string{modulePrefix + "core.(*Engine).AdmitNewRequest"}},
	{"core.eq6", []string{modulePrefix + "core.(*Engine).ComputeTargetReservation"}},
	{"core.eq5", []string{modulePrefix + "core.(*Engine).OutgoingReservation"}},
	{"core.record", []string{modulePrefix + "core.(*Engine).RecordDeparture"}},
	{"service.checkpoint", []string{modulePrefix + "service.(*Server).checkpoint", modulePrefix + "service.(*Checkpointer).Save"}},
}

// selfLayer names the bucket a stack's self time belongs to: GC work
// and allocation first (wherever they were called from), then the
// first module package from the leaf, then the benchmark itself, else
// "other" (scheduler, syscalls, the rest of the runtime).
func selfLayer(stack []string) string {
	for _, f := range stack {
		if gcFrames[f] {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if f == "runtime.mallocgc" {
			return "runtime.alloc"
		}
	}
	for _, f := range stack {
		if pkg, ok := modulePackage(f); ok {
			return layerOf(pkg)
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "other"
}

// modulePackage extracts "core" from "cellqos/internal/core.(*Engine).X"
// and "sim/shard" from "cellqos/internal/sim/shard.(*Kernel).run.func1".
func modulePackage(frame string) (string, bool) {
	if !strings.HasPrefix(frame, modulePrefix) {
		return "", false
	}
	rest := frame[len(modulePrefix):]
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return rest, true
	}
	return rest[:slash+1+dot], true
}

// layerOf names a package's layer: the last path element, so
// "sim/shard" reports as "shard".
func layerOf(pkg string) string {
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		return pkg[i+1:]
	}
	return pkg
}

func matchesFrame(f string, patterns []string) bool {
	for _, p := range patterns {
		if f == p || (strings.HasSuffix(p, ".") && strings.HasPrefix(f, p)) {
			return true
		}
	}
	return false
}

// folded accumulates sample weights by bucket across profiles.
type folded struct {
	total  int64
	self   map[string]int64
	cum    map[string]int64
	stacks map[string]int64 // "root;...;leaf" → weight, for the folded-stack file
}

func newFolded() *folded {
	return &folded{self: map[string]int64{}, cum: map[string]int64{}, stacks: map[string]int64{}}
}

// add folds one profile's samples.
func (f *folded) add(stacks [][]string, weights []int64) {
	for i, st := range stacks {
		w := weights[i]
		f.total += w
		f.self[selfLayer(st)] += w
		for _, b := range cumBuckets {
			for _, fr := range st {
				if matchesFrame(fr, b.frames) {
					f.cum[b.name] += w
					break
				}
			}
		}
		rev := make([]string, len(st))
		for j, fr := range st {
			rev[len(st)-1-j] = fr
		}
		f.stacks[strings.Join(rev, ";")] += w
	}
}

func (f *folded) share(w int64) float64 {
	if f.total == 0 {
		return 0
	}
	return float64(w) / float64(f.total)
}

// writeStacks writes the folded stacks, heaviest first, in the
// "frame;frame;frame weight" format flame-graph tools read.
func (f *folded) writeStacks(w io.Writer) error {
	keys := make([]string, 0, len(f.stacks))
	for k := range f.stacks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if f.stacks[keys[i]] != f.stacks[keys[j]] {
			return f.stacks[keys[i]] > f.stacks[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, f.stacks[k]); err != nil {
			return err
		}
	}
	return nil
}
