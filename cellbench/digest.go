package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
)

// digester hashes a run's deterministic outcome. Every value is
// written with its name, and floats by their IEEE-754 bits, so any
// change in any counter or any last bit of a probability or a
// reservation changes the digest.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(name string, v uint64) {
	d.h.Write([]byte(name))
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) f64(name string, v float64) { d.u64(name, math.Float64bits(v)) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// pinnedDigests holds the outcome digest of each workload at the
// default seed, per scale: pinned[workload][scale].
//
//go:embed digests.json
var pinnedJSON []byte

const defaultSeed = 1

func pinnedDigest(workload, scale string) (string, error) {
	var pinned map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	d, ok := pinned[workload][scale]
	if !ok {
		return "", fmt.Errorf("digests.json: no digest pinned for %s at scale %s", workload, scale)
	}
	return d, nil
}
