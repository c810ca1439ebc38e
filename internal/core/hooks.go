package core

import (
	"hash/fnv"
	"math"
)

// Determinism-audit hooks.
//
// The engine constructor promises bit-identical arenas at every worker
// count (see newEngine). Inside this package the promise is pinned on fixed
// instances by parallel_test.go; the randomized invariant harness
// (internal/invariant) re-checks it on generated instances, which needs the
// worker knob and an arena digest outside the package. These wrappers exist
// for that audit; production callers should use NewEngine.

// NewEngineWorkers is NewEngine with an explicit worker count. workers <= 1
// is the serial reference construction the parallel result must match
// bit-for-bit.
func NewEngineWorkers(p *Problem, workers int) (*Engine, error) {
	return newEngine(p, workers)
}

// NewEngineMaxShard is NewEngine with explicit worker count and per-shard
// visit budget. Shrinking the budget forces the arenas to split into
// multiple shards; the audit contract is that every query and placement is
// bit-identical at any budget (and the single-shard layout is byte-equal to
// the historical flat arenas — Fingerprint pins this).
func NewEngineMaxShard(p *Problem, workers, maxShardVisits int) (*Engine, error) {
	return buildEngine(p, workers, maxShardVisits)
}

// Algorithm1Workers is Algorithm1; workers is ignored.
//
// Deprecated: the candidate scan is serial, so there is no worker knob.
// Use Algorithm1.
func Algorithm1Workers(e *Engine, workers int) (*Placement, error) { return Algorithm1(e) }

// Algorithm2Workers is Algorithm2; workers is ignored.
//
// Deprecated: the candidate scan is serial, so there is no worker knob.
// Use Algorithm2.
func Algorithm2Workers(e *Engine, workers int) (*Placement, error) { return Algorithm2(e) }

// GreedyCombinedWorkers is GreedyCombined; workers is ignored.
//
// Deprecated: the candidate scan is serial, so there is no worker knob.
// Use GreedyCombined.
func GreedyCombinedWorkers(e *Engine, workers int) (*Placement, error) { return GreedyCombined(e) }

// Fingerprint digests the engine's CSR arenas (offsets, flow indices,
// detours, and precomputed gains, all by exact bit pattern) into one FNV-1a
// hash. Two engines built from the same problem must fingerprint equally
// regardless of construction worker count; any divergence means a parallel
// phase broke the index-disjoint write contract.
func (e *Engine) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		//lint:ignore errdrop hash.Hash.Write is documented to never return an error
		_, _ = h.Write(buf[:])
	}
	for si := range e.shards {
		sh := &e.shards[si]
		for _, o := range sh.visitOff {
			w64(uint64(o))
		}
		for _, f := range sh.visitFlow {
			w64(uint64(f))
		}
		for _, d := range sh.visitDetour {
			w64(math.Float64bits(d))
		}
		for _, g := range sh.visitGain {
			w64(math.Float64bits(g))
		}
		for _, r := range sh.visitRem {
			w64(math.Float64bits(r))
		}
		for _, o := range sh.flowOff {
			w64(uint64(o))
		}
		for _, n := range sh.flowNode {
			w64(uint64(n))
		}
		for _, d := range sh.flowDetour {
			w64(math.Float64bits(d))
		}
	}
	return h.Sum64()
}
