package core

import (
	"math/rand"
	"reflect"
	"testing"

	"roadside/internal/graph"
	"roadside/internal/utility"
)

// These tests pin the parallelism contract: the parallel engine build must
// produce bit-identical results to its serial reference, for any worker
// count. Exact float comparison (not tolerance) is the point — parallel
// fan-out must not change even the last ulp.

// TestNewEngineParallelBitIdentical compares every arena of a serially
// built engine against parallel builds across instance shapes, including
// multi-shop and explicit-candidate problems.
func TestNewEngineParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, size := range []struct {
		nodes, flows int
	}{{20, 10}, {60, 40}, {250, 80}} {
		p := randomProblem(t, rng, size.nodes, size.flows, 5, utility.Linear{D: 50})
		if size.nodes >= 60 {
			p.ExtraShops = []graph.NodeID{(p.Shop + 1) % graph.NodeID(size.nodes)}
		}
		serial, err := newEngine(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			parallel, err := newEngine(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertEnginesEqual(t, serial, parallel, size.nodes, workers)
		}
	}
}

func assertEnginesEqual(t *testing.T, a, b *Engine, nodes, workers int) {
	t.Helper()
	if len(a.shards) != len(b.shards) {
		t.Fatalf("nodes=%d workers=%d: shard count %d differs from serial %d",
			nodes, workers, len(b.shards), len(a.shards))
	}
	type arena struct {
		name string
		x, y interface{}
	}
	for si := range a.shards {
		x, y := &a.shards[si], &b.shards[si]
		for _, ar := range []arena{
			{"flowLo", x.flowLo, y.flowLo},
			{"flowHi", x.flowHi, y.flowHi},
			{"visitOff", x.visitOff, y.visitOff},
			{"visitFlow", x.visitFlow, y.visitFlow},
			{"visitDetour", x.visitDetour, y.visitDetour},
			{"visitGain", x.visitGain, y.visitGain},
			{"flowOff", x.flowOff, y.flowOff},
			{"flowNode", x.flowNode, y.flowNode},
			{"flowDetour", x.flowDetour, y.flowDetour},
		} {
			if !reflect.DeepEqual(ar.x, ar.y) {
				t.Fatalf("nodes=%d workers=%d: shard %d arena %s differs from serial build",
					nodes, workers, si, ar.name)
			}
		}
	}
	if !reflect.DeepEqual(a.cands, b.cands) {
		t.Fatalf("nodes=%d workers=%d: cands differ from serial build", nodes, workers)
	}
}

// TestEvaluatePrefixesMatchesEvaluate pins the incremental prefix sweep to
// the one-shot evaluator bit for bit, which is what lets the experiment
// runners replace per-k re-evaluation.
func TestEvaluatePrefixesMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(t, rng, 80, 40, 6, utility.Sqrt{D: 70})
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := GreedyCombined(e)
	if err != nil {
		t.Fatal(err)
	}
	prefix := e.EvaluatePrefixes(pl.Nodes)
	if len(prefix) != len(pl.Nodes)+1 {
		t.Fatalf("got %d prefix values for %d nodes", len(prefix), len(pl.Nodes))
	}
	for n := 0; n <= len(pl.Nodes); n++ {
		if want := e.Evaluate(pl.Nodes[:n]); prefix[n] != want {
			t.Fatalf("prefix[%d] = %v, Evaluate = %v", n, prefix[n], want)
		}
	}
}
