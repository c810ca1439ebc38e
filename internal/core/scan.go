package core

import (
	"math"

	"roadside/internal/graph"
)

// placedSet is flat membership over the candidate ID range. The greedy
// scans test it once per candidate per step, where a map lookup was ~30% of
// solver time; a dense bool slice is one subtraction and one load.
type placedSet struct {
	lo   graph.NodeID
	bits []bool
}

func (e *Engine) newPlacedSet() placedSet {
	return placedSet{lo: e.candLo, bits: make([]bool, e.candSpan)}
}

func (s placedSet) has(v graph.NodeID) bool { return s.bits[v-s.lo] }
func (s placedSet) add(v graph.NodeID)      { s.bits[v-s.lo] = true }

// scanned is one evaluated candidate: the node plus both marginal-gain
// components at evaluation time. Carrying the full pair lets the greedy
// record the winner's step gain without re-evaluating it.
type scanned struct {
	node graph.NodeID
	u, c float64
}

// betterKey is the deterministic candidate order used by every greedy scan
// and by the lazy heap: higher gain wins, and equal gains go to the lower
// node ID. The exact float comparison is intentional — the tie-break must
// be a strict total order for the heap top to be exactly the scan's winner.
func betterKey(g float64, v graph.NodeID, bestG float64, bestV graph.NodeID) bool {
	if bestV == graph.Invalid {
		return true
	}
	//lint:ignore floatcmp exact tie detection keeps the lazy heap's winner bit-identical to the scan's
	if g != bestG {
		return g > bestG
	}
	return v < bestV
}

// scanBest accumulates the running argmax of a candidate scan along the
// three objectives the greedies need: the uncovered component, the covered
// component, and their sum.
type scanBest struct {
	byU, byC, bySum scanned
}

func newScanBest() scanBest {
	empty := scanned{node: graph.Invalid, u: math.Inf(-1), c: math.Inf(-1)}
	return scanBest{byU: empty, byC: empty, bySum: empty}
}

func (b *scanBest) consider(s scanned) {
	if betterKey(s.u, s.node, b.byU.u, b.byU.node) {
		b.byU = s
	}
	if betterKey(s.c, s.node, b.byC.c, b.byC.node) {
		b.byC = s
	}
	if betterKey(s.u+s.c, s.node, b.bySum.u+b.bySum.c, b.bySum.node) {
		b.bySum = s
	}
}

// scanCandidates evaluates st.marginalGain(v) = (uncovered, covered) for
// every unplaced candidate, serially in candidate order, and returns the
// argmaxes plus the number of candidates evaluated. The scan reads st and
// never mutates it.
func (e *Engine) scanCandidates(placed placedSet, st greedyState) (scanBest, int) {
	best := newScanBest()
	evaluated := 0
	for _, v := range e.cands {
		if placed.has(v) {
			continue
		}
		u, c := st.marginalGain(e, v)
		best.consider(scanned{node: v, u: u, c: c})
		evaluated++
	}
	return best, evaluated
}
