package core

import (
	"time"

	"roadside/internal/graph"
	"roadside/internal/obs"
)

// The greedy solvers are one step loop under different selection rules.
// Every step scans each still-unplaced candidate once against the current
// state, serially and in candidate order (see scanCandidates), keeping the
// argmax of the uncovered gain, the covered gain and their sum, each with
// ties broken toward the lowest node ID (betterKey). A selection rule then
// picks the step's winner from those argmaxes: Algorithm 1 takes the best
// uncovered gain over its coverage bitmap, Algorithm 2 the better of the
// best uncovered and best covered candidates, and GreedyCombined the best
// sum. GreedyLazy is not a fourth rule but a second evaluation strategy of
// the combined rule: a heap of stale upper bounds ordered by the same
// betterKey, so its placement is GreedyCombined's bit for bit.
//
// All solvers share one termination contract: the step loop ends as soon
// as the rule finds no positive gain (or the candidate set is exhausted),
// even if budget remains. Submodularity guarantees a zero winner stays zero
// forever, so continuing could only pad Nodes/StepGains with dead entries.
// Placements may therefore be shorter than K; every recorded step gain is
// strictly positive.
//
// Each placed step is reported to the engine's obs.StepObserver with the
// measured scan work; the default no-op observer keeps this free.

// greedyState is the marginal-gain oracle and placement update an eager
// solve runs on: Algorithm 1's coverage bitmap, or the detourState that
// Algorithm 2 and GreedyCombined share.
type greedyState interface {
	marginalGain(e *Engine, v graph.NodeID) (uncovered, covered float64)
	place(e *Engine, v graph.NodeID)
}

// selectionRule picks one step's winner from a finished scan; ok=false
// ends the solve. An empty scan leaves every argmax at -Inf, so a rule's
// positive-gain test also covers an exhausted candidate set.
type selectionRule struct {
	solver string // name reported to obs and accepted by Solver
	kinds  bool   // record StepKinds
	pick   func(s *scanBest) (chosen scanned, kind string, ok bool)
}

var (
	ruleUncovered = selectionRule{solver: "algorithm1",
		pick: func(s *scanBest) (scanned, string, bool) { return s.byU, "", s.byU.u > 0 }}
	// Ties favor covering new flows, which matches the paper's
	// presentation order. byU maximizes the uncovered gain and byC the
	// covered gain, so when both maxima are zero every remaining
	// candidate's total marginal gain is zero.
	ruleBetterOfTwo = selectionRule{solver: "algorithm2", kinds: true,
		pick: func(s *scanBest) (scanned, string, bool) {
			ok := s.byU.u > 0 || s.byC.c > 0
			if s.byC.c > s.byU.u {
				return s.byC, StepKindCovered, ok
			}
			return s.byU, StepKindUncovered, ok
		}}
	ruleSum = selectionRule{solver: "combined",
		pick: func(s *scanBest) (scanned, string, bool) { return s.bySum, "", s.bySum.u+s.bySum.c > 0 }}
)

// greedy is the eager step loop: scan, pick by rule, place, record,
// observe. The step gain is the winner's scanned u+c, carried through
// instead of being recomputed (Algorithm 1's covered part is always 0).
func (e *Engine) greedy(r *selectionRule, st greedyState) (*Placement, error) {
	p := e.p
	placed := e.newPlacedSet()
	result := &Placement{
		Nodes:     make([]graph.NodeID, 0, p.K),
		StepGains: make([]float64, 0, p.K),
	}
	if r.kinds {
		result.StepKinds = make([]string, 0, p.K)
	}
	o := e.observer()
	for step := 0; step < p.K; step++ {
		scan, evaluated := e.scanCandidates(placed, st)
		chosen, kind, ok := r.pick(&scan)
		if !ok {
			break
		}
		gain := chosen.u + chosen.c
		placed.add(chosen.node)
		st.place(e, chosen.node)
		result.Nodes = append(result.Nodes, chosen.node)
		result.StepGains = append(result.StepGains, gain)
		if r.kinds {
			result.StepKinds = append(result.StepKinds, kind)
		}
		o.SolverStep(obs.SolverStep{
			Solver: r.solver, Step: step, Node: int64(chosen.node),
			Gain: gain, Kind: kind, Scanned: evaluated, Chunks: 1,
		})
	}
	result.Attracted = e.Evaluate(result.Nodes)
	return result, nil
}

// coverState is Algorithm 1's state: the flows some placed RAP already
// attracts drivers from. Its gain is all uncovered; covered is always 0.
type coverState struct{ covered []bool }

func (s *coverState) marginalGain(e *Engine, v graph.NodeID) (float64, float64) {
	var gain float64
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := sh.visitRange(v)
		for i := lo; i < hi; i++ {
			if !s.covered[sh.visitFlow[i]] {
				gain += sh.visitGain[i]
			}
		}
	}
	return gain, 0
}

func (s *coverState) place(e *Engine, v graph.NodeID) {
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := sh.visitRange(v)
		for i := lo; i < hi; i++ {
			if sh.visitGain[i] > 0 {
				s.covered[sh.visitFlow[i]] = true
			}
		}
	}
}

// Algorithm1 is the paper's Algorithm 1: the classic greedy for weighted
// maximum coverage. At each of the k steps it places a RAP at the
// intersection attracting the most drivers from still-uncovered flows, then
// marks every flow with a positive detour probability at that intersection
// as covered. Under the threshold utility this achieves a 1-1/e
// approximation (Section III-B); under decreasing utilities it serves as
// the "coverage factor only" ablation. It stops early once no candidate
// attracts drivers from any uncovered flow.
func Algorithm1(e *Engine) (*Placement, error) {
	return e.greedy(&ruleUncovered, &coverState{covered: make([]bool, e.p.Flows.Len())})
}

// Candidate kinds recorded by Algorithm2.
const (
	StepKindUncovered = "uncovered"
	StepKindCovered   = "covered"
)

// Algorithm2 is the paper's Algorithm 2: the composite greedy for
// decreasing utility functions. At each step it evaluates two candidates —
// (i) the intersection attracting the most drivers from uncovered flows and
// (ii) the intersection attracting the most additional drivers from covered
// flows by offering smaller detours — and places a RAP at the better one.
// Theorem 2 proves a 1-1/sqrt(e) approximation for any non-increasing
// utility. With the threshold utility it reduces to Algorithm 1 (candidate
// ii always gains zero). It stops early once both candidates' gains drop
// to zero — i.e. every remaining intersection has zero marginal gain.
func Algorithm2(e *Engine) (*Placement, error) {
	return e.greedy(&ruleBetterOfTwo, e.newDetourState())
}

// GreedyCombined is the natural single-objective greedy discussed in
// Section III-C's motivating example: at each step it places a RAP at the
// intersection with the largest total marginal gain (uncovered + covered
// parts together). Its per-step gain dominates both of Algorithm 2's
// candidates, so it inherits the 1-1/sqrt(e) bound; it is included as an
// ablation to compare against the paper's composite rule. It stops early
// once the best total marginal gain is zero.
func GreedyCombined(e *Engine) (*Placement, error) {
	return e.greedy(&ruleSum, e.newDetourState())
}

// Solver returns the greedy solver that reports to obs under name:
// "algorithm1", "algorithm2", "combined" or "lazy".
func Solver(name string) (func(*Engine) (*Placement, error), bool) {
	switch name {
	case ruleUncovered.solver:
		return Algorithm1, true
	case ruleBetterOfTwo.solver:
		return Algorithm2, true
	case ruleSum.solver:
		return GreedyCombined, true
	case "lazy":
		return GreedyLazy, true
	}
	return nil, false
}

// GreedyLazy is an evaluation strategy of the combined rule, not a
// separate solver: it exploits the submodularity of the objective, where
// cached marginal gains from earlier steps upper-bound current gains, so
// most candidates need no re-evaluation. The heap orders entries by the
// scans' betterKey (bound desc, node asc), so a fresh heap top beats every
// other candidate's bound, hence its current gain, in the combined scan's
// own order: the placement is GreedyCombined's bit for bit, at a fraction
// of the evaluations.
//
// Candidates whose refreshed bound drops to zero are pruned outright:
// submodularity guarantees their gain can never recover. When the budget
// exceeds the number of useful candidates, the step loop ends as soon as
// the queue drains — the same zero-gain termination as the combined scan.
func GreedyLazy(e *Engine) (*Placement, error) {
	return greedyLazy(e, nil)
}

// greedyLazy is the shared body of GreedyLazy and GreedyLazyWarm. initGain
// supplies each candidate's step-0 upper bound by position in e.cands; nil
// means compute it from an empty state, which is exactly what a Warm cache
// holds — the two paths push bit-identical bounds in identical order, so
// the placements coincide bit for bit (TestLazyMatchesCombined pins this).
func greedyLazy(e *Engine, initGain func(i int) float64) (*Placement, error) {
	p := e.p
	state := e.newDetourState()
	result := &Placement{
		Nodes:     make([]graph.NodeID, 0, p.K),
		StepGains: make([]float64, 0, p.K),
	}
	// Priority queue of candidates by stale upper bound, in betterKey order.
	type entry struct {
		node  graph.NodeID
		bound float64
		step  int // step at which bound was computed
	}
	// Both sifts carry the moving entry in a local and shift the others
	// through the hole, reading each heap slot once per level.
	heap := make([]entry, 0, len(e.cands))
	push := func(en entry) {
		h := append(heap, en)
		i := len(h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !betterKey(en.bound, en.node, h[parent].bound, h[parent].node) {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = en
		heap = h
	}
	pop := func() entry {
		h := heap
		top, last := h[0], len(h)-1
		en := h[last]
		h = h[:last]
		heap = h
		if last == 0 {
			return top
		}
		i := 0
		for {
			first := 2*i + 1
			if first >= last {
				break
			}
			if r := first + 1; r < last && betterKey(h[r].bound, h[r].node, h[first].bound, h[first].node) {
				first = r
			}
			if !betterKey(h[first].bound, h[first].node, en.bound, en.node) {
				break
			}
			h[i] = h[first]
			i = first
		}
		h[i] = en
		return top
	}
	o := e.observer()
	initStart := time.Now()
	for i, v := range e.cands {
		var b float64
		if initGain != nil {
			b = initGain(i)
		} else {
			u, c := state.marginalGain(e, v)
			b = u + c
		}
		if b > 0 {
			push(entry{node: v, bound: b, step: 0})
		}
	}
	o.Phase(obs.Phase{
		Component: "core.solver.lazy", Name: "init",
		Items: len(e.cands), Workers: 1,
		Start: initStart, Duration: time.Since(initStart),
	})
	for step := 0; step < p.K; step++ {
		var chosen entry
		found := false
		reevals := 0
		for len(heap) > 0 {
			top := pop()
			if top.step == step {
				// Fresh evaluation: by submodularity no other candidate
				// can beat it.
				chosen, found = top, true
				break
			}
			reevals++
			u, c := state.marginalGain(e, top.node)
			if b := u + c; b > 0 {
				push(entry{node: top.node, bound: b, step: step})
			}
		}
		if !found {
			break // every remaining candidate's gain has decayed to zero
		}
		state.place(e, chosen.node)
		result.Nodes = append(result.Nodes, chosen.node)
		result.StepGains = append(result.StepGains, chosen.bound)
		o.SolverStep(obs.SolverStep{
			Solver: "lazy", Step: step, Node: int64(chosen.node),
			Gain: chosen.bound, Scanned: reevals, Reevals: reevals,
		})
	}
	result.Attracted = e.Evaluate(result.Nodes)
	return result, nil
}
