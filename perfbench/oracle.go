package main

import (
	"fmt"
	"math"

	"roadside/internal/core"
	"roadside/internal/graph"
)

// answer is a reference placement. References come from the serial paths
// only — core.NewEngineWorkers(p, 1) and the *Workers(e, 1) solvers — and
// are compared bit for bit, so any divergence in a parallel, cached,
// coalesced or delta-updated answer counts as a failed op.
type answer struct {
	nodes     []graph.NodeID
	gains     []float64
	attracted float64
}

// solveSerial runs one solver at a single worker.
func solveSerial(e *core.Engine, algo string, k int) (*core.Placement, error) {
	b, err := e.WithBudget(k)
	if err != nil {
		return nil, err
	}
	switch algo {
	case "algorithm1":
		return core.Algorithm1Workers(b, 1)
	case "algorithm2":
		return core.Algorithm2Workers(b, 1)
	case "combined":
		return core.GreedyCombinedWorkers(b, 1)
	case "lazy":
		return core.GreedyLazy(b) // the lazy solver is serial at every setting
	}
	return nil, fmt.Errorf("unknown algo %q", algo)
}

// refAnswer is solveSerial as a reference answer.
func refAnswer(e *core.Engine, algo string, k int) (answer, error) {
	pl, err := solveSerial(e, algo, k)
	if err != nil {
		return answer{}, fmt.Errorf("reference %s k=%d: %w", algo, k, err)
	}
	return answer{nodes: pl.Nodes, gains: pl.StepGains, attracted: pl.Attracted}, nil
}

// refsFor builds the serial reference engine of p and computes its
// answers for every algorithm and budget.
func refsFor(p *core.Problem, corrupt bool) (*core.Engine, [][]answer, error) {
	e, err := core.NewEngineWorkers(p, 1)
	if err != nil {
		return nil, nil, err
	}
	byAlgo := make([][]answer, len(algos))
	for a, algo := range algos {
		for _, k := range ks {
			ans, err := refAnswer(e, algo, k)
			if err != nil {
				return nil, nil, err
			}
			if corrupt {
				ans.corrupt()
			}
			byAlgo[a] = append(byAlgo[a], ans)
		}
	}
	return e, byAlgo, nil
}

// kIndex is the position of budget k in ks.
func kIndex(k int) int {
	for i, v := range ks {
		if v == k {
			return i
		}
	}
	return -1
}

// check compares a served placement against the reference.
func (a answer) check(nodes []graph.NodeID, gains []float64, attracted float64) error {
	if len(nodes) != len(a.nodes) || len(gains) != len(a.gains) {
		return fmt.Errorf("placement has %d nodes/%d gains, reference %d/%d",
			len(nodes), len(gains), len(a.nodes), len(a.gains))
	}
	for i := range nodes {
		if nodes[i] != a.nodes[i] {
			return fmt.Errorf("node %d is %d, reference %d", i, nodes[i], a.nodes[i])
		}
		if math.Float64bits(gains[i]) != math.Float64bits(a.gains[i]) {
			return fmt.Errorf("step gain %d is %v, reference %v", i, gains[i], a.gains[i])
		}
	}
	if math.Float64bits(attracted) != math.Float64bits(a.attracted) {
		return fmt.Errorf("attracted %v, reference %v", attracted, a.attracted)
	}
	return nil
}

// corrupt flips the lowest mantissa bit of the reference objective; the
// benchmark's own tests use it to prove a wrong answer is caught.
func (a *answer) corrupt() {
	a.attracted = math.Float64frombits(math.Float64bits(a.attracted) ^ 1)
}

// sameBits compares two float slices bit for bit.
func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d values, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] is %v, reference %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// flowScore is one flow's evaluated attraction, as /v1/evaluate reports
// it: zero detour and attraction for a flow no placed RAP reaches.
type flowScore struct {
	covered   bool
	detour    float64
	attracted float64
}

// evaluate scores a placement the way the evaluate endpoint does: the
// objective plus each flow's detour and attracted volume.
func evaluate(e *core.Engine, placement []graph.NodeID) (float64, []flowScore) {
	p := e.Problem()
	flows := make([]flowScore, p.Flows.Len())
	for f := range flows {
		fl := p.Flows.At(f)
		if d := e.FlowDetour(f, placement); !math.IsInf(d, 1) {
			flows[f] = flowScore{covered: true, detour: d, attracted: p.Utility.Prob(d, fl.Alpha) * fl.Volume}
		}
	}
	return e.Evaluate(placement), flows
}
