package main

import (
	"fmt"
	"time"

	"roadside/internal/core"
)

// trials runs paper-figure trials on city-scale problems through the
// library alone: one op builds the engine, runs the four solvers at
// K = maxK, and evaluates Algorithm 2's placement prefix by prefix. One
// sequential caller; parallelism comes only from the engine's own
// GOMAXPROCS fan-out.
type trials struct {
	cfg      config
	problems []*problem
	refs     [][]answer  // [problem][algo] at K = maxK
	prefixes [][]float64 // [problem] EvaluatePrefixes of the Algorithm 2 reference
}

func setupTrials(cfg config) (instance, error) {
	problems, err := megaSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	return &trials{cfg: cfg, problems: problems}, nil
}

func (w *trials) prepare() error {
	for _, pr := range w.problems {
		e, byAlgo, err := refsFor(pr.p, w.cfg.corrupt)
		if err != nil {
			return err
		}
		refs := make([]answer, len(algos))
		for a := range algos {
			refs[a] = byAlgo[a][kIndex(maxK)]
		}
		w.refs = append(w.refs, refs)
		w.prefixes = append(w.prefixes, e.EvaluatePrefixes(refs[1].nodes))
	}
	return nil
}

func (w *trials) do(i int64, ot *opTrace) sample {
	j := int(i % int64(len(w.problems)))
	pr := w.problems[j]
	s := sample{idx: i, read: -1}
	var (
		e   *core.Engine
		err error
		pls [4]*core.Placement
		pre []float64
	)
	start := time.Now()
	timed(ot, "core.build", func() { e, err = core.NewEngine(pr.p) })
	built := time.Now()
	if err != nil {
		s.failed = "build: " + err.Error()
		return s
	}
	for a, algo := range algos {
		timed(ot, "core.solve."+algo, func() { pls[a], err = solveAll(e, algo, maxK, nil) })
		if err != nil {
			s.failed = algo + ": " + err.Error()
			return s
		}
	}
	timed(ot, "core.evaluate_prefixes", func() { pre = e.EvaluatePrefixes(pls[1].Nodes) })
	end := time.Now()
	s.total, s.write, s.read = end.Sub(start), built.Sub(start), end.Sub(built)
	if ot != nil {
		ot.root("trial", start, end)
		ot.commit("trial", false)
	}
	for a, pl := range pls {
		if err := w.refs[j][a].check(pl.Nodes, pl.StepGains, pl.Attracted); err != nil {
			s.failed = fmt.Sprintf("%s %s: %v", pr.name, algos[a], err)
			return s
		}
	}
	if err := sameBits("prefixes", pre, w.prefixes[j]); err != nil {
		s.failed = fmt.Sprintf("%s: %v", pr.name, err)
	}
	return s
}

func (w *trials) finish() []failure            { return nil }
func (w *trials) counters() map[string]float64 { return nil }
func (w *trials) probeProblem() *problem       { return w.problems[0] }
func (w *trials) close()                       {}
