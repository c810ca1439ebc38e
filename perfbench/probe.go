package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/serve"
)

// probeReps is how often the probe calls each layer: enough for a median
// with minBeyond samples above it.
const probeReps = 2*minBeyond + 1

// probeResult carries the probe's own figures: the GOMAXPROCS=1 speedups
// and the engine's arena size.
type probeResult struct {
	buildP1Speedup float64
	solveP1Speedup float64
	arenaKiB       float64
	touched        float64
	requestKiB     float64
}

// probe calls every layer on one of the workload's own problems, so a
// traced run reports a per-layer figure even for layers its ops never
// reach (the ops' own spans take precedence wherever they are numerous
// enough). It also times the engine build and the eager solvers at
// GOMAXPROCS=1 against the default, which is the evidence the
// parallel-scan question needs. Observation is paused for the
// single-core half so build phases stay all-core figures.
func probe(t *tracer, ob *observer, seed int64, pr *problem) (probeResult, error) {
	var res probeResult
	drift := driftOps(pr, driftFlows(seed, pr, 0), 1)
	body := pr.placeBody(pr.p.Shop, pr.d, maxK, "algorithm2")
	res.requestKiB = float64(len(body)) / 1024
	if t.servingOps() < 2*minBeyond {
		if err := probeServe(t, pr, body); err != nil {
			return res, err
		}
	}
	var buildN, solveN []time.Duration
	for r := 0; r < probeReps; r++ {
		var (
			req  serve.PlaceRequest
			g    *graph.Graph
			fs   *flow.Set
			e    *core.Engine
			errs []error
		)
		t.probeCall("serve.decode", func() { errs = append(errs, json.Unmarshal(body, &req)) })
		t.probeCall("graph.read_json", func() {
			var err error
			g, err = graph.ReadJSON(bytes.NewReader(req.Graph))
			errs = append(errs, err)
		})
		t.probeCall("flow.read_json", func() {
			var err error
			fs, err = flow.ReadJSON(bytes.NewReader(req.Flows))
			errs = append(errs, err)
		})
		if err := firstErr(errs); err != nil {
			return res, fmt.Errorf("probe decode: %w", err)
		}
		t.probeCall("flow.validate", func() { errs = append(errs, fs.ValidateAll(g)) })
		p := *pr.p
		p.Graph, p.Flows = g, fs
		t.probeCall("core.digest", func() {
			_, err := core.ProblemDigest(&p)
			errs = append(errs, err)
		})
		start := time.Now()
		t.probeCall("core.build", func() {
			var err error
			e, err = core.NewEngine(&p)
			errs = append(errs, err)
		})
		buildN = append(buildN, time.Since(start))
		if err := firstErr(errs); err != nil {
			return res, fmt.Errorf("probe build: %w", err)
		}
		res.arenaKiB = float64(e.ArenaBytes()) / 1024
		var pl *core.Placement
		var eager time.Duration
		for _, algo := range algos {
			start := time.Now()
			t.probeCall("core.solve."+algo, func() {
				var err error
				pl, err = solveAll(e, algo, maxK, nil)
				errs = append(errs, err)
			})
			if algo != "lazy" {
				eager += time.Since(start)
			}
		}
		solveN = append(solveN, eager)
		warm := e.NewWarm()
		t.probeCall("core.solve.lazy_warm", func() {
			var err error
			_, err = solveAll(e, "lazy", maxK, warm)
			errs = append(errs, err)
		})
		t.probeCall("core.evaluate", func() { evaluate(e, pl.Nodes) })
		t.probeCall("core.evaluate_prefixes", func() { e.EvaluatePrefixes(pl.Nodes) })
		var (
			next    *core.Engine
			touched []graph.NodeID
		)
		t.probeCall("core.apply_copy", func() {
			var err error
			next, touched, err = e.ApplyCopy(drift)
			errs = append(errs, err)
		})
		if err := firstErr(errs); err != nil {
			return res, fmt.Errorf("probe solve/apply: %w", err)
		}
		res.touched = float64(len(touched))
		t.probeCall("core.warm_refresh", func() { warm.Clone().Refresh(next, touched) })
		t.probeCall("serve.encode", func() {
			_, err := json.Marshal(&serve.PlaceResponse{Digest: pr.digest, Cache: serve.CacheHit,
				Algo: "algorithm2", K: maxK, Nodes: pl.Nodes, Attracted: pl.Attracted, StepGains: pl.StepGains})
			errs = append(errs, err)
		})
		if err := firstErr(errs); err != nil {
			return res, fmt.Errorf("probe: %w", err)
		}
	}

	ob.on.Store(false)
	defer ob.on.Store(true)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var build1, solve1 []time.Duration
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		e, err := core.NewEngine(pr.p)
		if err != nil {
			return res, err
		}
		build1 = append(build1, time.Since(start))
		start = time.Now()
		for _, algo := range algos[:3] {
			if _, err := solveAll(e, algo, maxK, nil); err != nil {
				return res, err
			}
		}
		solve1 = append(solve1, time.Since(start))
	}
	var err error
	if res.buildP1Speedup, err = ratioOfMedians(build1, buildN); err != nil {
		return res, err
	}
	res.solveP1Speedup, err = ratioOfMedians(solve1, solveN)
	return res, err
}

// probeServe sends the probe problem as full-body places to a fresh
// server, so a workload without serving ops still reports what the serve
// layer costs on its inputs: the first request builds, the rest hit.
func probeServe(t *tracer, pr *problem, body []byte) error {
	sv := newServer()
	defer sv.close()
	for r := 0; r <= probeReps; r++ {
		code, out, start, end := sv.call("/v1/place", body)
		var resp serve.PlaceResponse
		if err := decodeJSON(code, out, &resp); err != nil {
			return fmt.Errorf("probe place: %w", err)
		}
		ot := &opTrace{tr: t, op: -1, spans: []span{{Op: -1, Parent: -1}}}
		ot.root("serve.place", start, end)
		var req serve.PlaceRequest
		p, err := replayProblem(ot, body, &req, &req.ProblemSpec)
		if err != nil {
			return err
		}
		var e *core.Engine
		ot.child("core.build", func() { e, err = core.NewEngine(p) })
		if err != nil {
			return err
		}
		ot.child("core.solve.algorithm2", func() { _, err = solveAll(e, "algorithm2", maxK, nil) })
		if err != nil {
			return err
		}
		ot.child("serve.encode", func() { _, err = json.Marshal(&resp) })
		if err != nil {
			return err
		}
		self := ot.spans[0].dur()
		for _, s := range ot.spans[1:] {
			if r > 0 && s.Name == "core.build" {
				continue // a hit does not build; the replay built only to solve
			}
			self -= s.dur()
		}
		if r > 0 {
			t.probe["serve.self"] = append(t.probe["serve.self"], max(0, self))
		}
	}
	return nil
}

func ratioOfMedians(num, den []time.Duration) (float64, error) {
	a, err := medianMS(num)
	if err != nil {
		return 0, err
	}
	b, err := medianMS(den)
	if err != nil {
		return 0, err
	}
	return a.Value / b.Value, nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// solveAll runs a solver the way the server does, at the default worker
// count: budget the engine, then dispatch by name (lazy seeded from warm
// when one is given).
func solveAll(e *core.Engine, algo string, k int, warm *core.Warm) (*core.Placement, error) {
	b, err := e.WithBudget(k)
	if err != nil {
		return nil, err
	}
	switch algo {
	case "algorithm1":
		return core.Algorithm1(b)
	case "algorithm2":
		return core.Algorithm2(b)
	case "combined":
		return core.GreedyCombined(b)
	case "lazy":
		if warm != nil {
			return core.GreedyLazyWarm(b, warm)
		}
		return core.GreedyLazy(b)
	}
	return nil, fmt.Errorf("unknown algo %q", algo)
}
