package invariant

import (
	"errors"
	"fmt"
	"math"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/opt"
	"roadside/internal/sim"
	"roadside/internal/stats"
	"roadside/internal/utility"
)

// Relative tolerance for comparisons that accumulate floating-point sums in
// different orders (re-built engines, scaled volumes, relabeled graphs).
// Contracts documented as bit-identical are compared exactly instead.
const tol = 1e-9

func init() {
	register(Invariant{Name: "monotone",
		Doc:   "w is monotone: every prefix extension of a placement never lowers the objective, and w(empty) = 0",
		Check: checkMonotone})
	register(Invariant{Name: "submodular",
		Doc:   "w is submodular: a probe node's marginal gain never increases as the placed set grows",
		Check: checkSubmodular})
	register(Invariant{Name: "prefix-consistency",
		Doc:   "EvaluatePrefixes(S)[i] equals Evaluate(S[:i]) bit-for-bit at every prefix",
		Check: checkPrefixConsistency})
	register(Invariant{Name: "parallel-identity",
		Doc:   "engine arenas are bit-identical across construction worker counts (1 vs 2 vs 8)",
		Check: checkParallelIdentity})
	register(Invariant{Name: "detour-triangle",
		Doc:   "the detour identity d' + d'' - d''' matches independent shortest-path recomputation and is never negative",
		Check: checkDetourTriangle})
	register(Invariant{Name: "detour-lookup",
		Doc:   "binary-searched Detour agrees with the visit arena and returns +Inf off-path",
		Check: checkDetourLookup})
	register(Invariant{Name: "utility-dominance",
		Doc:   "threshold >= linear >= sqrt pointwise at the instance's D, and the same order holds for objectives",
		Check: checkUtilityDominance})
	register(Invariant{Name: "volume-scaling",
		Doc:   "doubling every flow volume doubles the objective of any placement",
		Check: checkVolumeScaling})
	register(Invariant{Name: "relabel-invariance",
		Doc:   "permuting node IDs leaves the objective of the mapped placement unchanged",
		Check: checkRelabelInvariance})
	register(Invariant{Name: "greedy-approx",
		Doc:   "on small instances under the threshold utility, Algorithm 1 attains >= (1-1/e) of the exhaustive optimum",
		Check: checkGreedyApprox})
	register(Invariant{Name: "zero-gain-termination",
		Doc:   "all four solvers stop exactly when gains hit zero: positive step gains, no residual gain on early stop, lazy and warm lazy bit-identical to combined",
		Check: checkZeroGainTermination})
	register(Invariant{Name: "sim-convergence",
		Doc:   "at zero radio range the simulator's expectation equals Evaluate and its mean lands within 6 standard errors",
		Check: checkSimConvergence})
	register(Invariant{Name: "many-to-many-identity",
		Doc:   "ManyToMany rectangles are Float64bits-identical to per-destination Dijkstra on instance-seeded query sets",
		Check: checkManyToManyIdentity})
}

// samplePlacement draws m distinct effective candidates of the instance.
func samplePlacement(inst *Instance, rng int, m int) []graph.NodeID {
	r := stats.NewRand(inst.Seed, rng)
	cands := effectiveCandidates(inst.Problem)
	perm := r.Perm(len(cands))
	if m > len(cands) {
		m = len(cands)
	}
	out := make([]graph.NodeID, m)
	for i := 0; i < m; i++ {
		out[i] = cands[perm[i]]
	}
	return out
}

func effectiveCandidates(p *core.Problem) []graph.NodeID {
	if len(p.Candidates) > 0 {
		return p.Candidates
	}
	all := make([]graph.NodeID, p.Graph.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	return all
}

func checkMonotone(inst *Instance) error {
	e, err := inst.Engine()
	if err != nil {
		return err
	}
	nodes := samplePlacement(inst, 1, 8)
	pre := e.EvaluatePrefixes(nodes)
	//lint:ignore floatcmp the empty placement banks no gains, so the sum is exactly zero
	if pre[0] != 0 {
		return fmt.Errorf("w(empty) = %v, want 0", pre[0])
	}
	for i := 1; i < len(pre); i++ {
		if pre[i] < pre[i-1]-tol*(1+math.Abs(pre[i-1])) {
			return fmt.Errorf("objective dropped adding node %d: w=%v after %v (placement %v)",
				nodes[i-1], pre[i], pre[i-1], nodes[:i])
		}
	}
	return nil
}

func checkSubmodular(inst *Instance) error {
	e, err := inst.Engine()
	if err != nil {
		return err
	}
	seq := samplePlacement(inst, 2, 10)
	if len(seq) < 3 {
		return nil // too few candidates to form a chain plus probes
	}
	chain, probes := seq[:len(seq)/2], seq[len(seq)/2:]
	st := e.NewState()
	prev := make([]float64, len(probes))
	for i, x := range probes {
		u, c := st.Gain(x)
		prev[i] = u + c
	}
	for step, v := range chain {
		st.Place(v)
		for i, x := range probes {
			u, c := st.Gain(x)
			g := u + c
			if g > prev[i]+tol*(1+math.Abs(prev[i])) {
				return fmt.Errorf("marginal gain of node %d rose from %v to %v after placing %v",
					x, prev[i], g, chain[:step+1])
			}
			prev[i] = g
		}
	}
	return nil
}

func checkPrefixConsistency(inst *Instance) error {
	e, err := inst.Engine()
	if err != nil {
		return err
	}
	nodes := samplePlacement(inst, 3, 8)
	pre := e.EvaluatePrefixes(nodes)
	for i := 0; i <= len(nodes); i++ {
		direct := e.Evaluate(nodes[:i])
		//lint:ignore floatcmp EvaluatePrefixes documents bit-identity with per-prefix Evaluate
		if direct != pre[i] {
			return fmt.Errorf("EvaluatePrefixes[%d] = %v but Evaluate(S[:%d]) = %v", i, pre[i], i, direct)
		}
	}
	return nil
}

func checkParallelIdentity(inst *Instance) error {
	serial, err := core.NewEngineWorkers(inst.Problem, 1)
	if err != nil {
		return err
	}
	for _, workers := range []int{2, 8} {
		par, err := core.NewEngineWorkers(inst.Problem, workers)
		if err != nil {
			return err
		}
		if s, p := serial.Fingerprint(), par.Fingerprint(); s != p {
			return fmt.Errorf("arena fingerprint diverges: workers=1 %x vs workers=%d %x", s, workers, p)
		}
	}
	return nil
}

// placementsIdentical compares two placements under the bit-identity
// contract: same nodes, same step gains to the last bit, same objective.
func placementsIdentical(a, b *core.Placement) error {
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("placement lengths %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return fmt.Errorf("step %d chose node %d vs %d", i, a.Nodes[i], b.Nodes[i])
		}
		//lint:ignore floatcmp the solvers compared here document bit-identical step gains
		if a.StepGains[i] != b.StepGains[i] {
			return fmt.Errorf("step %d gain %v vs %v", i, a.StepGains[i], b.StepGains[i])
		}
	}
	//lint:ignore floatcmp identical placements evaluate identically by construction
	if a.Attracted != b.Attracted {
		return fmt.Errorf("objective %v vs %v", a.Attracted, b.Attracted)
	}
	return nil
}

// spDist returns the shortest-path distance from src to dst, +Inf when
// unreachable.
func spDist(g *graph.Graph, src, dst graph.NodeID) (float64, error) {
	if src == dst {
		return 0, nil
	}
	_, d, err := g.ShortestPath(src, dst)
	if err != nil {
		if errors.Is(err, graph.ErrUnreachable) {
			return math.Inf(1), nil
		}
		return 0, err
	}
	return d, nil
}

func checkDetourTriangle(inst *Instance) error {
	e, err := inst.Engine()
	if err != nil {
		return err
	}
	p := inst.Problem
	g := p.Graph
	shops := append([]graph.NodeID{p.Shop}, p.ExtraShops...)
	r := stats.NewRand(inst.Seed, 5)
	for sample := 0; sample < 12; sample++ {
		f := r.Intn(p.Flows.Len())
		fl := p.Flows.At(f)
		v := fl.Path[r.Intn(len(fl.Path))]
		got := e.Detour(f, v)
		if got < 0 {
			return fmt.Errorf("flow %d node %d: negative detour %v", f, v, got)
		}
		// Independent oracle: recompute d' + d'' - d''' from scratch via
		// point-to-point shortest paths, minimizing over shop branches.
		dTriple, err := spDist(g, v, fl.Dest)
		if err != nil {
			return err
		}
		via := math.Inf(1)
		for _, s := range shops {
			dPrime, err := spDist(g, v, s)
			if err != nil {
				return err
			}
			dDouble, err := spDist(g, s, fl.Dest)
			if err != nil {
				return err
			}
			if d := dPrime + dDouble; d < via {
				via = d
			}
		}
		want := math.Inf(1)
		if !math.IsInf(via, 1) && !math.IsInf(dTriple, 1) {
			want = math.Max(via-dTriple, 0)
		}
		if math.IsInf(want, 1) != math.IsInf(got, 1) ||
			(!math.IsInf(want, 1) && !stats.ApproxEqual(got, want, tol)) {
			return fmt.Errorf("flow %d node %d: engine detour %v, oracle d'+d''-d''' = %v", f, v, got, want)
		}
	}
	return nil
}

func checkDetourLookup(inst *Instance) error {
	e, err := inst.Engine()
	if err != nil {
		return err
	}
	p := inst.Problem
	for v := 0; v < p.Graph.NumNodes(); v++ {
		for _, visit := range e.VisitsAt(graph.NodeID(v)) {
			got := e.Detour(visit.Flow, graph.NodeID(v))
			//lint:ignore floatcmp the flow arena and visit arena are assembled from the same values
			if got != visit.Detour {
				return fmt.Errorf("node %d flow %d: Detour %v but visit arena holds %v",
					v, visit.Flow, got, visit.Detour)
			}
		}
	}
	// Off-path lookups must be +Inf: sample (flow, node) pairs where the
	// node is not on the flow's path.
	r := stats.NewRand(inst.Seed, 6)
	for sample := 0; sample < 10; sample++ {
		f := r.Intn(p.Flows.Len())
		fl := p.Flows.At(f)
		v := graph.NodeID(r.Intn(p.Graph.NumNodes()))
		onPath := false
		for _, pv := range fl.Path {
			if pv == v {
				onPath = true
				break
			}
		}
		if onPath {
			continue
		}
		if d := e.Detour(f, v); !math.IsInf(d, 1) {
			return fmt.Errorf("flow %d does not pass node %d but Detour = %v", f, v, d)
		}
	}
	return nil
}

func checkUtilityDominance(inst *Instance) error {
	d := inst.Problem.Utility.Threshold()
	thr := utility.Threshold{D: d}
	lin := utility.Linear{D: d}
	sq := utility.Sqrt{D: d}
	if err := utility.Dominates(thr, lin, 1, 128); err != nil {
		return err
	}
	if err := utility.Dominates(lin, sq, 1, 128); err != nil {
		return err
	}
	// Pointwise dominance must lift to the objective for any placement.
	nodes := samplePlacement(inst, 7, 5)
	vals := make([]float64, 0, 3)
	for _, u := range []utility.Function{thr, lin, sq} {
		p := *inst.Problem
		p.Utility = u
		e, err := core.NewEngine(&p)
		if err != nil {
			return err
		}
		vals = append(vals, e.Evaluate(nodes))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+tol*(1+math.Abs(vals[i-1])) {
			return fmt.Errorf("objective order violated: threshold/linear/sqrt = %v", vals)
		}
	}
	return nil
}

func checkVolumeScaling(inst *Instance) error {
	e, err := inst.Engine()
	if err != nil {
		return err
	}
	nodes := samplePlacement(inst, 8, 5)
	base := e.Evaluate(nodes)
	scaled, err := scaleVolumes(inst.Problem, 2)
	if err != nil {
		return err
	}
	e2, err := core.NewEngine(scaled)
	if err != nil {
		return err
	}
	if got := e2.Evaluate(nodes); !stats.ApproxEqual(got, 2*base, 1e-12) {
		return fmt.Errorf("w(S; 2*vol) = %v, want 2*w(S; vol) = %v", got, 2*base)
	}
	return nil
}

// scaleVolumes returns a copy of p with every flow volume multiplied by c.
func scaleVolumes(p *core.Problem, c float64) (*core.Problem, error) {
	flows := p.Flows.Flows()
	for i := range flows {
		flows[i].Volume *= c
	}
	set, err := flow.NewSet(flows)
	if err != nil {
		return nil, err
	}
	cp := *p
	cp.Flows = set
	return &cp, nil
}

func checkRelabelInvariance(inst *Instance) error {
	e, err := inst.Engine()
	if err != nil {
		return err
	}
	p := inst.Problem
	g := p.Graph
	n := g.NumNodes()
	r := stats.NewRand(inst.Seed, 9)
	// InducedSubgraph over a permutation of all nodes is exactly a
	// relabeling: old node keep[i] becomes new node i.
	keep := make([]graph.NodeID, n)
	for i, v := range r.Perm(n) {
		keep[i] = graph.NodeID(v)
	}
	sub, remap, err := g.InducedSubgraph(keep)
	if err != nil {
		return err
	}
	mapNodes := func(ids []graph.NodeID) []graph.NodeID {
		out := make([]graph.NodeID, len(ids))
		for i, v := range ids {
			out[i] = remap[v]
		}
		return out
	}
	flows := p.Flows.Flows()
	for i := range flows {
		path := mapNodes(flows[i].Path)
		flows[i].Path = path
		flows[i].Origin = path[0]
		flows[i].Dest = path[len(path)-1]
	}
	set, err := flow.NewSet(flows)
	if err != nil {
		return err
	}
	mp := &core.Problem{
		Graph:      sub,
		Shop:       remap[p.Shop],
		ExtraShops: mapNodes(p.ExtraShops),
		Flows:      set,
		Utility:    p.Utility,
		K:          p.K,
		Candidates: mapNodes(p.Candidates),
	}
	me, err := core.NewEngine(mp)
	if err != nil {
		return err
	}
	nodes := samplePlacement(inst, 10, 5)
	want := e.Evaluate(nodes)
	if got := me.Evaluate(mapNodes(nodes)); !stats.ApproxEqual(got, want, tol) {
		return fmt.Errorf("relabeled objective %v, original %v (placement %v)", got, want, nodes)
	}
	return nil
}

func checkGreedyApprox(inst *Instance) error {
	p := *inst.Problem
	// Theorem 3's 1-1/e bound is stated for the threshold utility; check it
	// there regardless of the instance's own utility family.
	p.Utility = utility.Threshold{D: p.Utility.Threshold()}
	cands := len(effectiveCandidates(&p))
	if cands > 20 || p.K > 4 {
		return nil // exhaustive oracle too expensive; breadth comes from other instances
	}
	e, err := core.NewEngine(&p)
	if err != nil {
		return err
	}
	greedy, err := core.Algorithm1(e)
	if err != nil {
		return err
	}
	best, err := opt.Exhaustive(e, opt.Options{Budget: 500_000})
	if errors.Is(err, opt.ErrBudget) {
		return nil
	}
	if err != nil {
		return err
	}
	bound := (1 - 1/math.E) * best.Attracted
	if greedy.Attracted < bound-tol*(1+best.Attracted) {
		return fmt.Errorf("Algorithm 1 attracted %v < (1-1/e)*OPT = %v (OPT %v)",
			greedy.Attracted, bound, best.Attracted)
	}
	// The oracle itself must dominate every greedy.
	for _, run := range []func(*core.Engine) (*core.Placement, error){
		core.Algorithm2, core.GreedyCombined, core.GreedyLazy,
	} {
		pl, err := run(e)
		if err != nil {
			return err
		}
		if pl.Attracted > best.Attracted+tol*(1+best.Attracted) {
			return fmt.Errorf("a greedy (%v) beat the exhaustive optimum (%v)", pl.Attracted, best.Attracted)
		}
	}
	return nil
}

func checkZeroGainTermination(inst *Instance) error {
	e, err := inst.Engine()
	if err != nil {
		return err
	}
	p := inst.Problem
	type solver struct {
		name string
		run  func(*core.Engine) (*core.Placement, error)
	}
	solvers := []solver{
		{"algorithm1", core.Algorithm1},
		{"algorithm2", core.Algorithm2},
		{"combined", core.GreedyCombined},
		{"lazy", core.GreedyLazy},
	}
	var combined, lazy *core.Placement
	for _, sv := range solvers {
		pl, err := sv.run(e)
		if err != nil {
			return err
		}
		if len(pl.Nodes) > p.K {
			return fmt.Errorf("%s placed %d RAPs with budget %d", sv.name, len(pl.Nodes), p.K)
		}
		if len(pl.StepGains) != len(pl.Nodes) {
			return fmt.Errorf("%s recorded %d gains for %d nodes", sv.name, len(pl.StepGains), len(pl.Nodes))
		}
		for i, g := range pl.StepGains {
			if g <= 0 {
				return fmt.Errorf("%s step %d banked non-positive gain %v", sv.name, i, g)
			}
		}
		if sv.name != "algorithm1" && len(pl.Nodes) < p.K {
			// Early stop: every remaining candidate's residual marginal
			// gain at the final state must be (numerically) zero.
			// Algorithm 1 is exempt — it stops when its *coverage*
			// objective is exhausted, which is not the full marginal gain.
			st := e.NewState()
			for _, v := range pl.Nodes {
				st.Place(v)
			}
			for _, v := range effectiveCandidates(p) {
				u, c := st.Gain(v)
				if u+c > tol {
					return fmt.Errorf("%s stopped at %d/%d RAPs but node %d still gains %v",
						sv.name, len(pl.Nodes), p.K, v, u+c)
				}
			}
		}
		switch sv.name {
		case "combined":
			combined = pl
		case "lazy":
			lazy = pl
		}
	}
	if err := placementsIdentical(combined, lazy); err != nil {
		return fmt.Errorf("lazy diverges from combined: %w", err)
	}
	warm, err := core.GreedyLazyWarm(e, e.NewWarm())
	if err != nil {
		return err
	}
	if err := placementsIdentical(combined, warm); err != nil {
		return fmt.Errorf("warm lazy diverges from combined: %w", err)
	}
	return nil
}

func checkSimConvergence(inst *Instance) error {
	e, err := inst.Engine()
	if err != nil {
		return err
	}
	pl, err := core.GreedyCombined(e)
	if err != nil {
		return err
	}
	const days = 200
	res, err := sim.Run(e, pl.Nodes, sim.Config{RadioRangeFeet: 0, Days: days, Seed: inst.Seed})
	if err != nil {
		return err
	}
	want := e.Evaluate(pl.Nodes)
	if !stats.ApproxEqual(res.Expected, want, 1e-12) {
		return fmt.Errorf("simulator expectation %v != Evaluate %v at zero radio range", res.Expected, want)
	}
	// The daily total is a sum of independent Binomial(round(vol), p)
	// draws; with integer generated volumes its mean is exactly the
	// objective. Bound the sample mean by six standard errors computed from
	// the *theoretical* variance so the check cannot flake on a lucky
	// low-variance sample.
	p := inst.Problem
	var variance float64
	for f := 0; f < p.Flows.Len(); f++ {
		fl := p.Flows.At(f)
		prob := p.Utility.Prob(e.FlowDetour(f, pl.Nodes), fl.Alpha)
		n := math.Round(fl.Volume)
		variance += n * prob * (1 - prob)
	}
	se := math.Sqrt(variance / days)
	if diff := math.Abs(res.MeanCustomers - res.Expected); diff > 6*se+1e-9 {
		return fmt.Errorf("simulated mean %v is %v away from expectation %v (allowed %v)",
			res.MeanCustomers, diff, res.Expected, 6*se+1e-9)
	}
	return nil
}

func checkManyToManyIdentity(inst *Instance) error {
	g := inst.Problem.Graph
	n := g.NumNodes()
	r := stats.NewRand(inst.Seed, 31)
	sources := make([]graph.NodeID, 1+r.Intn(n))
	for i := range sources {
		sources[i] = graph.NodeID(r.Intn(n))
	}
	targets := make([]graph.NodeID, 1+r.Intn(1+n/2))
	for i := range targets {
		targets[i] = graph.NodeID(r.Intn(n))
	}
	rect, err := g.ManyToMany(sources, targets, 1)
	if err != nil {
		return err
	}
	for j, tgt := range targets {
		tree, err := g.ShortestTo(tgt)
		if err != nil {
			return err
		}
		for i, s := range sources {
			got, want := rect.Dist(i, j), tree.Dist(s)
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("m2m dist(%d->%d) = %v, Dijkstra %v", s, tgt, got, want)
			}
		}
	}
	// Parallel identity: the fan-out may change speed, never bits.
	for _, workers := range []int{2, 8} {
		pr, err := g.ManyToMany(sources, targets, workers)
		if err != nil {
			return err
		}
		for i := range sources {
			for j := range targets {
				if math.Float64bits(pr.Dist(i, j)) != math.Float64bits(rect.Dist(i, j)) {
					return fmt.Errorf("m2m workers=%d: dist(%d,%d) differs from serial", workers, i, j)
				}
			}
		}
	}
	// Grouped form, as the engine consumes it: per-target source subsets.
	groups := make([]graph.M2MGroup, len(targets))
	for gi, tgt := range targets {
		k := 1 + r.Intn(len(sources))
		groups[gi] = graph.M2MGroup{Target: tgt, Sources: sources[:k]}
	}
	cols, err := g.ManyToManyGrouped(groups, 4)
	if err != nil {
		return err
	}
	for gi, grp := range groups {
		for k, s := range grp.Sources {
			// The rectangle already verified against Dijkstra above; the
			// grouped answer must match it bit-for-bit.
			si := k // sources[:k'] keeps original positions
			if math.Float64bits(cols[gi][k]) != math.Float64bits(rect.Dist(si, gi)) {
				return fmt.Errorf("grouped m2m group %d source %d = %v, rect %v",
					gi, s, cols[gi][k], rect.Dist(si, gi))
			}
		}
	}
	return nil
}
