package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"roadside/internal/flow"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// randomProblem builds a random strongly connected instance whose flows
// travel along shortest paths (the general-scenario assumption).
func randomProblem(tb testing.TB, rng *rand.Rand, nodes, flows, k int, u utility.Function) *Problem {
	tb.Helper()
	b := graph.NewBuilder(nodes, 4*nodes)
	for i := 0; i < nodes; i++ {
		b.AddNode(geo.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	for i := 0; i < nodes; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%nodes), 1+rng.Float64()*9); err != nil {
			tb.Fatal(err)
		}
	}
	for e := 0; e < 2*nodes; e++ {
		uu, vv := rng.Intn(nodes), rng.Intn(nodes)
		if uu != vv {
			_ = b.AddEdge(graph.NodeID(uu), graph.NodeID(vv), 1+rng.Float64()*9)
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	fl := make([]flow.Flow, 0, flows)
	for len(fl) < flows {
		src := graph.NodeID(rng.Intn(nodes))
		dst := graph.NodeID(rng.Intn(nodes))
		if src == dst {
			continue
		}
		path, _, err := g.ShortestPath(src, dst)
		if err != nil {
			continue
		}
		f, err := flow.New("", path, 1+rng.Float64()*99, rng.Float64())
		if err != nil {
			tb.Fatal(err)
		}
		fl = append(fl, f)
	}
	fs, err := flow.NewSet(fl)
	if err != nil {
		tb.Fatal(err)
	}
	return &Problem{
		Graph:   g,
		Shop:    graph.NodeID(rng.Intn(nodes)),
		Flows:   fs,
		Utility: u,
		K:       k,
	}
}

func TestProblemValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := randomProblem(t, rng, 20, 10, 3, utility.Linear{D: 50})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []struct {
		name string
		mod  func(p *Problem)
		err  error
	}{
		{"nilgraph", func(p *Problem) { p.Graph = nil }, ErrNilField},
		{"nilflows", func(p *Problem) { p.Flows = nil }, ErrNilField},
		{"nilutility", func(p *Problem) { p.Utility = nil }, ErrNilField},
		{"zerok", func(p *Problem) { p.K = 0 }, ErrBadBudget},
		{"badshop", func(p *Problem) { p.Shop = 999 }, ErrBadShop},
		{"badcand", func(p *Problem) { p.Candidates = []graph.NodeID{-4} }, ErrBadShop},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := *good
			c.mod(&p)
			if err := p.Validate(); !errors.Is(err, c.err) {
				t.Errorf("err = %v, want %v", err, c.err)
			}
			if _, err := NewEngine(&p); err == nil {
				t.Error("NewEngine accepted invalid problem")
			}
		})
	}
	var nilP *Problem
	if err := nilP.Validate(); !errors.Is(err, ErrNilField) {
		t.Errorf("nil problem: %v", err)
	}
}

// Property: detours are non-negative and become 0 when the shop itself is
// on the flow's path at the receiving node.
func TestDetourNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(t, rng, 30, 15, 2, utility.Linear{D: 100})
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < p.Flows.Len(); f++ {
			for _, v := range p.Flows.At(f).Path {
				d := e.Detour(f, v)
				if d < 0 {
					t.Fatalf("trial %d: negative detour %v", trial, d)
				}
				if v == p.Shop && d > 1e-9 {
					t.Fatalf("trial %d: detour at shop = %v, want 0", trial, d)
				}
			}
		}
	}
}

// Theorem 1: on shortest-path routes, the first RAP on a flow's path has
// the minimum detour among all nodes on the path.
func TestTheorem1FirstVisitHasMinDetour(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		p := randomProblem(t, rng, 40, 20, 2, utility.Linear{D: 1e9})
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < p.Flows.Len(); f++ {
			seen := make(map[graph.NodeID]bool)
			var detours []float64 // first-visit order along the path
			for _, v := range p.Flows.At(f).Path {
				if seen[v] {
					continue
				}
				seen[v] = true
				d := e.Detour(f, v)
				// Each later node must have detour >= every earlier node.
				for j, earlier := range detours {
					if d < earlier-1e-6 {
						t.Fatalf("trial %d flow %d: detour decreases along path (%v at %d vs %v at %d)",
							trial, f, earlier, j, d, len(detours))
					}
				}
				detours = append(detours, d)
			}
		}
	}
}

// Property: the objective is monotone (adding a RAP never hurts) and
// submodular (marginal gains shrink as the placement grows).
func TestObjectiveMonotoneSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		var u utility.Function
		switch trial % 3 {
		case 0:
			u = utility.Threshold{D: 60}
		case 1:
			u = utility.Linear{D: 60}
		default:
			u = utility.Sqrt{D: 60}
		}
		p := randomProblem(t, rng, 25, 12, 3, u)
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		n := p.Graph.NumNodes()
		small := []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		big := append(append([]graph.NodeID{}, small...),
			graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		x := graph.NodeID(rng.Intn(n))
		ws, wb := e.Evaluate(small), e.Evaluate(big)
		if wb < ws-1e-9 {
			t.Fatalf("trial %d: not monotone: w(S)=%v > w(S')=%v", trial, ws, wb)
		}
		gs := e.Evaluate(append(append([]graph.NodeID{}, small...), x)) - ws
		gb := e.Evaluate(append(append([]graph.NodeID{}, big...), x)) - wb
		if gb > gs+1e-9 {
			t.Fatalf("trial %d: not submodular: gain %v on small < %v on big", trial, gs, gb)
		}
	}
}

// Property: greedy step gains are consistent — the sum of step gains equals
// the final objective for Algorithm 2 and the combined greedy.
func TestStepGainsSumToObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(t, rng, 30, 15, 5, utility.Linear{D: 80})
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range []func(*Engine) (*Placement, error){Algorithm2, GreedyCombined, GreedyLazy} {
			pl, err := solver(e)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, g := range pl.StepGains {
				sum += g
			}
			if math.Abs(sum-pl.Attracted) > 1e-6 {
				t.Fatalf("trial %d: step gains sum %v != attracted %v", trial, sum, pl.Attracted)
			}
		}
	}
}

// latticeProblem builds an n×n grid of unit two-way streets carrying flows
// of volume 1, 2 or 3 with α = 1 along shortest paths. Integer detours and
// volumes make equal marginal gains common, so the greedy tie-break decides
// most steps.
func latticeProblem(tb testing.TB, rng *rand.Rand, n, flows, k int, u utility.Function) *Problem {
	tb.Helper()
	b := graph.NewBuilder(n*n, 4*n*n)
	for i := 0; i < n*n; i++ {
		b.AddNode(geo.Pt(float64(i%n), float64(i/n)))
	}
	for i := 0; i < n*n; i++ {
		if i%n+1 < n {
			if err := b.AddStreet(graph.NodeID(i), graph.NodeID(i+1), 1); err != nil {
				tb.Fatal(err)
			}
		}
		if i+n < n*n {
			if err := b.AddStreet(graph.NodeID(i), graph.NodeID(i+n), 1); err != nil {
				tb.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	fl := make([]flow.Flow, 0, flows)
	for len(fl) < flows {
		src, dst := graph.NodeID(rng.Intn(n*n)), graph.NodeID(rng.Intn(n*n))
		if src == dst {
			continue
		}
		path, _, err := g.ShortestPath(src, dst)
		if err != nil {
			tb.Fatal(err)
		}
		f, err := flow.New("", path, float64(1+rng.Intn(3)), 1)
		if err != nil {
			tb.Fatal(err)
		}
		fl = append(fl, f)
	}
	fs, err := flow.NewSet(fl)
	if err != nil {
		tb.Fatal(err)
	}
	return &Problem{Graph: g, Shop: graph.NodeID(rng.Intn(n * n)), Flows: fs, Utility: u, K: k}
}

// GreedyLazy and GreedyLazyWarm are evaluation strategies of the combined
// rule, so they must reproduce GreedyCombined bit for bit — nodes, step
// gains and objective — on random instances and on tie-heavy lattices,
// where only a heap ordered like the scan picks the same winner.
func TestLazyMatchesCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var problems []*Problem
	for trial := 0; trial < 15; trial++ {
		problems = append(problems, randomProblem(t, rng, 35, 20, 6, utility.Linear{D: 90}))
	}
	for trial := 0; trial < 40; trial++ {
		var u utility.Function = utility.Threshold{D: 2}
		if trial%2 == 1 {
			u = utility.Linear{D: 4}
		}
		problems = append(problems, latticeProblem(t, rng, 5+rng.Intn(5), 12, 4, u))
	}
	for trial, p := range problems {
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		comb, err := GreedyCombined(e)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := GreedyLazy(e)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := GreedyLazyWarm(e, e.NewWarm())
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			name string
			pl   *Placement
		}{{"lazy", lazy}, {"warm lazy", warm}} {
			if !reflect.DeepEqual(got.pl.Nodes, comb.Nodes) {
				t.Fatalf("trial %d: %s nodes %v != combined %v", trial, got.name, got.pl.Nodes, comb.Nodes)
			}
			for i := range comb.StepGains {
				if math.Float64bits(got.pl.StepGains[i]) != math.Float64bits(comb.StepGains[i]) {
					t.Fatalf("trial %d: %s step %d gain %v != combined %v",
						trial, got.name, i, got.pl.StepGains[i], comb.StepGains[i])
				}
			}
			if math.Float64bits(got.pl.Attracted) != math.Float64bits(comb.Attracted) {
				t.Fatalf("trial %d: %s objective %v != combined %v", trial, got.name, got.pl.Attracted, comb.Attracted)
			}
		}
	}
}

// When the budget exceeds the number of candidates with any gain to give,
// GreedyLazy's zero-gain pruning must stop the step loop early instead of
// padding the placement with useless RAPs. Under a threshold utility every
// flow yields gain at most once, so useful steps are capped by the flow
// count and a budget above it is guaranteed to exhaust the queue.
func TestLazyStopsWhenGainsExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const flows = 8
	p := randomProblem(t, rng, 30, flows, 25, utility.Threshold{D: 1e6})
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := GreedyLazy(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.Nodes) == 0 || len(lazy.Nodes) > flows {
		t.Fatalf("placed %d RAPs, want 1..%d (budget %d exceeds useful candidates)",
			len(lazy.Nodes), flows, p.K)
	}
	for i, g := range lazy.StepGains {
		if g <= 0 {
			t.Fatalf("step %d has non-positive gain %v", i, g)
		}
	}
	// The truncated placement still attains the full greedy objective.
	comb, err := GreedyCombined(e)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lazy.Attracted-comb.Attracted) > 1e-9 {
		t.Fatalf("lazy %v != combined %v", lazy.Attracted, comb.Attracted)
	}
}

// Respecting an explicit candidate set: placements only use listed nodes.
func TestCandidateRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randomProblem(t, rng, 30, 15, 3, utility.Linear{D: 80})
	p.Candidates = []graph.NodeID{1, 2, 3}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []func(*Engine) (*Placement, error){Algorithm1, Algorithm2, GreedyCombined} {
		pl, err := solver(e)
		if err != nil {
			t.Fatal(err)
		}
		// Solvers stop at the zero-gain point, so the placement may be
		// shorter than both k and the candidate list; whatever is placed
		// must come from the candidate set and carry a positive gain.
		if len(pl.Nodes) == 0 || len(pl.Nodes) > 3 {
			t.Fatalf("placed %d, want 1..3", len(pl.Nodes))
		}
		for _, v := range pl.Nodes {
			if v < 1 || v > 3 {
				t.Errorf("placement %v escapes candidate set", pl.Nodes)
			}
		}
		for _, g := range pl.StepGains {
			if g <= 0 {
				t.Errorf("zero-gain step recorded: %v", pl.StepGains)
			}
		}
	}
	// GreedyLazy prunes zero-gain candidates the same way; what it places
	// must still come from the candidate set and match the combined
	// greedy's objective.
	lazy, err := GreedyLazy(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.Nodes) == 0 || len(lazy.Nodes) > 3 {
		t.Fatalf("lazy placed %v, want 1..3 candidates", lazy.Nodes)
	}
	for _, v := range lazy.Nodes {
		if v < 1 || v > 3 {
			t.Errorf("lazy placement %v escapes candidate set", lazy.Nodes)
		}
	}
	comb, err := GreedyCombined(e)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lazy.Attracted-comb.Attracted) > 1e-9 {
		t.Errorf("lazy attracted %v != combined %v", lazy.Attracted, comb.Attracted)
	}
}

// K larger than the candidate set stops early instead of reusing nodes.
func TestBudgetExceedsCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := randomProblem(t, rng, 20, 10, 5, utility.Linear{D: 80})
	p.Candidates = []graph.NodeID{4, 7}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []func(*Engine) (*Placement, error){Algorithm1, Algorithm2, GreedyCombined} {
		pl, err := solver(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.Nodes) != 2 {
			t.Fatalf("placed %v, want exactly the 2 candidates", pl.Nodes)
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range pl.Nodes {
			if seen[v] {
				t.Fatalf("duplicate placement in %v", pl.Nodes)
			}
			seen[v] = true
		}
	}
	// GreedyLazy stops once every remaining candidate's gain is zero, so it
	// places at most the two candidates and never duplicates.
	lazy, err := GreedyLazy(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.Nodes) > 2 {
		t.Fatalf("lazy placed %v, want at most the 2 candidates", lazy.Nodes)
	}
	seen := map[graph.NodeID]bool{}
	for _, v := range lazy.Nodes {
		if seen[v] {
			t.Fatalf("duplicate placement in %v", lazy.Nodes)
		}
		seen[v] = true
	}
}

// FlowDetour agrees with the per-node Detour minimum.
func TestFlowDetour(t *testing.T) {
	e, err := NewEngine(fig4Problem(t, utility.Linear{D: 6}))
	if err != nil {
		t.Fatal(err)
	}
	// T2,5 with RAPs at V3 and V2: min(4, 2) = 2.
	if got := e.FlowDetour(0, []graph.NodeID{2, 1}); got != 2 {
		t.Errorf("FlowDetour = %v, want 2", got)
	}
	// No RAP on path.
	if got := e.FlowDetour(0, []graph.NodeID{5}); !math.IsInf(got, 1) {
		t.Errorf("FlowDetour = %v, want +Inf", got)
	}
}

// StandaloneGain equals Evaluate of a singleton.
func TestStandaloneGain(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := randomProblem(t, rng, 30, 15, 1, utility.Sqrt{D: 70})
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 30; v++ {
		want := e.Evaluate([]graph.NodeID{graph.NodeID(v)})
		if got := e.StandaloneGain(graph.NodeID(v)); math.Abs(got-want) > 1e-9 {
			t.Fatalf("StandaloneGain(%d) = %v, want %v", v, got, want)
		}
	}
}
