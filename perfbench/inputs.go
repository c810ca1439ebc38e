package main

import (
	"bytes"
	"fmt"
	"strconv"

	"roadside/internal/citygen"
	"roadside/internal/classify"
	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// Generator parameters. Every input of every workload is a pure function
// of the --seed argument and these constants; WORKLOADS.md records them
// next to the reasons each workload exists.
const (
	hotDublin  = 4 // Dublin-scale problems in the serving hot set
	hotSeattle = 4 // Seattle-scale problems in the serving hot set
	maxK       = 20

	dublinD  = 20_000 // linear-utility threshold (feet) on the Dublin-scale city
	seattleD = 2_500  // ... and on the 10,000 ft Seattle-scale one

	passengersPerBus = 100
	routeAlpha       = 0.001

	megaNodes    = 10_000 // city-trials graph size (citygen.Mega)
	megaProblems = 4
	megaD        = 20_000

	coldBlock = 32 // one never-seen pair per block: 1 request in 16 is cold
	// coldPerSecond never-seen pairs per second of the timed phase: the
	// cold blocks span 128 ops per second, below the slowest closed-loop
	// rate of serve-fullbody, so every run reaches all of them.
	coldPerSecond = 4

	driftScale = 1.5 // set_volume factor on the drifting third of the flows
)

var (
	ks    = []int{5, 10, 20}
	algos = []string{"algorithm1", "algorithm2", "combined", "lazy"}

	// megaDemand is the large-smoke local-flow shape: 2,000 hub-local
	// flows pooled on 64 hubs.
	megaDemand = citygen.LocalDemandConfig{Flows: 2_000, Hubs: 64, MinHops: 6, MaxHops: 24, VolumeMean: 3, Alpha: 1}
)

// problem is one generated instance together with its wire form.
type problem struct {
	name     string
	p        *core.Problem // K = maxK
	d        float64       // linear-utility threshold
	graphRaw []byte        // graph.WriteJSON output
	flowsRaw []byte        // flow.Set.WriteJSON output
	digest   string        // core.ProblemDigest(p)
	shops    []graph.NodeID
}

// seedOf derives a generator seed for one input from the run seed.
func seedOf(seed int64, i int64, salt uint64) int64 {
	return int64(mix(seed, i, salt) >> 2)
}

// newProblem classifies the intersections of a generated city by flow
// volume and opens the shop on a City-class node picked by shopSeed,
// exactly as the paper's experiments place the advertised shop.
func newProblem(name string, g *graph.Graph, flows []flow.Flow, d float64, shopSeed int64) (*problem, error) {
	fs, err := flow.NewSet(flows)
	if err != nil {
		return nil, fmt.Errorf("%s: flows: %w", name, err)
	}
	cls, err := classify.Classify(fs, g.NumNodes(), classify.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: classify: %w", name, err)
	}
	shops := cls.Nodes(classify.City)
	if len(shops) == 0 {
		return nil, fmt.Errorf("%s: no City-class intersection", name)
	}
	u, err := utility.ByName("linear", d)
	if err != nil {
		return nil, err
	}
	p := &core.Problem{
		Graph:   g,
		Shop:    shops[splitmix64(uint64(shopSeed))%uint64(len(shops))],
		Flows:   fs,
		Utility: u,
		K:       maxK,
	}
	var gbuf, fbuf bytes.Buffer
	if err := g.WriteJSON(&gbuf); err != nil {
		return nil, err
	}
	if err := fs.WriteJSON(&fbuf); err != nil {
		return nil, err
	}
	digest, err := core.ProblemDigest(p)
	if err != nil {
		return nil, err
	}
	return &problem{
		name:     name,
		p:        p,
		d:        d,
		graphRaw: bytes.TrimSpace(gbuf.Bytes()),
		flowsRaw: bytes.TrimSpace(fbuf.Bytes()),
		digest:   digest,
		shops:    shops,
	}, nil
}

// hotSet generates the serving workloads' eight problems: one Dublin-scale
// and one Seattle-scale city, each with four distinct bus-demand seeds.
func hotSet(seed int64) ([]*problem, error) {
	dublin, err := citygen.Dublin(seedOf(seed, 0, 10))
	if err != nil {
		return nil, err
	}
	seattle, err := citygen.Seattle(seedOf(seed, 1, 10))
	if err != nil {
		return nil, err
	}
	var out []*problem
	for j := 0; j < hotDublin+hotSeattle; j++ {
		city, d := dublin, float64(dublinD)
		if j >= hotDublin {
			city, d = seattle, seattleD
		}
		routes, err := citygen.GenerateRoutes(city, citygen.DefaultDemand(), seedOf(seed, int64(j), 11))
		if err != nil {
			return nil, err
		}
		flows, err := citygen.RoutesToFlows(routes, passengersPerBus, routeAlpha)
		if err != nil {
			return nil, err
		}
		pr, err := newProblem(fmt.Sprintf("%s-%d", city.Name, j), city.Graph, flows, d, seedOf(seed, int64(j), 12))
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// megaSet generates the city-trials problems: citygen.Mega cities with
// hub-local flows.
func megaSet(seed int64) ([]*problem, error) {
	var out []*problem
	for j := 0; j < megaProblems; j++ {
		city, err := citygen.Mega(megaNodes, seedOf(seed, int64(j), 20))
		if err != nil {
			return nil, err
		}
		flows, err := citygen.GenerateLocalFlows(city, megaDemand, seedOf(seed, int64(j), 21))
		if err != nil {
			return nil, err
		}
		pr, err := newProblem(fmt.Sprintf("mega-%d", j), city.Graph, flows, megaD, seedOf(seed, int64(j), 22))
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// variant returns pr with the shop and utility threshold replaced: the
// never-seen problems of serve-fullbody.
func (pr *problem) variant(shop graph.NodeID, d float64) (*core.Problem, error) {
	u, err := utility.ByName("linear", d)
	if err != nil {
		return nil, err
	}
	cp := *pr.p
	cp.Shop = shop
	cp.Utility = u
	return &cp, nil
}

// placeBody renders a full-body /v1/place request. The graph and flows are
// spliced in verbatim, so a request costs one copy of the pre-encoded
// problem however many distinct (shop, threshold) variants a run asks for.
func (pr *problem) placeBody(shop graph.NodeID, d float64, k int, algo string) []byte {
	b := make([]byte, 0, len(pr.graphRaw)+len(pr.flowsRaw)+160)
	b = append(b, `{"graph":`...)
	b = append(b, pr.graphRaw...)
	b = append(b, `,"flows":`...)
	b = append(b, pr.flowsRaw...)
	b = append(b, `,"utility":"linear","utility_d":`...)
	b = strconv.AppendFloat(b, d, 'g', -1, 64)
	b = append(b, `,"shop":`...)
	b = strconv.AppendInt(b, int64(shop), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"algo":"`...)
	b = append(b, algo...)
	b = append(b, `"}`...)
	return b
}

// driftFlows picks the third of pr's flows whose volume drifts.
func driftFlows(seed int64, pr *problem, j int) []int {
	n := pr.p.Flows.Len()
	var out []int
	for f := 0; f < n; f++ {
		if mix(seed, int64(j)*100_000+int64(f), 30)%3 == 0 {
			out = append(out, f)
		}
	}
	return out
}

// driftOps are the set_volume updates that move a lineage to the volume
// state of the given parity: odd scales the drifting flows by driftScale,
// even restores their generated volumes.
func driftOps(pr *problem, flows []int, parity int) []core.FlowUpdate {
	ops := make([]core.FlowUpdate, len(flows))
	for i, f := range flows {
		v := pr.p.Flows.At(f).Volume
		if parity == 1 {
			v *= driftScale
		}
		ops[i] = core.FlowUpdate{Op: core.OpSetVolume, Flow: f, Volume: v}
	}
	return ops
}
