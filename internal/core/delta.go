package core

import (
	"errors"
	"fmt"
	"sort"

	"roadside/internal/flow"
	"roadside/internal/graph"
)

// Delta layer: evolve an existing engine under a stream of flow updates
// instead of rebuilding it from scratch.
//
// The engine's arenas factor cleanly by flow: a visit's gain is
// Utility.Prob(detour, alpha) * Volume and its detour depends only on the
// graph, the shops, and the flow's own path — never on other flows. So a
// batch is applied in one of two modes, picked from the batch:
//
//   - A volume-only batch rewrites the named flows' gains in place against
//     their stored detours, O(visits-of-flow) each. Nothing else moves.
//   - A batch that adds or removes a flow collects every final flow's rows
//     (the stored rows of a survivor, one detour column for an added flow,
//     computed from the retained shop trees plus a single pruned
//     many-to-many group) and lays them out with shardBounds exactly as
//     buildEngine does. Shards that end below the lowest flow index the
//     batch names are kept; the rest are rebuilt by the same visit-arena
//     assembler buildEngine uses (arenaShard.assembleVisits).
//
// The contract pinned by the delta-identity invariant is strict: after any
// update sequence the mutated engine must equal NewEngine(ApplyToProblem(p,
// ops)) at Float64bits granularity — fingerprint, placements, step gains,
// and prefix objectives. Bit-identity survives because every recomputed
// value is produced by the same pure function on the same bit patterns a
// fresh build would use: Prob(storedDetour, alpha) * volume for gains (no
// ratio scaling, which would drift), Dijkstra-exact many-to-many columns
// for added flows (pruning never changes distances — the
// many-to-many-identity invariant pins that), and a shard layout that is
// shardBounds on the final visit counts, assembled by the build's own
// counting sort.

// ErrBadUpdate reports a structurally invalid flow update (bad op, index
// out of range, removing the last flow).
var ErrBadUpdate = errors.New("core: bad flow update")

// UpdateOp selects what a FlowUpdate does.
type UpdateOp int

const (
	// OpSetVolume sets flow Flow's daily volume to Volume.
	OpSetVolume UpdateOp = iota + 1
	// OpRemoveFlow deletes flow Flow; later flows shift down one index.
	OpRemoveFlow
	// OpAddFlow appends Add as the new highest-index flow.
	OpAddFlow
)

// String names the op for error messages and logs.
func (op UpdateOp) String() string {
	switch op {
	case OpSetVolume:
		return "set_volume"
	case OpRemoveFlow:
		return "remove"
	case OpAddFlow:
		return "add"
	}
	return fmt.Sprintf("UpdateOp(%d)", int(op))
}

// FlowUpdate is one element of a delta. Updates in a batch apply
// sequentially, so Flow indexes the flow set as it stands when the op
// runs (earlier removals shift later indices).
type FlowUpdate struct {
	Op UpdateOp
	// Flow is the target index for OpSetVolume and OpRemoveFlow.
	Flow int
	// Volume is the new daily volume for OpSetVolume.
	Volume float64
	// Add is the flow appended by OpAddFlow. Origin and Dest are derived
	// from the path; the path must be a real walk of the problem's graph.
	Add flow.Flow
}

// applyToFlows applies one update to a working flow slice, validating it
// exactly as construction would.
func applyToFlows(g *graph.Graph, flows []flow.Flow, op FlowUpdate) ([]flow.Flow, error) {
	switch op.Op {
	case OpSetVolume:
		if op.Flow < 0 || op.Flow >= len(flows) {
			return nil, fmt.Errorf("%w: set_volume flow %d, have %d flows", ErrBadUpdate, op.Flow, len(flows))
		}
		f := flows[op.Flow]
		nf, err := flow.New(f.ID, f.Path, op.Volume, f.Alpha)
		if err != nil {
			return nil, err
		}
		flows[op.Flow] = nf
		return flows, nil
	case OpRemoveFlow:
		if op.Flow < 0 || op.Flow >= len(flows) {
			return nil, fmt.Errorf("%w: remove flow %d, have %d flows", ErrBadUpdate, op.Flow, len(flows))
		}
		if len(flows) == 1 {
			return nil, fmt.Errorf("%w: removing the last flow leaves an empty set", ErrBadUpdate)
		}
		return append(flows[:op.Flow], flows[op.Flow+1:]...), nil
	case OpAddFlow:
		nf, err := flow.New(op.Add.ID, op.Add.Path, op.Add.Volume, op.Add.Alpha)
		if err != nil {
			return nil, err
		}
		if err := nf.Validate(g); err != nil {
			return nil, err
		}
		return append(flows, nf), nil
	}
	return nil, fmt.Errorf("%w: unknown op %v", ErrBadUpdate, op.Op)
}

// ApplyToProblem returns a copy of p with ops applied to its flow set. It
// is the delta layer's oracle: NewEngine(ApplyToProblem(p, ops)) must equal
// an engine mutated by Apply(ops) bit for bit, and the delta-identity
// invariant holds the two together.
func ApplyToProblem(p *Problem, ops []FlowUpdate) (*Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	flows := p.Flows.Flows()
	var err error
	for i, op := range ops {
		if flows, err = applyToFlows(p.Graph, flows, op); err != nil {
			return nil, fmt.Errorf("core: update %d: %w", i, err)
		}
	}
	set, err := flow.NewSet(flows)
	if err != nil {
		return nil, err
	}
	cp := *p
	cp.Flows = set
	return &cp, nil
}

// Apply mutates the engine in place so that it matches a fresh build of
// ApplyToProblem(e.Problem(), ops), returning the sorted distinct nodes
// whose visit buckets changed (the inputs Warm.Refresh needs). The whole
// batch is validated before any arena is touched, so on error the engine
// is unchanged. Apply requires exclusive ownership of the engine for its
// duration; concurrent readers must use ApplyCopy instead.
func (e *Engine) Apply(ops []FlowUpdate) ([]graph.NodeID, error) {
	return e.applyOps(ops, false)
}

// ApplyCopy is Apply for shared engines: it returns a derived engine with
// ops applied while leaving the receiver fully intact for concurrent
// readers. Untouched arrays are shared between the two engines (copy on
// write at whole-array granularity), so a volume update on one shard
// clones only that shard's gain array and a structural batch shares every
// shard it keeps.
func (e *Engine) ApplyCopy(ops []FlowUpdate) (*Engine, []graph.NodeID, error) {
	cp := *e
	cp.shards = append([]arenaShard(nil), e.shards...)
	touched, err := cp.applyOps(ops, true)
	if err != nil {
		return nil, nil, err
	}
	return &cp, touched, nil
}

// applyOps simulates and validates the whole batch on a copy of the flow
// slice, then writes e's arenas in one of two modes and swaps in the
// mutated problem: a volume-only batch rewrites the named flows' gains in
// place (setGains), and a batch that adds or removes a flow rebuilds the
// shards from stored rows (rebuildShards). Every error surfaces before e
// is written. cow=true forbids writing any array the receiver shared with
// the pre-copy engine.
func (e *Engine) applyOps(ops []FlowUpdate, cow bool) ([]graph.NodeID, error) {
	if len(e.shards) == 0 {
		return nil, fmt.Errorf("core: delta update on zero-value engine")
	}
	if e.p.Model != nil {
		// Model weights may couple flows (capacity demand sums every
		// flow's volume through a node), so the per-flow gain rewrite
		// below would silently leave other flows' weights stale.
		return nil, fmt.Errorf("%w: engine built with model %q", ErrModelUpdate, e.p.Model.Name())
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: empty update batch", ErrBadUpdate)
	}

	// src maps each simulated flow to its engine index (-1: added by this
	// batch), and low is the lowest flow index any op names. Removals
	// shift only the flows above them and adds append, so every flow
	// below low keeps its index and its rows.
	g := e.p.Graph
	flows := e.p.Flows.Flows()
	src := make([]int, len(flows))
	for i := range src {
		src[i] = i
	}
	low, structural := len(flows), false
	var named []int // engine indices of the flows set or removed (-1: added)
	var err error
	for i, op := range ops {
		at := op.Flow
		if op.Op == OpAddFlow {
			at = len(flows)
		}
		if flows, err = applyToFlows(g, flows, op); err != nil {
			return nil, fmt.Errorf("core: update %d: %w", i, err)
		}
		low = min(low, at)
		structural = structural || op.Op != OpSetVolume
		switch op.Op {
		case OpSetVolume:
			named = append(named, src[at])
		case OpRemoveFlow:
			named = append(named, src[at])
			src = append(src[:at], src[at+1:]...)
		case OpAddFlow:
			src = append(src, -1)
		}
	}

	// touched is a dense mark array over node IDs (cheaper than a map at
	// volume-drift densities); list keeps the distinct marks.
	touched := make([]bool, g.NumNodes())
	var list []graph.NodeID
	touch := func(nodes []graph.NodeID) {
		for _, v := range nodes {
			if !touched[v] {
				touched[v] = true
				list = append(list, v)
			}
		}
	}
	for _, f := range named {
		if f >= 0 {
			nodes, _ := e.flowRows(f)
			touch(nodes)
		}
	}

	var set *flow.Set
	if structural {
		set, err = flow.NewSet(flows)
	} else {
		// Paths are untouched, so the new set shares the old one's
		// node-incidence index instead of rebuilding it — the dominant
		// cost of a volume-drift Apply.
		set, err = flow.NewSetSharedIndex(e.p.Flows, flows)
	}
	if err != nil {
		return nil, err
	}
	if structural {
		shards, err := e.rebuildShards(flows, src, low, touch)
		if err != nil {
			return nil, err
		}
		e.shards = shards
	} else {
		e.setGains(ops, flows, cow)
	}
	pc := *e.p
	pc.Flows = set
	e.p = &pc

	sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
	return list, nil
}

// setGains rewrites the visit gains of the flows a volume-only batch
// names from their stored detours. The recompute calls the same
// Prob(detour, alpha) * volume a fresh build would, on the same detour
// bits, so the result is bit-identical — a multiplicative rescale by
// newVolume/oldVolume would not be. Under cow a shard's gain array is
// cloned before its first write.
func (e *Engine) setGains(ops []FlowUpdate, flows []flow.Flow, cow bool) {
	cloned := make([]bool, len(e.shards))
	u := e.p.Utility
	for _, op := range ops {
		f := flows[op.Flow]
		si := e.shardIndexForFlow(op.Flow)
		sh := &e.shards[si]
		if cow && !cloned[si] {
			sh.visitGain = append([]float64(nil), sh.visitGain...)
			cloned[si] = true
		}
		lo, hi := sh.flowRange(op.Flow)
		for idx := lo; idx < hi; idx++ {
			b, be := sh.visitRange(sh.flowNode[idx])
			bucket := sh.visitFlow[b:be]
			pos := sort.Search(len(bucket), func(x int) bool { return bucket[x] >= int32(op.Flow) })
			sh.visitGain[int(b)+pos] = u.Prob(sh.flowDetour[idx], f.Alpha) * f.Volume
		}
	}
}

// rebuildShards lays the simulated flow set out with shardBounds, as
// buildEngine does. Shards that end below low are kept as they are:
// shardBounds packs greedily from the front, and their flows and the
// count that closed them are unchanged. The rest are assembled from
// per-flow rows, the stored rows of a survivor or one newFlowRows column
// for an added flow, with gains recomputed as Prob(detour, alpha) *
// volume. No Dijkstra runs for survivors, and no stored array is written:
// kept shards are shared, rebuilt ones are fresh.
func (e *Engine) rebuildShards(flows []flow.Flow, src []int, low int, touch func([]graph.NodeID)) ([]arenaShard, error) {
	nodes := make([][]graph.NodeID, len(flows))
	dets := make([][]float64, len(flows))
	counts := make([]int, len(flows))
	for i, s := range src {
		if s >= 0 {
			nodes[i], dets[i] = e.flowRows(s)
		} else {
			var err error
			if nodes[i], dets[i], err = e.newFlowRows(flows[i]); err != nil {
				return nil, err
			}
			touch(nodes[i])
		}
		counts[i] = len(nodes[i])
	}
	bounds, err := shardBounds(counts, e.maxShardVisits)
	if err != nil {
		return nil, err
	}
	keep := 0
	for keep < len(e.shards) && int(e.shards[keep].flowHi) < low {
		keep++
	}
	shards := make([]arenaShard, len(bounds))
	copy(shards, e.shards[:keep])
	n, u := e.p.Graph.NumNodes(), e.p.Utility
	for si := keep; si < len(bounds); si++ {
		lo, hi := bounds[si][0], bounds[si][1]
		sh := &shards[si]
		sh.flowLo, sh.flowHi = int32(lo), int32(hi)
		off, total, err := flowOffsets(counts[lo:hi])
		if err != nil {
			return nil, err
		}
		sh.flowOff = off
		sh.flowNode = make([]graph.NodeID, 0, total)
		sh.flowDetour = make([]float64, 0, total)
		gain := make([]float64, 0, total)
		for i := lo; i < hi; i++ {
			sh.flowNode = append(sh.flowNode, nodes[i]...)
			sh.flowDetour = append(sh.flowDetour, dets[i]...)
			for _, d := range dets[i] {
				gain = append(gain, u.Prob(d, flows[i].Alpha)*flows[i].Volume)
			}
		}
		sh.assembleVisits(n, gain, nil)
	}
	return shards, nil
}

// flowRows returns global flow f's stored rows (sorted distinct path
// nodes and their detours) straight out of the owning shard.
func (e *Engine) flowRows(f int) ([]graph.NodeID, []float64) {
	sh := e.shardForFlow(f)
	lo, hi := sh.flowRange(f)
	return sh.flowNode[lo:hi], sh.flowDetour[lo:hi]
}

// newFlowRows computes the detour rows of a flow not in the engine: one
// pruned many-to-many group for d”' = dist(v, dest) over the path's
// distinct nodes, combined with the retained shop trees. Grouped
// many-to-many distances are Dijkstra-exact regardless of the source set,
// so the rows match what a full rebuild would compute bit for bit.
func (e *Engine) newFlowRows(f flow.Flow) ([]graph.NodeID, []float64, error) {
	nodes := sortedDistinct(append([]graph.NodeID(nil), f.Path...))
	cols, err := e.p.Graph.ManyToManyGrouped(
		[]graph.M2MGroup{{Target: f.Dest, Sources: nodes}}, 1)
	if err != nil {
		return nil, nil, err
	}
	dets := make([]float64, len(nodes))
	for j, v := range nodes {
		dets[j] = detourValue(e.toShops, e.fromShops, v, f.Dest, cols[0][j])
	}
	return nodes, dets, nil
}
