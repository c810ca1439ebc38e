package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// The wire format. A problem travels exactly like a roadside-repro/v1
// artifact's instance section: the graph and flows embedded via their
// stable interchange codecs, the utility by name and threshold, plus the
// shop branches and candidate restriction. Responses carry the problem's
// digest and how the cache answered, so clients and load tests can audit
// coalescing externally.

// ProblemSpec is the problem section shared by every solve endpoint.
type ProblemSpec struct {
	Graph      json.RawMessage `json:"graph"`
	Flows      json.RawMessage `json:"flows"`
	Utility    string          `json:"utility"`
	UtilityD   float64         `json:"utility_d"`
	Shop       graph.NodeID    `json:"shop"`
	ExtraShops []graph.NodeID  `json:"extra_shops,omitempty"`
	Candidates []graph.NodeID  `json:"candidates,omitempty"`
}

// ProblemSpecOf captures p in wire form (the inverse of decodeProblem).
func ProblemSpecOf(p *core.Problem) (ProblemSpec, error) {
	var spec ProblemSpec
	if p == nil || p.Graph == nil || p.Flows == nil || p.Utility == nil {
		return spec, core.ErrNilField
	}
	var gbuf, fbuf bytes.Buffer
	if err := p.Graph.WriteJSON(&gbuf); err != nil {
		return spec, fmt.Errorf("serve: encode graph: %w", err)
	}
	if err := p.Flows.WriteJSON(&fbuf); err != nil {
		return spec, fmt.Errorf("serve: encode flows: %w", err)
	}
	return ProblemSpec{
		Graph:      json.RawMessage(bytes.TrimSpace(gbuf.Bytes())),
		Flows:      json.RawMessage(bytes.TrimSpace(fbuf.Bytes())),
		Utility:    p.Utility.Name(),
		UtilityD:   p.Utility.Threshold(),
		Shop:       p.Shop,
		ExtraShops: append([]graph.NodeID(nil), p.ExtraShops...),
		Candidates: append([]graph.NodeID(nil), p.Candidates...),
	}, nil
}

// PlaceRequest asks for an optimized placement.
type PlaceRequest struct {
	ProblemSpec
	K int `json:"k"`
	// Algo selects the solver: algorithm1, algorithm2 (default), combined,
	// or lazy.
	Algo string `json:"algo,omitempty"`
	// Digest addresses a cached engine by reference instead of shipping the
	// problem: a base digest from an earlier response (resolving to the
	// lineage's latest sequence) or an explicit "base@seq" pin. When set,
	// the problem fields are ignored and an unknown digest is not_found —
	// the server never rebuilds from a reference.
	Digest string `json:"digest,omitempty"`
	// TimeoutMS optionally lowers the per-request deadline below the
	// server's ceiling.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
}

// PlaceResponse is the solved placement.
type PlaceResponse struct {
	Digest    string         `json:"digest"`
	Cache     string         `json:"cache"` // hit | miss | coalesced
	Algo      string         `json:"algo"`
	K         int            `json:"k"`
	Nodes     []graph.NodeID `json:"nodes"`
	Attracted float64        `json:"attracted"`
	StepGains []float64      `json:"step_gains,omitempty"`
	StepKinds []string       `json:"step_kinds,omitempty"`
}

// EvaluateRequest scores a given placement. Digest addresses a cached
// engine by reference exactly as in PlaceRequest.
type EvaluateRequest struct {
	ProblemSpec
	Placement []graph.NodeID `json:"placement"`
	Digest    string         `json:"digest,omitempty"`
	TimeoutMS float64        `json:"timeout_ms,omitempty"`
}

// FlowAttraction is one flow's share of an evaluated placement. Covered
// reports whether any placed RAP sits on the flow's path with a finite
// detour; Detour/Prob/Attracted are zero when it does not (never
// infinities — the wire format stays plain JSON).
type FlowAttraction struct {
	Flow      int     `json:"flow"`
	ID        string  `json:"id,omitempty"`
	Covered   bool    `json:"covered"`
	Detour    float64 `json:"detour,omitempty"`
	Prob      float64 `json:"prob,omitempty"`
	Attracted float64 `json:"attracted,omitempty"`
}

// EvaluateResponse is the objective plus its per-flow decomposition.
type EvaluateResponse struct {
	Digest    string           `json:"digest"`
	Cache     string           `json:"cache"`
	Objective float64          `json:"objective"`
	Flows     []FlowAttraction `json:"flows"`
}

// DetourRequest asks for the detour structure at a set of intersections.
// Digest addresses a cached engine by reference exactly as in PlaceRequest.
type DetourRequest struct {
	ProblemSpec
	Nodes     []graph.NodeID `json:"nodes"`
	Digest    string         `json:"digest,omitempty"`
	TimeoutMS float64        `json:"timeout_ms,omitempty"`
}

// NodeDetours is one queried intersection: which flows pass it and at what
// detour, plus the standalone objective of a single RAP there. Flows whose
// detour at the node is infinite (no shop reachable) are reported with
// Reachable false and no Detour value.
type NodeDetours struct {
	Node           graph.NodeID  `json:"node"`
	Visits         []DetourVisit `json:"visits"`
	StandaloneGain float64       `json:"standalone_gain"`
}

// DetourVisit is one (flow, detour) incidence at a queried node.
type DetourVisit struct {
	Flow      int     `json:"flow"`
	Reachable bool    `json:"reachable"`
	Detour    float64 `json:"detour,omitempty"`
}

// DetourResponse answers a detour query.
type DetourResponse struct {
	Digest string        `json:"digest"`
	Cache  string        `json:"cache"`
	Nodes  []NodeDetours `json:"nodes"`
}

// FlowUpdateSpec is one wire flow update. Op selects the mutation:
// "set_volume" (Flow + Volume), "remove" (Flow), or "add" (ID, Path,
// Volume, Alpha describing the new flow).
type FlowUpdateSpec struct {
	Op     string         `json:"op"`
	Flow   int            `json:"flow,omitempty"`
	Volume float64        `json:"volume,omitempty"`
	ID     string         `json:"id,omitempty"`
	Path   []graph.NodeID `json:"path,omitempty"`
	Alpha  float64        `json:"alpha,omitempty"`
}

// UpdateRequest evolves a cached engine in place of a full rebuild. Digest
// is required: a base digest updates the lineage's latest sequence, an
// explicit "base@seq" is a compare-and-swap that fails with stale_digest
// when the lineage has already moved past seq. The batch is atomic —
// either every update applies and the lineage advances one sequence, or
// none do.
type UpdateRequest struct {
	Digest    string           `json:"digest"`
	Updates   []FlowUpdateSpec `json:"updates"`
	TimeoutMS float64          `json:"timeout_ms,omitempty"`
}

// UpdateResponse reports the lineage's new head. Digest is the derived
// "base@seq" reference that pins this exact revision in later place /
// evaluate / detour / update calls; Base addresses the latest revision
// whatever it is by then.
type UpdateResponse struct {
	Digest       string `json:"digest"`
	Base         string `json:"base"`
	Seq          int    `json:"seq"`
	Flows        int    `json:"flows"`         // flow count after the batch
	TouchedNodes int    `json:"touched_nodes"` // distinct intersections whose gains changed
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status       string  `json:"status"`
	UptimeS      float64 `json:"uptime_s"`
	CacheEntries int64   `json:"cache_entries"`
	CacheBytes   int64   `json:"cache_bytes"`
	Draining     bool    `json:"draining"`
}

// APIError is a machine-readable request failure: Code is stable and
// asserted by the e2e battery, Message is human context. RetryAfterS, when
// positive, becomes a Retry-After header on the response — the backpressure
// contract of the async job queue.
type APIError struct {
	Status      int    `json:"-"`
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"-"`
}

func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// ErrorResponse is the wire shape of every non-2xx response.
type ErrorResponse struct {
	Err APIError `json:"error"`
}

func errorf(status int, code, format string, args ...any) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// decodeProblem turns a wire problem into a validated core.Problem with
// budget k. Every failure maps to a stable error code; nothing here may
// panic on adversarial input (FuzzServeRequest enforces that through the
// endpoint decoders above it).
func decodeProblem(spec *ProblemSpec, k int) (*core.Problem, *APIError) {
	if len(spec.Graph) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadGraph, "missing graph")
	}
	if len(spec.Flows) == 0 {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadFlows, "missing flows")
	}
	g, err := graph.ReadJSON(bytes.NewReader(spec.Graph))
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadGraph, "graph: %v", err)
	}
	flows, err := flow.ReadJSON(bytes.NewReader(spec.Flows))
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadFlows, "flows: %v", err)
	}
	// Engine preprocessing walks every flow path, so paths must be real
	// walks of this graph before they get near the arenas.
	if err := flows.ValidateAll(g); err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadFlows, "flows: %v", err)
	}
	u, err := utility.ByName(spec.Utility, spec.UtilityD)
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeUnknownUtility,
			"utility %q (D=%g): %v", spec.Utility, spec.UtilityD, err)
	}
	p := &core.Problem{
		Graph:      g,
		Shop:       spec.Shop,
		ExtraShops: append([]graph.NodeID(nil), spec.ExtraShops...),
		Flows:      flows,
		Utility:    u,
		K:          k,
		Candidates: append([]graph.NodeID(nil), spec.Candidates...),
	}
	if err := p.Validate(); err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadProblem, "%v", err)
	}
	return p, nil
}

// memoKey identifies a full-body problem by its wire bytes: a SHA-256 over
// every ProblemSpec field decodeProblem reads, each length-framed. Two
// bodies share a key only if decodeProblem would read identical input
// from them; a reformatted graph or flows section is a different key.
type memoKey [sha256.Size]byte

// memoKeyBytes is what one memo key is charged against the cache budget:
// the key in its entry's list and in the memo map, with the map's
// per-slot overhead rounded up.
const memoKeyBytes = 128

func memoKeyOf(spec *ProblemSpec) memoKey {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		//lint:ignore errdrop hash.Hash.Write is documented to never return an error
		_, _ = h.Write(buf[:])
	}
	framed := func(b []byte) {
		w64(uint64(len(b)))
		//lint:ignore errdrop hash.Hash.Write is documented to never return an error
		_, _ = h.Write(b)
	}
	nodes := func(ns []graph.NodeID) {
		w64(uint64(len(ns)))
		for _, v := range ns {
			w64(uint64(v))
		}
	}
	framed(spec.Graph)
	framed(spec.Flows)
	framed([]byte(spec.Utility))
	w64(math.Float64bits(spec.UtilityD))
	w64(uint64(spec.Shop))
	nodes(spec.ExtraShops)
	nodes(spec.Candidates)
	var key memoKey
	h.Sum(key[:0])
	return key
}

// fullProblem is a full-body request's problem after decode. On the decode
// path p holds the validated problem and resolve digests it; on a memo hit
// p is nil and digest and graph come from the cached engine the key
// recalled. Node checks run against graph either way.
type fullProblem struct {
	spec   *ProblemSpec
	k      int
	key    memoKey
	p      *core.Problem
	digest string
	graph  *graph.Graph
}

// memoProbe is a full body's one memo lookup. decodeRequest makes it when
// the body splits; decodeFull makes it otherwise.
type memoProbe struct {
	key    memoKey
	keyed  bool         // key is the body's, and the memo has been consulted
	digest string       // on a memo hit, the recalled digest
	eng    *core.Engine // and engine
}

// fullBody is a full-body endpoint's request type, reached through its
// embedded ProblemSpec.
type fullBody[R any] interface {
	*R
	problem() *ProblemSpec
}

func (spec *ProblemSpec) problem() *ProblemSpec { return spec }

// decodeRequest decodes a full-body endpoint's request and, when the body
// splits, makes its memo lookup on the way. A body whose problem is
// memoized is decoded from its small rest alone; every other body takes
// the whole-body json.Unmarshal, so its errors are exactly those of a
// plain decode.
//
// Why a memo hit may skip the whole-body parse: the key covers both spans
// byte for byte, and the memo holds only keys of bodies that
// encoding/json accepted and graph.ReadJSON/flow.ReadJSON decoded, so each
// span is a valid JSON value. On valid JSON, splitProblem's quote,
// backslash and bracket scan tokenizes as encoding/json does; so if the
// rest parses, each null in it sits in the value slot of the exact key
// graph or flows, which no other top-level key folds to. Putting the
// spans back yields a body that json.Unmarshal accepts into the same
// struct, with the spans as Graph and Flows. The same argument keeps a
// miss from hashing twice: when the whole body parses, its spec is the
// one the key was computed from.
func decodeRequest[R any, P fullBody[R]](s *Server, body []byte) (*R, memoProbe, *APIError) {
	var mp memoProbe
	req := new(R)
	if g, f, rest, ok := splitProblem(body); ok && json.Unmarshal(rest, req) == nil {
		spec := P(req).problem()
		spec.Graph, spec.Flows = g, f
		mp.key, mp.keyed = memoKeyOf(spec), true
		if mp.digest, mp.eng, ok = s.cache.Peek(mp.key); ok {
			return req, mp, nil
		}
	}
	req = new(R)
	if err := json.Unmarshal(body, req); err != nil {
		return nil, memoProbe{}, errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	return req, mp, nil
}

// decodeFull resolves a full-body problem: a memo hit skips decode,
// validation and digest; a miss decodes and validates exactly as
// decodeProblem does. It counts serve.cache.memo_hits once per request
// that uses a recalled digest, so a request its decoder rejected before
// this point counts none.
func (s *Server) decodeFull(spec *ProblemSpec, k int, mp memoProbe) (*fullProblem, *APIError) {
	if !mp.keyed {
		mp.key = memoKeyOf(spec)
		mp.digest, mp.eng, _ = s.cache.Peek(mp.key)
	}
	fp := &fullProblem{spec: spec, k: k, key: mp.key}
	if mp.eng != nil {
		s.cache.memoHits.Inc()
		fp.digest, fp.graph = mp.digest, mp.eng.Problem().Graph
		return fp, nil
	}
	p, apiErr := decodeProblem(spec, k)
	if apiErr != nil {
		return nil, apiErr
	}
	fp.p, fp.graph = p, p.Graph
	return fp, nil
}

// build constructs the problem's engine for a cache miss. A recalled
// problem whose entry left the cache before its Get decodes the same
// bytes here, which succeeded once already.
func (fp *fullProblem) build() (*core.Engine, error) {
	p := fp.p
	if p == nil {
		var apiErr *APIError
		if p, apiErr = decodeProblem(fp.spec, fp.k); apiErr != nil {
			return nil, apiErr
		}
	}
	return core.NewEngine(p)
}

// decodePlaceRequest parses and structurally validates a /v1/place body.
// With a digest reference the problem fields stay undecoded and the
// problem is nil; the handler resolves the engine from the cache instead.
func (s *Server) decodePlaceRequest(body []byte) (*PlaceRequest, *fullProblem, *APIError) {
	req, mp, apiErr := decodeRequest[PlaceRequest](s, body)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if req.Algo, apiErr = checkQuery(req.K, req.Algo); apiErr != nil {
		return nil, nil, apiErr
	}
	if req.Digest != "" {
		return req, nil, nil
	}
	fp, apiErr := s.decodeFull(&req.ProblemSpec, req.K, mp)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	return req, fp, nil
}

// checkQuery validates one placement query — a /v1/place body or a
// /v1/batch item — and returns its solver name with the algorithm2
// default applied (also on failure, for the batch item's echo).
func checkQuery(k int, algo string) (string, *APIError) {
	if algo == "" {
		algo = "algorithm2"
	}
	if k < 1 {
		return algo, errorf(http.StatusUnprocessableEntity, CodeBadBudget, "k=%d, need k >= 1", k)
	}
	if _, ok := core.Solver(algo); !ok {
		return algo, errorf(http.StatusUnprocessableEntity, CodeUnknownAlgo,
			"algo %q (want algorithm1, algorithm2, combined, or lazy)", algo)
	}
	return algo, nil
}

// validNodes checks that every node exists in g, reporting failures under
// the given code. It runs at decode time for full-problem requests and
// after cache resolution for by-reference ones.
func validNodes(g *graph.Graph, nodes []graph.NodeID, code, what string) *APIError {
	for _, v := range nodes {
		if !g.ValidNode(v) {
			return errorf(http.StatusUnprocessableEntity, code,
				"%s node %d is not a node of the graph", what, v)
		}
	}
	return nil
}

// decodeEvaluateRequest parses and validates a /v1/evaluate body. The
// returned problem carries K=1: evaluation ignores the budget, and the
// digest excludes it, so the engine is shared with placement queries.
func (s *Server) decodeEvaluateRequest(body []byte) (*EvaluateRequest, *fullProblem, *APIError) {
	req, mp, apiErr := decodeRequest[EvaluateRequest](s, body)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if req.Digest != "" {
		return req, nil, nil
	}
	fp, apiErr := s.decodeFull(&req.ProblemSpec, 1, mp)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if apiErr := validNodes(fp.graph, req.Placement, CodeBadPlacement, "placement"); apiErr != nil {
		return nil, nil, apiErr
	}
	return req, fp, nil
}

// decodeDetourRequest parses and validates a /v1/detour body.
func (s *Server) decodeDetourRequest(body []byte) (*DetourRequest, *fullProblem, *APIError) {
	req, mp, apiErr := decodeRequest[DetourRequest](s, body)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if len(req.Nodes) == 0 {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadNodes, "empty node set")
	}
	if req.Digest != "" {
		return req, nil, nil
	}
	fp, apiErr := s.decodeFull(&req.ProblemSpec, 1, mp)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if apiErr := validNodes(fp.graph, req.Nodes, CodeBadNodes, "queried"); apiErr != nil {
		return nil, nil, apiErr
	}
	return req, fp, nil
}

// decodeUpdateRequest parses a /v1/update body and lowers the wire ops
// onto core.FlowUpdate. Structural validation of each op (volume range,
// path is a walk of the engine's graph, flow index in range) happens
// inside ApplyCopy against the resolved engine; here only the op names and
// the added flows' self-contained shape are checked, so every failure
// beyond this point is bad_update with the lineage untouched.
func decodeUpdateRequest(body []byte) (*UpdateRequest, []core.FlowUpdate, *APIError) {
	var req UpdateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if req.Digest == "" {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate,
			"missing digest: updates address a cached engine by reference")
	}
	if len(req.Updates) == 0 {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate, "empty update batch")
	}
	ops := make([]core.FlowUpdate, len(req.Updates))
	for i, spec := range req.Updates {
		switch spec.Op {
		case "set_volume":
			ops[i] = core.FlowUpdate{Op: core.OpSetVolume, Flow: spec.Flow, Volume: spec.Volume}
		case "remove":
			ops[i] = core.FlowUpdate{Op: core.OpRemoveFlow, Flow: spec.Flow}
		case "add":
			f, err := flow.New(spec.ID, spec.Path, spec.Volume, spec.Alpha)
			if err != nil {
				return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate,
					"update %d: add: %v", i, err)
			}
			ops[i] = core.FlowUpdate{Op: core.OpAddFlow, Add: f}
		default:
			return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate,
				"update %d: op %q (want set_volume, remove, or add)", i, spec.Op)
		}
	}
	return &req, ops, nil
}

// writeJSON writes v as the response body. Encoding failures at this point
// cannot be reported to the client (the status line is gone), so they are
// swallowed after a best-effort write; response types contain no
// non-finite floats by construction.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	//lint:ignore errdrop headers are already sent; the client sees a truncated body either way
	_ = enc.Encode(v)
}

// writeError writes the uniform machine-readable error shape.
func writeError(w http.ResponseWriter, e *APIError) {
	if e.RetryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterS))
	}
	writeJSON(w, e.Status, ErrorResponse{Err: *e})
}
