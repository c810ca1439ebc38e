package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"

	"roadside/internal/core"
	"roadside/internal/graph"
	"roadside/internal/par"
)

// DefaultMaxBatchItems caps how many queries one /v1/batch request may
// carry. The cap bounds the response size and the fan-out width; clients
// with more queries send more batches.
const DefaultMaxBatchItems = 1024

// BatchItem is one placement query inside a batch: a budget and a solver,
// answered against the batch's shared engine. The zero Algo defaults to
// algorithm2 exactly as in PlaceRequest.
type BatchItem struct {
	K    int    `json:"k"`
	Algo string `json:"algo,omitempty"`
}

// BatchRequest amortizes one engine resolve over many (K, algorithm)
// queries. The problem travels once — as a full ProblemSpec or as a digest
// reference — and every item solves against the same cached engine, fanned
// out across the worker pool. Item results come back in item order
// regardless of scheduling, and one item's failure (bad budget, unknown
// algo) never poisons its neighbours.
type BatchRequest struct {
	ProblemSpec
	Digest    string      `json:"digest,omitempty"`
	Items     []BatchItem `json:"items"`
	TimeoutMS float64     `json:"timeout_ms,omitempty"`
}

// BatchItemResult is one item's answer. Either the placement fields are set
// (Error nil) or Error carries the item's isolated failure with the same
// stable codes single /v1/place requests use.
type BatchItemResult struct {
	Index     int            `json:"index"`
	K         int            `json:"k"`
	Algo      string         `json:"algo"`
	Nodes     []graph.NodeID `json:"nodes,omitempty"`
	Attracted float64        `json:"attracted,omitempty"`
	StepGains []float64      `json:"step_gains,omitempty"`
	StepKinds []string       `json:"step_kinds,omitempty"`
	Error     *APIError      `json:"error,omitempty"`
}

// BatchResponse answers a batch. Items is index-aligned with the request's
// items; Failed counts the items that carry an error slot.
type BatchResponse struct {
	Digest string            `json:"digest"`
	Cache  string            `json:"cache"`
	Items  []BatchItemResult `json:"items"`
	Failed int               `json:"failed"`
}

// decodeBatchRequest parses and structurally validates a /v1/batch body.
// Envelope failures (no items, too many items, a malformed problem) reject
// the whole request; per-item validation is deliberately deferred to
// execution so one bad item cannot sink its neighbours.
func decodeBatchRequest(body []byte, maxItems int) (*BatchRequest, *core.Problem, *APIError) {
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, errorf(http.StatusBadRequest, CodeBadJSON, "%v", err)
	}
	if len(req.Items) == 0 {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadBatch, "empty item list")
	}
	if len(req.Items) > maxItems {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadBatch,
			"%d items exceeds the per-batch cap of %d", len(req.Items), maxItems)
	}
	if req.Digest != "" {
		return &req, nil, nil
	}
	// The shared engine ignores K (the digest excludes it); items carry
	// their own budgets.
	p, apiErr := decodeProblem(&req.ProblemSpec, 1)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	return &req, p, nil
}

// solveBatchItem answers one item against the shared engine: the exact
// WithBudget + solver-dispatch path a single /v1/place request takes, so
// the batch-identity invariant (batch ≡ sequential places, bit-for-bit)
// holds by construction.
func solveBatchItem(eng *core.Engine, warm *core.Warm, item BatchItem, idx int) BatchItemResult {
	res := BatchItemResult{Index: idx, K: item.K, Algo: item.Algo}
	if res.Algo == "" {
		res.Algo = "algorithm2"
	}
	if item.K < 1 {
		res.Error = errorf(http.StatusUnprocessableEntity, CodeBadBudget, "k=%d, need k >= 1", item.K)
		return res
	}
	solver, ok := core.Solver(res.Algo)
	if !ok {
		res.Error = errorf(http.StatusUnprocessableEntity, CodeUnknownAlgo,
			"algo %q (want algorithm1, algorithm2, combined, or lazy)", res.Algo)
		return res
	}
	budgeted, err := eng.WithBudget(item.K)
	if err != nil {
		res.Error = errorf(http.StatusUnprocessableEntity, CodeBadBudget, "%v", err)
		return res
	}
	var pl *core.Placement
	if res.Algo == "lazy" && warm != nil {
		pl, err = core.GreedyLazyWarm(budgeted, warm)
	} else {
		pl, err = solver(budgeted)
	}
	if err != nil {
		res.Error = errorf(http.StatusInternalServerError, CodeInternal, "solve: %v", err)
		return res
	}
	res.Nodes = pl.Nodes
	res.Attracted = pl.Attracted
	res.StepGains = pl.StepGains
	res.StepKinds = pl.StepKinds
	return res
}

// handleBatch resolves the engine once and fans the items across the
// worker pool. Each worker writes only its own index-disjoint slot, so the
// result order is the item order whatever the goroutine schedule did — the
// same determinism contract every parallel kernel in the repo follows.
func (s *Server) handleBatch(r *http.Request, body []byte) (any, *APIError) {
	req, p, apiErr := decodeBatchRequest(body, s.cfg.MaxBatchItems)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	return s.runBatch(ctx, req, p)
}

// runBatch is the transport-free core of /v1/batch; the async job lane
// reuses it under a job-scoped context.
func (s *Server) runBatch(ctx context.Context, req *BatchRequest, p *core.Problem) (any, *APIError) {
	var (
		apiErr          *APIError
		eng             *core.Engine
		warm            *core.Warm
		digest, outcome string
		release         func()
	)
	if req.Digest != "" {
		eng, warm, digest, release, apiErr = s.engineByRef(ctx, req.Digest)
		outcome = CacheHit
	} else {
		eng, digest, outcome, release, apiErr = s.engineFor(ctx, p)
	}
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()

	items := make([]BatchItemResult, len(req.Items))
	par.Do(len(req.Items), runtime.GOMAXPROCS(0), func(i int) {
		items[i] = solveBatchItem(eng, warm, req.Items[i], i)
	})
	failed := 0
	for i := range items {
		if items[i].Error != nil {
			failed++
		}
	}
	s.batchItems.Add(int64(len(items)))
	s.batchErrs.Add(int64(failed))
	return &BatchResponse{Digest: digest, Cache: outcome, Items: items, Failed: failed}, nil
}
