package serve

import (
	"context"
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
func (s *Server) decodeBatchRequest(body []byte) (*BatchRequest, *fullProblem, *APIError) {
	req, mp, apiErr := decodeRequest[BatchRequest](s, body)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	if len(req.Items) == 0 {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadBatch, "empty item list")
	}
	if maxItems := s.cfg.MaxBatchItems; len(req.Items) > maxItems {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadBatch,
			"%d items exceeds the per-batch cap of %d", len(req.Items), maxItems)
	}
	if req.Digest != "" {
		return req, nil, nil
	}
	// The shared engine ignores K (the digest excludes it); items carry
	// their own budgets.
	fp, apiErr := s.decodeFull(&req.ProblemSpec, 1, mp)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	return req, fp, nil
}

// handleBatch resolves the engine once and fans the items across the
// worker pool. Each worker writes only its own index-disjoint slot, so the
// result order is the item order whatever the goroutine schedule did — the
// same determinism contract every parallel kernel in the repo follows.
func (s *Server) handleBatch(r *http.Request, body []byte) (any, *APIError) {
	req, fp, apiErr := s.decodeBatchRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	return s.runBatch(ctx, req, fp)
}

// runBatch is the transport-free core of /v1/batch; the async job lane
// reuses it under a job-scoped context.
func (s *Server) runBatch(ctx context.Context, req *BatchRequest, fp *fullProblem) (any, *APIError) {
	res, apiErr := s.resolve(ctx, req.Digest, fp)
	if apiErr != nil {
		return nil, apiErr
	}
	defer s.gate.Release()

	items := make([]BatchItemResult, len(req.Items))
	par.Do(len(req.Items), runtime.GOMAXPROCS(0), func(i int) {
		item := BatchItemResult{Index: i, K: req.Items[i].K}
		var pl *core.Placement
		item.Algo, item.Error = checkQuery(item.K, req.Items[i].Algo)
		if item.Error == nil {
			pl, item.Error = solve(res, item.K, item.Algo)
		}
		if pl != nil {
			item.Nodes = pl.Nodes
			item.Attracted = pl.Attracted
			item.StepGains = pl.StepGains
			item.StepKinds = pl.StepKinds
		}
		items[i] = item
	})
	failed := 0
	for i := range items {
		if items[i].Error != nil {
			failed++
		}
	}
	s.batchItems.Add(int64(len(items)))
	s.batchErrs.Add(int64(failed))
	return &BatchResponse{Digest: res.digest, Cache: res.outcome, Items: items, Failed: failed}, nil
}
