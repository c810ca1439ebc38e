package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"time"

	"roadside/internal/core"
	"roadside/internal/obs"
)

// solveHandler is one POST endpoint's body→response function. It returns
// the 200 response value or a machine-readable failure; transport
// concerns (method, draining, body limits, metrics) live in the
// solveEndpoint wrapper so every endpoint behaves identically.
type solveHandler func(r *http.Request, body []byte) (any, *APIError)

// solveEndpoint wraps h with the shared request lifecycle: method check,
// drain refusal, in-flight accounting, body size limiting, and the
// per-endpoint request/error/latency metrics.
func (s *Server) solveEndpoint(name string, h solveHandler) http.HandlerFunc {
	requests := s.metrics.Counter("serve.http." + name + ".requests")
	errorsC := s.metrics.Counter("serve.http." + name + ".errors")
	latency := s.metrics.Histogram("serve.http."+name+".latency_us", obs.DurationBucketsUS)
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		start := time.Now()
		defer func() { latency.Observe(float64(time.Since(start).Microseconds())) }()

		if r.Method != http.MethodPost {
			errorsC.Inc()
			writeError(w, errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				"%s requires POST, got %s", r.URL.Path, r.Method))
			return
		}
		// Refuse before joining the in-flight group: Drain waits only on
		// requests admitted before the flag flipped.
		if s.draining.Load() {
			errorsC.Inc()
			writeError(w, errorf(http.StatusServiceUnavailable, CodeShuttingDown,
				"server is draining"))
			return
		}
		s.inflight.Add(1)
		s.inflightG.Set(float64(s.inflightN.Add(1)))
		defer func() {
			s.inflightG.Set(float64(s.inflightN.Add(-1)))
			s.inflight.Done()
		}()

		body, apiErr := readBody(w, r, s.cfg.MaxBody)
		if apiErr != nil {
			errorsC.Inc()
			writeError(w, apiErr)
			return
		}
		resp, apiErr := h(r, body)
		if apiErr != nil {
			errorsC.Inc()
			writeError(w, apiErr)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// maxBodyHint caps the buffer a declared Content-Length may reserve before
// any body byte has arrived. It covers a city-scale full problem (~85–112
// KB); a longer body grows its buffer as its bytes arrive.
const maxBodyHint = 256 << 10

// readBody reads a request body under limit. Only a tripped byte limit is
// 413; any other read failure (disconnect mid-upload, short body) is 400.
// A Content-Length within the limit sizes the buffer, one byte over so
// that the read which confirms EOF needs no growth, but never past
// maxBodyHint before the bytes arrive; it is only a hint, and the bytes
// returned are whatever the reader yields up to EOF, as with io.ReadAll.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *APIError) {
	rd := http.MaxBytesReader(w, r.Body, limit)
	size := int64(512) // io.ReadAll's first buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		size = min(n+1, maxBodyHint)
	}
	body := make([]byte, 0, size)
	for {
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return nil, errorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
					"request body exceeds %d bytes", limit)
			}
			return nil, errorf(http.StatusBadRequest, CodeBadJSON, "read body: %v", err)
		}
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
	}
}

// ctxError maps a context failure onto the wire. Both expiry and client
// disconnect surface as deadline_exceeded: from the solver's point of view
// the request's time ran out either way.
func ctxError(err error) *APIError {
	return errorf(http.StatusGatewayTimeout, CodeDeadlineExceeded, "%v", err)
}

// admit takes a concurrency-gate slot for the request. Decode and digest
// can outlive an aggressive timeout_ms, so the deadline is checked first
// and a pre-expired request fails deterministically before any engine
// work. The explicit deadline comparison matters: a just-created context
// whose timer has not fired yet still reports Err() == nil even when its
// deadline is already in the past. On success the caller must release
// the slot.
func (s *Server) admit(ctx context.Context) *APIError {
	if err := ctx.Err(); err != nil {
		return ctxError(err)
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return ctxError(context.DeadlineExceeded)
	}
	if err := s.gate.Acquire(ctx); err != nil {
		return ctxError(err)
	}
	return nil
}

// resolved is a request's engine, with the lineage's Warm cache when one
// exists and how the cache answered.
type resolved struct {
	eng     *core.Engine
	warm    *core.Warm
	digest  string
	outcome string
}

// resolve admits the request and returns its engine: by digest reference
// when ref is set (the server never rebuilds from a reference), otherwise
// the cached or freshly built engine for the full problem fp. A memo hit
// arrives with its digest; the decode path digests here and, once Get has
// succeeded, remembers the body's key for the next request. On success
// the caller holds the gate slot, which covers build-or-wait AND the solve
// that follows, and must release it.
func (s *Server) resolve(ctx context.Context, ref string, fp *fullProblem) (*resolved, *APIError) {
	var digest string
	if ref == "" {
		digest = fp.digest
		if fp.p != nil {
			var err error
			if digest, err = core.ProblemDigest(fp.p); err != nil {
				return nil, errorf(http.StatusInternalServerError, CodeInternal, "digest: %v", err)
			}
		}
	}
	if apiErr := s.admit(ctx); apiErr != nil {
		return nil, apiErr
	}
	if ref != "" {
		ent, apiErr := s.cache.Resolve(ref)
		if apiErr != nil {
			s.gate.Release()
			return nil, apiErr
		}
		return &resolved{eng: ent.eng, warm: ent.warm, digest: ent.digest, outcome: CacheHit}, nil
	}
	eng, outcome, err := s.cache.Get(ctx, digest, fp.build)
	if err != nil {
		s.gate.Release()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, ctxError(err)
		}
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadProblem, "build engine: %v", err)
	}
	if fp.p != nil {
		s.cache.Remember(fp.key, digest)
	}
	return &resolved{eng: eng, digest: digest, outcome: outcome}, nil
}

// solve answers one (k, algo) query against a resolved engine; algo has
// passed checkQuery. /v1/place and every /v1/batch item take this one
// path, so batch ≡ sequential places holds by construction. A lineage that
// has been updated carries a Warm cache current for its engine; the lazy
// solver seeded from it returns the bit-identical placement while skipping
// the full init scan (budgets share arenas, and the cached bounds do not
// depend on K).
func solve(r *resolved, k int, algo string) (*core.Placement, *APIError) {
	budgeted, err := r.eng.WithBudget(k)
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadBudget, "%v", err)
	}
	var pl *core.Placement
	if algo == "lazy" && r.warm != nil {
		pl, err = core.GreedyLazyWarm(budgeted, r.warm)
	} else {
		solver, _ := core.Solver(algo)
		pl, err = solver(budgeted)
	}
	if err != nil {
		return nil, errorf(http.StatusInternalServerError, CodeInternal, "solve: %v", err)
	}
	return pl, nil
}

func (s *Server) handlePlace(r *http.Request, body []byte) (any, *APIError) {
	req, fp, apiErr := s.decodePlaceRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	return s.runPlace(ctx, req, fp)
}

// runPlace is the transport-free core of /v1/place. The async job lane
// reuses it under a job-scoped context instead of a request context.
func (s *Server) runPlace(ctx context.Context, req *PlaceRequest, fp *fullProblem) (any, *APIError) {
	res, apiErr := s.resolve(ctx, req.Digest, fp)
	if apiErr != nil {
		return nil, apiErr
	}
	defer s.gate.Release()
	pl, apiErr := solve(res, req.K, req.Algo)
	if apiErr != nil {
		return nil, apiErr
	}
	return &PlaceResponse{
		Digest:    res.digest,
		Cache:     res.outcome,
		Algo:      req.Algo,
		K:         req.K,
		Nodes:     pl.Nodes,
		Attracted: pl.Attracted,
		StepGains: pl.StepGains,
		StepKinds: pl.StepKinds,
	}, nil
}

func (s *Server) handleEvaluate(r *http.Request, body []byte) (any, *APIError) {
	req, fp, apiErr := s.decodeEvaluateRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	res, apiErr := s.resolve(ctx, req.Digest, fp)
	if apiErr != nil {
		return nil, apiErr
	}
	defer s.gate.Release()
	// Full-problem placements were checked at decode; by-reference ones
	// meet their graph only here.
	eng := res.eng
	p := eng.Problem()
	if apiErr := validNodes(p.Graph, req.Placement, CodeBadPlacement, "placement"); apiErr != nil {
		return nil, apiErr
	}
	flows := make([]FlowAttraction, p.Flows.Len())
	for f := range flows {
		fl := p.Flows.At(f)
		fa := FlowAttraction{Flow: f, ID: fl.ID}
		if d := eng.FlowDetour(f, req.Placement); !math.IsInf(d, 1) {
			fa.Covered = true
			fa.Detour = d
			fa.Prob = p.Utility.Prob(d, fl.Alpha)
			fa.Attracted = fa.Prob * fl.Volume
		}
		flows[f] = fa
	}
	return &EvaluateResponse{
		Digest:    res.digest,
		Cache:     res.outcome,
		Objective: eng.Evaluate(req.Placement),
		Flows:     flows,
	}, nil
}

func (s *Server) handleDetour(r *http.Request, body []byte) (any, *APIError) {
	req, fp, apiErr := s.decodeDetourRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	res, apiErr := s.resolve(ctx, req.Digest, fp)
	if apiErr != nil {
		return nil, apiErr
	}
	defer s.gate.Release()
	eng := res.eng
	if apiErr := validNodes(eng.Problem().Graph, req.Nodes, CodeBadNodes, "queried"); apiErr != nil {
		return nil, apiErr
	}
	nodes := make([]NodeDetours, len(req.Nodes))
	for i, v := range req.Nodes {
		visits := eng.VisitsAt(v)
		nd := NodeDetours{Node: v, Visits: make([]DetourVisit, len(visits)), StandaloneGain: eng.StandaloneGain(v)}
		for j, vis := range visits {
			dv := DetourVisit{Flow: vis.Flow}
			if !math.IsInf(vis.Detour, 1) {
				dv.Reachable = true
				dv.Detour = vis.Detour
			}
			nd.Visits[j] = dv
		}
		nodes[i] = nd
	}
	return &DetourResponse{Digest: res.digest, Cache: res.outcome, Nodes: nodes}, nil
}

// handleUpdate evolves a cached engine: the batch applies atomically via
// core.ApplyCopy (in-flight solves on the superseded engine are untouched)
// and the lineage advances one sequence, the successor replacing its cache
// entry under the derived digest. The gate slot covers the apply, which
// does at most one pruned shortest-path group per added flow — far below
// a rebuild.
func (s *Server) handleUpdate(r *http.Request, body []byte) (any, *APIError) {
	req, ops, apiErr := decodeUpdateRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	if apiErr := s.admit(ctx); apiErr != nil {
		return nil, apiErr
	}
	defer s.gate.Release()
	ent, touched, apiErr := s.cache.Update(req.Digest, ops)
	if apiErr != nil {
		return nil, apiErr
	}
	return &UpdateResponse{
		Digest:       ent.digest,
		Base:         ent.base,
		Seq:          ent.seq,
		Flows:        ent.eng.Problem().Flows.Len(),
		TouchedNodes: len(touched),
	}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"/healthz requires GET, got %s", r.Method))
		return
	}
	entries, bytes := s.cache.Stats()
	writeJSON(w, http.StatusOK, &HealthResponse{
		Status:       "ok",
		UptimeS:      time.Since(s.start).Seconds(),
		CacheEntries: int64(entries),
		CacheBytes:   bytes,
		Draining:     s.draining.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"/metrics requires GET, got %s", r.Method))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	//lint:ignore errdrop headers are already sent; a failed write only truncates the export
	_ = s.metrics.WriteText(w)
}
