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

		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
		if err != nil {
			errorsC.Inc()
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, errorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
					"request body exceeds %d bytes", s.cfg.MaxBody))
			} else {
				writeError(w, errorf(http.StatusBadRequest, CodeBadJSON, "read body: %v", err))
			}
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

// ctxError maps a context failure onto the wire. Both expiry and client
// disconnect surface as deadline_exceeded: from the solver's point of view
// the request's time ran out either way.
func ctxError(err error) *APIError {
	return errorf(http.StatusGatewayTimeout, CodeDeadlineExceeded, "%v", err)
}

// engineFor resolves the request problem to a cached (or freshly built)
// engine under the concurrency gate. The caller must hold nothing; the
// gate slot covers build-or-wait AND the solve that follows, which is why
// release is returned instead of deferred here. On error release has
// already been called and the returned func is nil.
func (s *Server) engineFor(ctx context.Context, p *core.Problem) (eng *core.Engine, digest, outcome string, release func(), apiErr *APIError) {
	// Decode can outlive an aggressive timeout_ms; check once here so a
	// pre-expired deadline fails deterministically before any engine work.
	// The explicit deadline comparison matters: a just-created context whose
	// timer has not fired yet still reports Err() == nil even when its
	// deadline is already in the past.
	if err := ctx.Err(); err != nil {
		return nil, "", "", nil, ctxError(err)
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return nil, "", "", nil, ctxError(context.DeadlineExceeded)
	}
	digest, err := core.ProblemDigest(p)
	if err != nil {
		return nil, "", "", nil, errorf(http.StatusInternalServerError, CodeInternal, "digest: %v", err)
	}
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, "", "", nil, ctxError(err)
	}
	eng, outcome, err = s.cache.Get(ctx, digest, func() (*core.Engine, error) {
		return core.NewEngine(p)
	})
	if err != nil {
		s.gate.Release()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, "", "", nil, ctxError(err)
		}
		return nil, "", "", nil, errorf(http.StatusUnprocessableEntity, CodeBadProblem, "build engine: %v", err)
	}
	return eng, digest, outcome, s.gate.Release, nil
}

// engineByRef resolves a digest reference to a cached engine (and its
// lineage's Warm cache, when one exists) under the concurrency gate. Like
// engineFor, release covers the solve that follows and is nil on error.
func (s *Server) engineByRef(ctx context.Context, ref string) (eng *core.Engine, warm *core.Warm, digest string, release func(), apiErr *APIError) {
	if err := ctx.Err(); err != nil {
		return nil, nil, "", nil, ctxError(err)
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return nil, nil, "", nil, ctxError(context.DeadlineExceeded)
	}
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, nil, "", nil, ctxError(err)
	}
	eng, warm, digest, apiErr = s.cache.Resolve(ref)
	if apiErr != nil {
		s.gate.Release()
		return nil, nil, "", nil, apiErr
	}
	return eng, warm, digest, s.gate.Release, nil
}

func (s *Server) handlePlace(r *http.Request, body []byte) (any, *APIError) {
	req, p, apiErr := decodePlaceRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	return s.runPlace(ctx, req, p)
}

// runPlace is the transport-free core of /v1/place: resolve the engine
// (by digest reference or by building from the problem), budget it, and
// dispatch the solver. The async job lane reuses it under a job-scoped
// context instead of a request context.
func (s *Server) runPlace(ctx context.Context, req *PlaceRequest, p *core.Problem) (any, *APIError) {
	var (
		eng             *core.Engine
		warm            *core.Warm
		digest, outcome string
		release         func()
		apiErr          *APIError
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
	budgeted, err := eng.WithBudget(req.K)
	if err != nil {
		return nil, errorf(http.StatusUnprocessableEntity, CodeBadBudget, "%v", err)
	}
	// A lineage that has been updated carries a Warm cache current for its
	// engine; the lazy solver seeded from it returns the bit-identical
	// placement while skipping the full init scan (budgets share arenas, and
	// the cached bounds do not depend on K).
	var pl *core.Placement
	if req.Algo == "lazy" && warm != nil {
		pl, err = core.GreedyLazyWarm(budgeted, warm)
	} else {
		solve, _ := core.Solver(req.Algo) // the name was validated at decode
		pl, err = solve(budgeted)
	}
	if err != nil {
		return nil, errorf(http.StatusInternalServerError, CodeInternal, "solve: %v", err)
	}
	return &PlaceResponse{
		Digest:    digest,
		Cache:     outcome,
		Algo:      req.Algo,
		K:         req.K,
		Nodes:     pl.Nodes,
		Attracted: pl.Attracted,
		StepGains: pl.StepGains,
		StepKinds: pl.StepKinds,
	}, nil
}

func (s *Server) handleEvaluate(r *http.Request, body []byte) (any, *APIError) {
	req, p, apiErr := decodeEvaluateRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	var (
		eng             *core.Engine
		digest, outcome string
		release         func()
	)
	if req.Digest != "" {
		eng, _, digest, release, apiErr = s.engineByRef(ctx, req.Digest)
		outcome = CacheHit
		if apiErr == nil {
			p = eng.Problem()
			if vErr := validNodes(p.Graph, req.Placement, CodeBadPlacement, "placement"); vErr != nil {
				release()
				return nil, vErr
			}
		}
	} else {
		eng, digest, outcome, release, apiErr = s.engineFor(ctx, p)
	}
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()
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
		Digest:    digest,
		Cache:     outcome,
		Objective: eng.Evaluate(req.Placement),
		Flows:     flows,
	}, nil
}

func (s *Server) handleDetour(r *http.Request, body []byte) (any, *APIError) {
	req, p, apiErr := decodeDetourRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	var (
		eng             *core.Engine
		digest, outcome string
		release         func()
	)
	if req.Digest != "" {
		eng, _, digest, release, apiErr = s.engineByRef(ctx, req.Digest)
		outcome = CacheHit
		if apiErr == nil {
			if vErr := validNodes(eng.Problem().Graph, req.Nodes, CodeBadNodes, "queried"); vErr != nil {
				release()
				return nil, vErr
			}
		}
	} else {
		eng, digest, outcome, release, apiErr = s.engineFor(ctx, p)
	}
	if apiErr != nil {
		return nil, apiErr
	}
	defer release()
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
	return &DetourResponse{Digest: digest, Cache: outcome, Nodes: nodes}, nil
}

// handleUpdate evolves a cached engine: the batch applies atomically via
// core.ApplyCopy (in-flight solves on the superseded engine are untouched)
// and the lineage advances one sequence, re-keyed in the cache under its
// derived digest. The gate slot covers the apply, which does at most one
// pruned shortest-path group per added flow — far below a rebuild.
func (s *Server) handleUpdate(r *http.Request, body []byte) (any, *APIError) {
	req, ops, apiErr := decodeUpdateRequest(body)
	if apiErr != nil {
		return nil, apiErr
	}
	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return nil, ctxError(err)
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return nil, ctxError(context.DeadlineExceeded)
	}
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, ctxError(err)
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
