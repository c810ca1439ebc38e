package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/serve"
	"roadside/internal/utility"
)

// server is an in-process serve.Server driven through its handler with
// httptest requests and recorders: no sockets, no loopback noise.
type server struct {
	s *serve.Server
	h http.Handler
}

// cacheBudget is far above what a run inserts, so nothing is evicted.
const cacheBudget = 4 << 30

func newServer() *server {
	s := serve.New(serve.Config{CacheBytes: cacheBudget})
	return &server{s: s, h: s.Handler()}
}

// call posts body to path and returns the status, the response body, and
// the handler's start and end.
func (sv *server) call(path string, body []byte) (int, []byte, time.Time, time.Time) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	sv.h.ServeHTTP(rec, req)
	end := time.Now()
	return rec.Code, rec.Body.Bytes(), start, end
}

func (sv *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sv.s.Drain(ctx); err != nil {
		fmt.Printf("warning: drain: %v\n", err)
	}
}

func (sv *server) counter(name string) int64 { return sv.s.Metrics().Counter(name).Value() }

// serveCounters are the cache and build counters every serving workload
// reports from the server's own registry.
func (sv *server) serveCounters(staleRetries int64) map[string]float64 {
	hit, miss, coal := sv.counter("serve.cache.hit"), sv.counter("serve.cache.miss"), sv.counter("serve.cache.coalesced")
	ratio := 0.0
	if total := hit + miss + coal; total > 0 {
		ratio = float64(hit) / float64(total)
	}
	return map[string]float64{
		"serve.cache.hit_ratio":      ratio,
		"serve.cache.misses":         float64(miss),
		"serve.cache.coalesced":      float64(coal),
		"serve.cache.evicted":        float64(sv.counter("serve.cache.evicted")),
		"serve.engine.builds":        float64(sv.counter("serve.engine.builds")),
		"serve.update.stale_retries": float64(staleRetries),
	}
}

// decodeJSON decodes a response body, failing on a non-200 status with the
// server's error text.
func decodeJSON(code int, body []byte, v any) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// hotRank maps a popularity rank to a hot-set index. Even ranks are
// Dublin-scale and odd ranks Seattle-scale problems, so the two cities
// take the same share of traffic under every seed (62% and 38% under
// zipf over eight); the seed only rotates which problem of each city
// holds which rank.
func hotRank(seed int64) []int {
	rank := make([]int, hotDublin+hotSeattle)
	offD, offS := int(mix(seed, 0, 13)%hotDublin), int(mix(seed, 1, 13)%hotSeattle)
	for r := range rank {
		if r%2 == 0 {
			rank[r] = (r/2 + offD) % hotDublin
		} else {
			rank[r] = hotDublin + (r/2+offS)%hotSeattle
		}
	}
	return rank
}

// replayProblem replays a full-body request's decode path through the
// public layer calls, as the handler runs it.
func replayProblem(ot *opTrace, body []byte, req any, spec *serve.ProblemSpec) (*core.Problem, error) {
	var (
		g    *graph.Graph
		fs   *flow.Set
		errs []error
	)
	ot.child("serve.decode", func() { errs = append(errs, json.Unmarshal(body, req)) })
	ot.child("graph.read_json", func() {
		var err error
		g, err = graph.ReadJSON(bytes.NewReader(spec.Graph))
		errs = append(errs, err)
	})
	ot.child("flow.read_json", func() {
		var err error
		fs, err = flow.ReadJSON(bytes.NewReader(spec.Flows))
		errs = append(errs, err)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	ot.child("flow.validate", func() { errs = append(errs, fs.ValidateAll(g)) })
	u, err := utility.ByName(spec.Utility, spec.UtilityD)
	if err != nil {
		return nil, err
	}
	p := &core.Problem{Graph: g, Shop: spec.Shop, Flows: fs, Utility: u, K: maxK}
	ot.child("core.digest", func() {
		_, err := core.ProblemDigest(p)
		errs = append(errs, err)
	})
	return p, firstErr(errs)
}

// ---- serve-byref-drift ----

// byref sends by-reference place/evaluate/batch reads and pinned
// set_volume updates that flip a lineage between two volume states.
type byref struct {
	cfg      config
	hot      []*problem
	rank     []int
	sv       *server
	lineages []*lineage

	staleRetries atomic.Int64
}

// lineage is one registered problem. seq is the benchmark's view of the
// lineage head, advanced by the updates it sees succeed.
type lineage struct {
	pr    *problem
	drift []int
	seq   atomic.Int64

	refs      [2][][]answer // [parity][algo][k]
	placement []graph.NodeID
	evalRef   [2]evalAnswer

	eng  [2]*core.Engine // traced runs: replay engines per parity
	warm [2]*core.Warm
}

type evalAnswer struct {
	objective float64
	flows     []flowScore
}

func setupByref(cfg config) (instance, error) {
	hot, err := hotSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &byref{cfg: cfg, hot: hot, rank: hotRank(cfg.seed), sv: newServer()}
	for j, pr := range hot {
		code, body, _, _ := w.sv.call("/v1/place", pr.placeBody(pr.p.Shop, pr.d, ks[0], "algorithm2"))
		var resp serve.PlaceResponse
		if err := decodeJSON(code, body, &resp); err != nil {
			w.close()
			return nil, fmt.Errorf("register %s: %w", pr.name, err)
		}
		if resp.Digest != pr.digest {
			w.close()
			return nil, fmt.Errorf("register %s: digest %s, want %s", pr.name, resp.Digest, pr.digest)
		}
		w.lineages = append(w.lineages, &lineage{pr: pr, drift: driftFlows(cfg.seed, pr, j)})
	}
	return w, nil
}

func (w *byref) prepare() error {
	for _, l := range w.lineages {
		for parity := 0; parity < 2; parity++ {
			p := l.pr.p
			if parity == 1 {
				var err error
				if p, err = core.ApplyToProblem(p, driftOps(l.pr, l.drift, 1)); err != nil {
					return err
				}
			}
			e, byAlgo, err := refsFor(p, w.cfg.corrupt)
			if err != nil {
				return err
			}
			l.refs[parity] = byAlgo
			if parity == 0 {
				l.placement = byAlgo[1][1].nodes // algorithm2 at k=10
			}
			obj, flows := evaluate(e, l.placement)
			l.evalRef[parity] = evalAnswer{objective: obj, flows: flows}
			if w.cfg.trace {
				if l.eng[parity], err = core.NewEngine(p); err != nil {
					return err
				}
				l.warm[parity] = l.eng[parity].NewWarm()
			}
		}
	}
	return nil
}

const (
	kindPlace = iota
	kindEvaluate
	kindBatch
	kindUpdate
)

var kindNames = []string{"place", "evaluate", "batch", "update"}

// batchItems is the size of every /v1/batch request.
const batchItems = 8

// opAt draws op i: 10% updates, 15% batches, 20% evaluates, 55% places.
// Batches are the slowest reads by far; at 15% the latency p90 falls
// inside their cluster rather than on its edge, where a hash-drawn share
// a hair above or below 10% would move it by a whole cluster.
func (w *byref) opAt(i int64) (l int, kind int) {
	l = w.rank[zipf(mix(w.cfg.seed, i, 2), len(w.hot))]
	switch r := mix(w.cfg.seed, i, 6) % 20; {
	case r < 2:
		kind = kindUpdate
	case r < 5:
		kind = kindBatch
	case r < 9:
		kind = kindEvaluate
	default:
		kind = kindPlace
	}
	return l, kind
}

func (w *byref) batchItem(i int64, m int) (int, int) {
	return int((i + int64(m)) % int64(len(algos))), ks[mix(w.cfg.seed, i*batchItems+int64(m), 7)%uint64(len(ks))]
}

func (w *byref) do(i int64, ot *opTrace) sample {
	li, kind := w.opAt(i)
	l := w.lineages[li]
	if kind == kindUpdate {
		return w.update(i, l, ot)
	}
	var (
		path string
		body []byte
		err  error
	)
	algo, k := int(i%int64(len(algos))), ks[mix(w.cfg.seed, i, 3)%uint64(len(ks))]
	switch kind {
	case kindPlace:
		path = "/v1/place"
		body, err = json.Marshal(serve.PlaceRequest{Digest: l.pr.digest, K: k, Algo: algos[algo]})
	case kindEvaluate:
		path = "/v1/evaluate"
		body, err = json.Marshal(serve.EvaluateRequest{Digest: l.pr.digest, Placement: l.placement})
	case kindBatch:
		req := serve.BatchRequest{Digest: l.pr.digest}
		for m := 0; m < batchItems; m++ {
			a, bk := w.batchItem(i, m)
			req.Items = append(req.Items, serve.BatchItem{K: bk, Algo: algos[a]})
		}
		path = "/v1/batch"
		body, err = json.Marshal(req)
	}
	if err != nil {
		return sample{idx: i, failed: err.Error()}
	}
	code, out, start, end := w.sv.call(path, body)
	s := sample{idx: i, total: end.Sub(start), read: end.Sub(start), write: -1, reqBytes: len(body)}
	var (
		digest, cache string
		resp          any
	)
	switch kind {
	case kindPlace:
		var r serve.PlaceResponse
		err = decodeJSON(code, out, &r)
		digest, cache, resp = r.Digest, r.Cache, &r
	case kindEvaluate:
		var r serve.EvaluateResponse
		err = decodeJSON(code, out, &r)
		digest, cache, resp = r.Digest, r.Cache, &r
	case kindBatch:
		var r serve.BatchResponse
		err = decodeJSON(code, out, &r)
		digest, cache, resp = r.Digest, r.Cache, &r
	}
	if err != nil {
		s.failed = err.Error()
		return s
	}
	base, seq, err := core.SplitDigest(digest)
	if err != nil || base != l.pr.digest {
		s.failed = fmt.Sprintf("%s answered digest %q for lineage %s", kindNames[kind], digest, l.pr.digest)
		return s
	}
	if cache != serve.CacheHit {
		s.failed = fmt.Sprintf("%s by reference answered cache %q, want hit", kindNames[kind], cache)
		return s
	}
	parity := seq % 2
	switch r := resp.(type) {
	case *serve.PlaceResponse:
		err = l.refs[parity][algo][kIndex(k)].check(r.Nodes, r.StepGains, r.Attracted)
	case *serve.EvaluateResponse:
		err = l.evalRef[parity].check(r)
	case *serve.BatchResponse:
		if len(r.Items) != batchItems || r.Failed != 0 {
			err = fmt.Errorf("%d items, %d failed", len(r.Items), r.Failed)
			break
		}
		for m, it := range r.Items {
			a, bk := w.batchItem(i, m)
			if err = l.refs[parity][a][kIndex(bk)].check(it.Nodes, it.StepGains, it.Attracted); err != nil {
				err = fmt.Errorf("item %d (%s k=%d): %w", m, algos[a], bk, err)
				break
			}
		}
	}
	if err != nil {
		s.failed = fmt.Sprintf("%s %s@%d: %v", kindNames[kind], l.pr.name, seq, err)
		return s
	}
	if ot != nil {
		if err := w.replayRead(ot, l, kind, seq, algo, k, i, body, start, end, resp); err != nil {
			s.failed = "replay: " + err.Error()
		}
	}
	return s
}

func (a evalAnswer) check(r *serve.EvaluateResponse) error {
	if err := sameBits("objective", []float64{r.Objective}, []float64{a.objective}); err != nil {
		return err
	}
	if len(r.Flows) != len(a.flows) {
		return fmt.Errorf("%d flows, reference %d", len(r.Flows), len(a.flows))
	}
	for f, fa := range r.Flows {
		want := a.flows[f]
		if fa.Covered != want.covered {
			return fmt.Errorf("flow %d covered=%v, reference %v", f, fa.Covered, want.covered)
		}
		if err := sameBits(fmt.Sprintf("flow %d detour/attracted", f),
			[]float64{fa.Detour, fa.Attracted}, []float64{want.detour, want.attracted}); err != nil {
			return err
		}
	}
	return nil
}

// solveName is the span a replayed solve lands in: a lazy solve on an
// updated lineage runs from the lineage's warm bounds.
func solveName(algo string, seq int) string {
	if algo == "lazy" && seq > 0 {
		return "core.solve.lazy_warm"
	}
	return "core.solve." + algo
}

func (w *byref) replayRead(ot *opTrace, l *lineage, kind, seq, algo, k int, i int64, body []byte, start, end time.Time, resp any) error {
	parity := seq % 2
	e := l.eng[parity]
	var warm *core.Warm
	if seq > 0 {
		warm = l.warm[parity]
	}
	ot.root("serve."+kindNames[kind], start, end)
	var errs []error
	solve := func(a, bk int) {
		ot.child(solveName(algos[a], seq), func() {
			_, err := solveAll(e, algos[a], bk, warm)
			errs = append(errs, err)
		})
	}
	switch kind {
	case kindPlace:
		var req serve.PlaceRequest
		ot.child("serve.decode", func() { errs = append(errs, json.Unmarshal(body, &req)) })
		solve(algo, k)
	case kindEvaluate:
		var req serve.EvaluateRequest
		ot.child("serve.decode", func() { errs = append(errs, json.Unmarshal(body, &req)) })
		ot.child("core.evaluate", func() { evaluate(e, l.placement) })
	case kindBatch:
		var req serve.BatchRequest
		ot.child("serve.decode", func() { errs = append(errs, json.Unmarshal(body, &req)) })
		for m := 0; m < batchItems; m++ {
			solve(w.batchItem(i, m))
		}
	}
	ot.child("serve.encode", func() {
		_, err := json.Marshal(resp)
		errs = append(errs, err)
	})
	ot.commit(kindNames[kind], true)
	return firstErr(errs)
}

// maxStaleRetries bounds the spin of an update whose pin keeps losing.
const maxStaleRetries = 100_000

// update pins the lineage head the benchmark knows and moves it to the
// other volume state. A stale pin (another client got there first) is
// retried against the newer head and counted, never failed.
func (w *byref) update(i int64, l *lineage, ot *opTrace) sample {
	s := sample{idx: i, read: -1}
	var first time.Time
	for attempt := 0; ; attempt++ {
		seq := l.seq.Load()
		ops := driftOps(l.pr, l.drift, int(seq+1)%2)
		req := serve.UpdateRequest{Digest: l.pr.digest + "@" + strconv.FormatInt(seq, 10)}
		for _, op := range ops {
			req.Updates = append(req.Updates, serve.FlowUpdateSpec{Op: "set_volume", Flow: op.Flow, Volume: op.Volume})
		}
		body, err := json.Marshal(req)
		if err != nil {
			s.failed = err.Error()
			return s
		}
		code, out, start, end := w.sv.call("/v1/update", body)
		if attempt == 0 {
			first = start
		}
		s.total, s.write, s.reqBytes = end.Sub(first), end.Sub(first), len(body)
		if code == http.StatusConflict && bytes.Contains(out, []byte(serve.CodeStaleDigest)) && attempt < maxStaleRetries {
			w.staleRetries.Add(1)
			runtime.Gosched()
			continue
		}
		var resp serve.UpdateResponse
		if err := decodeJSON(code, out, &resp); err != nil {
			s.failed = "update: " + err.Error()
			return s
		}
		if resp.Seq != int(seq)+1 || resp.Digest != core.DeriveDigest(l.pr.digest, int(seq)+1) {
			s.failed = fmt.Sprintf("update @%d answered seq %d digest %s", seq, resp.Seq, resp.Digest)
			return s
		}
		for cur := l.seq.Load(); cur < seq+1 && !l.seq.CompareAndSwap(cur, seq+1); cur = l.seq.Load() {
		}
		s.touched = resp.TouchedNodes
		if ot != nil {
			ot.root("serve.update", first, end)
			var (
				dec     serve.UpdateRequest
				next    *core.Engine
				touched []graph.NodeID
				errs    []error
			)
			ot.child("serve.decode", func() { errs = append(errs, json.Unmarshal(body, &dec)) })
			from := int(seq % 2)
			ot.child("core.apply_copy", func() {
				var err error
				next, touched, err = l.eng[from].ApplyCopy(ops)
				errs = append(errs, err)
			})
			if err := firstErr(errs); err != nil {
				s.failed = "replay: " + err.Error()
				return s
			}
			ot.child("core.warm_refresh", func() { l.warm[from].Clone().Refresh(next, touched) })
			ot.child("serve.encode", func() {
				_, err := json.Marshal(&resp)
				errs = append(errs, err)
			})
			ot.commit("update", true)
			if err := firstErr(errs); err != nil {
				s.failed = "replay: " + err.Error()
			}
		}
		return s
	}
}

func (w *byref) finish() []failure {
	if n := w.sv.counter("serve.cache.evicted"); n != 0 {
		return []failure{{-1, fmt.Sprintf("serve.cache.evicted = %d", n)}}
	}
	return nil
}

func (w *byref) counters() map[string]float64 { return w.sv.serveCounters(w.staleRetries.Load()) }
func (w *byref) probeProblem() *problem       { return w.hot[w.rank[0]] }
func (w *byref) close()                       { w.sv.close() }
