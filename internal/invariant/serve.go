package invariant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"roadside/internal/core"
	"roadside/internal/serve"
)

func init() {
	register(Invariant{Name: "serve-identity",
		Doc:   "serving a placement through an in-process HTTP server (miss, memo hit, then a decode-path hit on re-encoded bytes) equals calling the engine directly, bit-for-bit",
		Check: checkServeIdentity})
}

// recorder is a minimal in-memory http.ResponseWriter. net/http/httptest
// provides one, but that package registers a -httptest.serve flag at init,
// and this file is linked into the production cmd/soak binary.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{status: http.StatusOK, header: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

// serveAlgos pairs each wire algo name with its direct solver;
// checkServeIdentity rotates through them by instance seed.
var serveAlgos = []struct {
	name   string
	direct func(*core.Engine) (*core.Placement, error)
}{
	{"algorithm1", core.Algorithm1},
	{"algorithm2", core.Algorithm2},
	{"combined", core.GreedyCombined},
	{"lazy", core.GreedyLazy},
}

// checkServeIdentity round-trips the instance through an in-process
// placement server three times — the first request builds the engine
// (cache miss), the second sends the same bytes and skips decode through
// the memo (cache hit), the third re-encodes the problem's bytes and
// decodes them to the cached engine (cache hit) — and requires every
// response to match a direct single-threaded solve bit-for-bit. This
// pins the whole service stack: wire codec, memo, digest, cache, budget
// override, and solver dispatch add nothing and lose nothing.
func checkServeIdentity(inst *Instance) error {
	p := inst.Problem
	algo := serveAlgos[int(uint64(inst.Seed)%uint64(len(serveAlgos)))]

	eng, err := core.NewEngineWorkers(p, 1)
	if err != nil {
		return fmt.Errorf("serve-identity: direct engine: %w", err)
	}
	want, err := algo.direct(eng)
	if err != nil {
		return fmt.Errorf("serve-identity: direct %s: %w", algo.name, err)
	}

	spec, err := serve.ProblemSpecOf(p)
	if err != nil {
		return fmt.Errorf("serve-identity: encode problem: %w", err)
	}
	body, err := json.Marshal(serve.PlaceRequest{ProblemSpec: spec, K: p.K, Algo: algo.name})
	if err != nil {
		return fmt.Errorf("serve-identity: encode request: %w", err)
	}
	reencoded, err := json.MarshalIndent(serve.PlaceRequest{ProblemSpec: spec, K: p.K, Algo: algo.name}, "", " ")
	if err != nil {
		return fmt.Errorf("serve-identity: re-encode request: %w", err)
	}

	s := serve.New(serve.Config{})
	memoHits := s.Metrics().Counter("serve.cache.memo_hits")
	for _, pass := range []struct {
		name         string
		body         []byte
		wantCache    string
		wantMemoHits int64
	}{
		{"miss", body, serve.CacheMiss, 0},
		{"memo hit", body, serve.CacheHit, 1},
		{"decode-path hit", reencoded, serve.CacheHit, 1},
	} {
		req, err := http.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(pass.body))
		if err != nil {
			return fmt.Errorf("serve-identity: %w", err)
		}
		rec := newRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.status != http.StatusOK {
			return fmt.Errorf("serve-identity: %s pass: status %d: %s", pass.name, rec.status, rec.body.String())
		}
		var got serve.PlaceResponse
		if err := json.Unmarshal(rec.body.Bytes(), &got); err != nil {
			return fmt.Errorf("serve-identity: decode response: %w", err)
		}
		if got.Cache != pass.wantCache || memoHits.Value() != pass.wantMemoHits {
			return fmt.Errorf("serve-identity: %s pass: cache outcome %q after %d memo hits, want %q after %d",
				pass.name, got.Cache, memoHits.Value(), pass.wantCache, pass.wantMemoHits)
		}
		if len(got.Nodes) != len(want.Nodes) || len(got.StepGains) != len(want.StepGains) {
			return fmt.Errorf("serve-identity: %s (%s) served %v, direct %v",
				algo.name, pass.name, got.Nodes, want.Nodes)
		}
		for i := range got.Nodes {
			if got.Nodes[i] != want.Nodes[i] || math.Float64bits(got.StepGains[i]) != math.Float64bits(want.StepGains[i]) {
				return fmt.Errorf("serve-identity: %s (%s) served %v (gains %v), direct %v (gains %v)",
					algo.name, pass.name, got.Nodes, got.StepGains, want.Nodes, want.StepGains)
			}
		}
		if math.Float64bits(got.Attracted) != math.Float64bits(want.Attracted) {
			return fmt.Errorf("serve-identity: %s (%s) served attracted %v, direct %v: not bit-identical",
				algo.name, pass.name, got.Attracted, want.Attracted)
		}
	}
	return nil
}
