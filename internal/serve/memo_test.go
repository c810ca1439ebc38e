package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"roadside/internal/core"
	"roadside/internal/graph"
	"roadside/internal/obs"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

func memoHits(s *Server) int64   { return s.Metrics().Counter("serve.cache.memo_hits").Value() }
func memoKeys(s *Server) float64 { return s.Metrics().Gauge("serve.cache.memo_keys").Value() }

func compact(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// placeAnswer posts a /v1/place body and decodes its 200 answer.
func placeAnswer(t *testing.T, url string, body []byte) *PlaceResponse {
	t.Helper()
	status, data := postJSON(t, url+"/v1/place", body)
	if status != http.StatusOK {
		t.Fatalf("place: status %d: %s", status, data)
	}
	var r PlaceResponse
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

// samePlacement reports whether two answers agree bit for bit.
func samePlacement(a, b *PlaceResponse) bool {
	if a.Digest != b.Digest || len(a.Nodes) != len(b.Nodes) || len(a.StepGains) != len(b.StepGains) ||
		math.Float64bits(a.Attracted) != math.Float64bits(b.Attracted) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || math.Float64bits(a.StepGains[i]) != math.Float64bits(b.StepGains[i]) {
			return false
		}
	}
	return true
}

// TestMemoHitSkipsDecode: the first full body decodes and memoizes its
// key; every later full-body request with the same problem bytes — place,
// evaluate, detour, batch and a place job — is a memo hit answered as a
// cache hit, with the answer the decode path gave.
func TestMemoHitSkipsDecode(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := fig4Spec(t)
	body := compact(t, PlaceRequest{ProblemSpec: spec, K: 2, Algo: "algorithm2"})

	first := placeAnswer(t, ts.URL, body)
	if first.Cache != CacheMiss || memoHits(s) != 0 || memoKeys(s) != 1 {
		t.Fatalf("first place: cache %q, memo hits %d, keys %v; want miss, 0, 1", first.Cache, memoHits(s), memoKeys(s))
	}
	second := placeAnswer(t, ts.URL, body)
	if second.Cache != CacheHit || memoHits(s) != 1 || !samePlacement(first, second) {
		t.Fatalf("repeat place: cache %q, memo hits %d, same answer %v; want hit, 1, true",
			second.Cache, memoHits(s), samePlacement(first, second))
	}

	others := []struct{ path, body string }{
		{"/v1/evaluate", string(compact(t, EvaluateRequest{ProblemSpec: spec, Placement: []graph.NodeID{2, 4}}))},
		{"/v1/detour", string(compact(t, DetourRequest{ProblemSpec: spec, Nodes: []graph.NodeID{2}}))},
		{"/v1/batch", string(compact(t, BatchRequest{ProblemSpec: spec, Items: []BatchItem{{K: 1}, {K: 2}}}))},
	}
	for i, o := range others {
		status, data := postJSON(t, ts.URL+o.path, []byte(o.body))
		if status != http.StatusOK || !strings.Contains(string(data), `"cache":"hit"`) {
			t.Fatalf("%s: status %d: %s", o.path, status, data)
		}
		if got, want := memoHits(s), int64(2+i); got != want {
			t.Fatalf("%s: memo hits %d, want %d", o.path, got, want)
		}
	}

	job := compact(t, JobRequest{Kind: "place", Request: body})
	status, data := postJSON(t, ts.URL+"/v1/jobs", job)
	if status != http.StatusOK {
		t.Fatalf("job submit: status %d: %s", status, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	st = *awaitJob(t, ts.URL, st.ID)
	if res, _ := st.Result.(map[string]any); st.State != JobDone || res["cache"] != CacheHit {
		t.Fatalf("place job = %+v, want done with a cache hit", st)
	}
	if memoHits(s) != 5 || memoKeys(s) != 1 {
		t.Fatalf("memo hits %d, keys %v; want 5, 1", memoHits(s), memoKeys(s))
	}
	hit, miss, coal := counter(s.Metrics(), "serve.cache.hit"), counter(s.Metrics(), "serve.cache.miss"),
		counter(s.Metrics(), "serve.cache.coalesced")
	if hit != 5 || miss != 1 || coal != 0 {
		t.Errorf("hit/miss/coalesced = %d/%d/%d, want 5/1/0: memo hits must still count one Get each", hit, miss, coal)
	}
}

// TestMemoKeyCompleteness: the key covers every field decodeProblem reads.
// A body that differs from a cached problem in exactly one of them takes
// the decode path to its own digest and engine; a whitespace-reformatted
// body of the cached problem takes the decode path to the cached engine.
func TestMemoKeyCompleteness(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := fig4Spec(t)
	place := func(spec ProblemSpec) []byte {
		return compact(t, PlaceRequest{ProblemSpec: spec, K: 2, Algo: "algorithm2"})
	}
	cached := placeAnswer(t, ts.URL, place(spec))
	if cached.Cache != CacheMiss {
		t.Fatalf("seed place: cache %q", cached.Cache)
	}

	replaceOnce := func(raw json.RawMessage, old, new string) json.RawMessage {
		if !bytes.Contains(raw, []byte(old)) {
			t.Fatalf("%s not in %s", old, raw)
		}
		return json.RawMessage(strings.Replace(string(raw), old, new, 1))
	}
	variants := []struct {
		field  string
		mutate func(*ProblemSpec)
	}{
		{"graph", func(p *ProblemSpec) { p.Graph = replaceOnce(p.Graph, `"y":1`, `"y":1.5`) }},
		{"flows", func(p *ProblemSpec) { p.Flows = replaceOnce(p.Flows, `"volume":6`, `"volume":7`) }},
		{"utility", func(p *ProblemSpec) { p.Utility = "threshold" }},
		{"utility_d", func(p *ProblemSpec) { p.UtilityD = math.Nextafter(p.UtilityD, 11) }},
		{"shop", func(p *ProblemSpec) { p.Shop = 5 }},
		{"extra_shops", func(p *ProblemSpec) { p.ExtraShops = []graph.NodeID{5} }},
		{"candidates", func(p *ProblemSpec) { p.Candidates = []graph.NodeID{1, 2, 4} }},
	}
	for _, v := range variants {
		t.Run(v.field, func(t *testing.T) {
			vs := spec
			v.mutate(&vs)
			p, apiErr := decodeProblem(&vs, 2)
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			want, err := core.ProblemDigest(p)
			if err != nil {
				t.Fatal(err)
			}
			if want == cached.Digest {
				t.Fatalf("the %s variant digests like the cached problem", v.field)
			}
			hits := memoHits(s)
			got := placeAnswer(t, ts.URL, place(vs))
			if got.Digest != want || got.Cache != CacheMiss || memoHits(s) != hits {
				t.Fatalf("digest %s cache %q memo hits +%d; want its own %s, a miss, no memo hit",
					got.Digest, got.Cache, memoHits(s)-hits, want)
			}
		})
	}

	hits := memoHits(s)
	reformatted := mustMarshal(t, PlaceRequest{ProblemSpec: spec, K: 2, Algo: "algorithm2"})
	got := placeAnswer(t, ts.URL, reformatted)
	if got.Cache != CacheHit || memoHits(s) != hits || !samePlacement(cached, got) {
		t.Fatalf("reformatted body: cache %q, memo hits +%d, same answer %v; want a decode-path hit with the same bits",
			got.Cache, memoHits(s)-hits, samePlacement(cached, got))
	}
	if again := placeAnswer(t, ts.URL, reformatted); memoHits(s) != hits+1 || !samePlacement(cached, again) {
		t.Fatalf("reformatted body, sent again: memo hits +%d, want its own key to hit", memoHits(s)-hits)
	}
}

// TestMemoHitCountsOnce: serve.cache.memo_hits counts once per request
// that uses a recalled digest, whether the body reached the memo through
// the split or through the whole-body decode, and not at all for a
// memoized body rejected before that point.
func TestMemoHitCountsOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body, graph, flows, small := fig4Members(t)
	first := placeAnswer(t, ts.URL, body)
	cases := []struct {
		name     string
		body     string
		split    bool
		status   int
		code     string
		memoHits int64
	}{
		{"envelope whitespace", " \n{ \"graph\" :" + graph + " ,\t\"flows\":\r\n" + flows + " , " + small + " }\n",
			true, http.StatusOK, "", 1},
		{"Graph key", `{"Graph":` + graph + `,"flows":` + flows + `,` + small + `}`,
			false, http.StatusOK, "", 1},
		{"k 0", `{"graph":` + graph + `,"flows":` + flows + `,` + strings.Replace(small, `"k":2`, `"k":0`, 1) + `}`,
			true, http.StatusUnprocessableEntity, CodeBadBudget, 0},
	}
	for _, tc := range cases {
		if _, _, _, ok := splitProblem([]byte(tc.body)); ok != tc.split {
			t.Fatalf("%s: split %v, want %v", tc.name, ok, tc.split)
		}
		hits, gets := memoHits(s), counter(s.Metrics(), "serve.cache.hit")
		if tc.status == http.StatusOK {
			got := placeAnswer(t, ts.URL, []byte(tc.body))
			if got.Cache != CacheHit || !samePlacement(first, got) {
				t.Errorf("%s: cache %q, same answer %v; want a hit with the first answer", tc.name, got.Cache, samePlacement(first, got))
			}
		} else if status, code := postErrorCode(t, ts.URL+"/v1/place", []byte(tc.body)); status != tc.status || code != tc.code {
			t.Errorf("%s: %d %s, want %d %s", tc.name, status, code, tc.status, tc.code)
		}
		if got := memoHits(s) - hits; got != tc.memoHits {
			t.Errorf("%s: memo hits +%d, want +%d", tc.name, got, tc.memoHits)
		}
		if got := counter(s.Metrics(), "serve.cache.hit") - gets; got != tc.memoHits {
			t.Errorf("%s: cache hits +%d, want +%d", tc.name, got, tc.memoHits)
		}
	}
	if memoKeys(s) != 1 {
		t.Errorf("memo keys %v, want 1: a memo hit writes no key", memoKeys(s))
	}
}

// TestMemoKeepsCheckOrder: on the memo path, node checks still run before
// admission, so an out-of-range node on a request whose deadline has
// already passed answers 422, exactly as on the decode path.
func TestMemoKeepsCheckOrder(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := fig4Spec(t)
	placeAnswer(t, ts.URL, compact(t, PlaceRequest{ProblemSpec: spec, K: 1}))
	cases := []struct {
		path       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"/v1/evaluate", compact(t, EvaluateRequest{ProblemSpec: spec, Placement: []graph.NodeID{99}, TimeoutMS: 1e-6}),
			http.StatusUnprocessableEntity, CodeBadPlacement},
		{"/v1/detour", compact(t, DetourRequest{ProblemSpec: spec, Nodes: []graph.NodeID{-1}, TimeoutMS: 1e-6}),
			http.StatusUnprocessableEntity, CodeBadNodes},
		{"/v1/evaluate", compact(t, EvaluateRequest{ProblemSpec: spec, Placement: []graph.NodeID{2}, TimeoutMS: 1e-6}),
			http.StatusGatewayTimeout, CodeDeadlineExceeded},
	}
	for i, tc := range cases {
		status, code := postErrorCode(t, ts.URL+tc.path, tc.body)
		if status != tc.wantStatus || code != tc.wantCode {
			t.Errorf("%s case %d: %d %s, want %d %s", tc.path, i, status, code, tc.wantStatus, tc.wantCode)
		}
		if memoHits(s) != int64(i+1) {
			t.Fatalf("%s case %d: memo hits %d, want the memo path", tc.path, i, memoHits(s))
		}
	}
}

// TestMemoDroppedOnUpdate mirrors TestCacheFullBodyRebuildReplacesDriftedHead
// over the wire: after an update moves the lineage past sequence 0, the
// full body is a miss that rebuilds sequence 0, not a memo hit on the
// drifted head; the rebuild memoizes the key again.
func TestMemoDroppedOnUpdate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := compact(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "lazy"})
	first := placeAnswer(t, ts.URL, body)
	status, data := postJSON(t, ts.URL+"/v1/update", compact(t, UpdateRequest{
		Digest: first.Digest, Updates: []FlowUpdateSpec{{Op: "set_volume", Flow: 0, Volume: 70}}}))
	if status != http.StatusOK {
		t.Fatalf("update: status %d: %s", status, data)
	}
	if memoKeys(s) != 0 {
		t.Fatalf("memo keys %v after the update, want 0", memoKeys(s))
	}
	rebuilt := placeAnswer(t, ts.URL, body)
	if rebuilt.Cache != CacheMiss || memoHits(s) != 0 || !samePlacement(first, rebuilt) {
		t.Fatalf("full body after update: cache %q, memo hits %d; want a miss rebuilding sequence 0", rebuilt.Cache, memoHits(s))
	}
	if again := placeAnswer(t, ts.URL, body); again.Cache != CacheHit || memoHits(s) != 1 {
		t.Fatalf("full body after the rebuild: cache %q, memo hits %d; want a memo hit", again.Cache, memoHits(s))
	}
}

// TestMemoVariantsStayInBudget: many whitespace variants of one problem
// each add a key, and the keys' bytes are bounded by the cache budget.
func TestMemoVariantsStayInBudget(t *testing.T) {
	eng, err := core.NewEngine(testutil.Fig4Problem(t, utility.Linear{D: 10}))
	if err != nil {
		t.Fatal(err)
	}
	const room = 3
	budget := eng.ArenaBytes() + room*memoKeyBytes
	s, ts := newTestServer(t, Config{CacheBytes: budget})
	req := PlaceRequest{ProblemSpec: fig4Spec(t), K: 2}
	var bodies [][]byte
	for i := 0; i < 12; i++ {
		b, err := json.MarshalIndent(req, "", strings.Repeat(" ", i))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
		want := CacheHit
		if i == 0 {
			want = CacheMiss
		}
		if got := placeAnswer(t, ts.URL, b); got.Cache != want {
			t.Fatalf("variant %d: cache %q, want %q", i, got.Cache, want)
		}
		if entries, bytes := s.cache.Stats(); entries != 1 || bytes > budget {
			t.Fatalf("variant %d: %d entries, %d bytes; budget %d", i, entries, bytes, budget)
		}
	}
	if memoKeys(s) != room || memoHits(s) != 0 {
		t.Fatalf("memo keys %v, hits %d; want %d, 0", memoKeys(s), memoHits(s), room)
	}
	for i, b := range bodies {
		hits := memoHits(s)
		placeAnswer(t, ts.URL, b)
		want := int64(0) // no room was left for its key
		if i < room {
			want = 1
		}
		if got := memoHits(s) - hits; got != want {
			t.Errorf("variant %d: memo hits +%d, want +%d", i, got, want)
		}
	}
}

// TestCacheMemoLifetime pins the memo rules at the cache: a key is
// written only onto a lineage at sequence 0, is charged to its entry, and
// leaves with the entry, whether an update replaces it or the LRU evicts
// it.
func TestCacheMemoLifetime(t *testing.T) {
	reg := obs.NewRegistry()
	eng := testEngine(t)
	arena := eng.ArenaBytes()
	c := newEngineCache(2*arena, reg) // room for exactly two engines
	build := func() (*core.Engine, error) { return eng, nil }
	ctx := context.Background()
	key := func(b byte) memoKey { return memoKey{b} }
	keys := func() float64 { return reg.Gauge("serve.cache.memo_keys").Value() }

	base, err := core.ProblemDigest(eng.Problem())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ctx, base, build); err != nil {
		t.Fatal(err)
	}
	c.Remember(key(1), base)
	c.Remember(key(1), base) // a repeat is not charged twice
	if d, e, ok := c.Peek(key(1)); !ok || d != base || e != eng {
		t.Fatalf("Peek = %q, %p, %v; want the seq-0 entry", d, e, ok)
	}
	if _, bytes := c.Stats(); bytes != arena+memoKeyBytes || keys() != 1 {
		t.Fatalf("bytes %d, keys %v; want %d, 1", bytes, keys(), arena+memoKeyBytes)
	}

	if _, _, apiErr := c.Update(base, []core.FlowUpdate{{Op: core.OpSetVolume, Flow: 0, Volume: 70}}); apiErr != nil {
		t.Fatal(apiErr)
	}
	if _, _, ok := c.Peek(key(1)); ok || keys() != 0 {
		t.Fatalf("Peek after update = %v, keys %v; want the key gone with its entry", ok, keys())
	}
	c.Remember(key(2), base) // the lineage is at sequence 1
	if _, _, ok := c.Peek(key(2)); ok {
		t.Fatal("a key was written onto a lineage past sequence 0")
	}
	if _, bytes := c.Stats(); bytes != arena {
		t.Fatalf("bytes %d after the update, want %d: key bytes leaked", bytes, arena)
	}

	// Eviction: a memoized entry at the LRU tail leaves with its key.
	if _, _, err := c.Get(ctx, "a", build); err != nil {
		t.Fatal(err)
	}
	c.Remember(key(3), "a") // charging a's key evicts base from the tail
	if _, _, err := c.Get(ctx, "b", build); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Peek(key(3)); ok || keys() != 0 {
		t.Fatalf("Peek(a's key) = %v, keys %v after a was evicted", ok, keys())
	}
	if entries, bytes := c.Stats(); entries != 1 || bytes != arena {
		t.Fatalf("Stats = (%d, %d), want (1, %d)", entries, bytes, arena)
	}
	if got := counter(reg, "serve.cache.memo_hits"); got != 0 {
		t.Errorf("memo hits = %d, want 0: Peek counts nothing, decodeFull does", got)
	}
}
