package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"roadside/internal/core"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// raceProblem is one distinct problem plus its single-threaded oracle.
type raceProblem struct {
	body   []byte
	digest string
	want   *core.Placement
}

// solveSingle runs the named solver directly: the oracle side of the
// bit-identity assertions.
func solveSingle(t *testing.T, algo string, e *core.Engine) *core.Placement {
	t.Helper()
	solve, ok := core.Solver(algo)
	if !ok {
		t.Fatalf("unknown algo %q", algo)
	}
	pl, err := solve(e)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// raceProblems generates n distinct problems with oracle answers, rotating
// the solver family per problem.
func raceProblems(t *testing.T, n int) []raceProblem {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	algos := []string{"algorithm1", "algorithm2", "combined", "lazy"}
	seen := map[string]bool{}
	out := make([]raceProblem, n)
	for i := range out {
		p := testutil.RandomProblem(t, rng, 12, 8, 3, utility.Linear{D: 15})
		spec, err := ProblemSpecOf(p)
		if err != nil {
			t.Fatal(err)
		}
		digest, err := core.ProblemDigest(p)
		if err != nil {
			t.Fatal(err)
		}
		if seen[digest] {
			t.Fatalf("problem %d collides with an earlier digest %s", i, digest)
		}
		seen[digest] = true
		algo := algos[i%len(algos)]
		body, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: p.K, Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngineWorkers(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = raceProblem{body: body, digest: digest, want: solveSingle(t, algo, eng)}
	}
	return out
}

// checkPlace posts one problem and verifies the response bit-for-bit
// against the oracle.
func checkPlace(url string, p *raceProblem) error {
	resp, err := http.Post(url+"/v1/place", "application/json", bytes.NewReader(p.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var got PlaceResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Digest != p.digest {
		return fmt.Errorf("digest %q, want %q", got.Digest, p.digest)
	}
	if len(got.Nodes) != len(p.want.Nodes) {
		return fmt.Errorf("served %v, oracle %v", got.Nodes, p.want.Nodes)
	}
	for i := range got.Nodes {
		if got.Nodes[i] != p.want.Nodes[i] {
			return fmt.Errorf("served %v, oracle %v", got.Nodes, p.want.Nodes)
		}
	}
	if math.Float64bits(got.Attracted) != math.Float64bits(p.want.Attracted) {
		return fmt.Errorf("attracted %v, oracle %v: not bit-identical", got.Attracted, p.want.Attracted)
	}
	return nil
}

// TestConcurrentClientsCoalesce is the headline concurrency acceptance
// test: 64 concurrent clients across 8 distinct problems produce exactly 8
// engine builds (request coalescing), and every response is bit-identical
// to a fresh single-threaded engine's answer. Run under -race in CI.
func TestConcurrentClientsCoalesce(t *testing.T) {
	const clients, nProblems = 64, 8
	problems := raceProblems(t, nProblems)
	s, ts := newTestServer(t, Config{})

	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for j := 0; j < nProblems; j++ {
				p := &problems[(c+j)%nProblems]
				if err := checkPlace(ts.URL, p); err != nil {
					t.Errorf("client %d problem %s: %v", c, p.digest[:16], err)
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()

	reg := s.Metrics()
	builds := reg.Counter("serve.engine.builds").Value()
	if builds != nProblems {
		t.Errorf("serve.engine.builds = %d, want exactly %d", builds, nProblems)
	}
	miss := reg.Counter("serve.cache.miss").Value()
	hit := reg.Counter("serve.cache.hit").Value()
	coal := reg.Counter("serve.cache.coalesced").Value()
	if total := miss + hit + coal; total != clients*nProblems {
		t.Errorf("miss+hit+coalesced = %d+%d+%d = %d, want %d requests accounted",
			miss, hit, coal, total, clients*nProblems)
	}
	if miss != nProblems {
		t.Errorf("serve.cache.miss = %d, want %d (one per distinct problem)", miss, nProblems)
	}
}

// TestTinyCacheBudgetUnderRace sets the LRU budget to one byte so every
// insert evicts the previous engine, then races clients over several
// problems: constant churn, yet every response must stay bit-identical —
// eviction can never corrupt an in-flight solve.
func TestTinyCacheBudgetUnderRace(t *testing.T) {
	const clients, nProblems, rounds = 16, 4, 6
	problems := raceProblems(t, nProblems)
	s, ts := newTestServer(t, Config{CacheBytes: 1})

	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for j := 0; j < nProblems*rounds; j++ {
				p := &problems[(c+j)%nProblems]
				if err := checkPlace(ts.URL, p); err != nil {
					t.Errorf("client %d problem %s: %v", c, p.digest[:16], err)
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()

	if entries, _ := s.cache.Stats(); entries != 1 {
		t.Errorf("cache entries = %d under a 1-byte budget, want 1", entries)
	}
	if evicted := s.Metrics().Counter("serve.cache.evicted").Value(); evicted == 0 {
		t.Error("no evictions under a 1-byte budget with 4 rotating problems")
	}
}

// TestMemoHitsRaceUpdatesAndRebuilds races full-body clients, most of them
// memo hits, against an updater that keeps moving the lineage past
// sequence 0, so the clients' requests keep turning into full-body
// rebuilds that replace the drifted head and memoize the key again. Every
// full-body answer must still be sequence 0's, bit for bit, and every Get
// must land in exactly one of hit, miss and coalesced. Run under -race in
// CI.
func TestMemoHitsRaceUpdatesAndRebuilds(t *testing.T) {
	const clients, rounds, updates = 6, 20, 20
	p := &raceProblems(t, 1)[0]
	s, ts := newTestServer(t, Config{})
	if err := checkPlace(ts.URL, p); err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < updates; i++ {
			body, err := json.Marshal(UpdateRequest{Digest: p.digest,
				Updates: []FlowUpdateSpec{{Op: "set_volume", Flow: 0, Volume: float64(10 + i)}}})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			//lint:ignore errdrop only the status matters here
			_, _ = io.Copy(io.Discard, resp.Body)
			if err := resp.Body.Close(); err != nil {
				t.Error(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("update %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for j := 0; j < rounds; j++ {
				if err := checkPlace(ts.URL, p); err != nil {
					t.Errorf("client %d round %d: %v", c, j, err)
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()

	reg := s.Metrics()
	hit, miss, coal := counter(reg, "serve.cache.hit"), counter(reg, "serve.cache.miss"), counter(reg, "serve.cache.coalesced")
	if total := hit + miss + coal; total != clients*rounds+1 {
		t.Errorf("hit %d + miss %d + coalesced %d = %d, want %d full-body Gets", hit, miss, coal, total, clients*rounds+1)
	}
	if memo := counter(reg, "serve.cache.memo_hits"); memo == 0 {
		t.Error("no full-body request was a memo hit")
	}
	if builds := counter(reg, "serve.engine.builds"); builds != miss {
		t.Errorf("builds %d, misses %d: every miss must build once", builds, miss)
	}
	if entries, _ := s.cache.Stats(); entries != 1 {
		t.Errorf("cache entries = %d, want one per lineage", entries)
	}
}
