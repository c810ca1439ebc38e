package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"roadside/internal/obs"
	"roadside/internal/serve"
)

// TestRunLoadSmoke drives the loopback load mode end to end for a moment:
// it must complete without failures and leave a metrics export behind.
func TestRunLoadSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.txt")
	st, err := runLoad(serve.Config{}, loadOpts{
		dur: 300 * time.Millisecond, clients: 2, problems: 2, seed: 1,
		metricsOut: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.failures != 0 {
		t.Errorf("%d failures", st.failures)
	}
	text, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"serve.engine.builds", "serve.http.place.requests",
		"router.requests", "client.place.us"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics export lacks %q", want)
		}
	}
}

// TestRunLoadShardedSmoke runs the same mixed workload against a 3-shard
// cluster: zero failures means every routed answer was bit-identical, and
// the coalesce gate holding across shards means digest affinity kept each
// engine on exactly one worker.
func TestRunLoadShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard soak")
	}
	st, err := runLoad(serve.Config{}, loadOpts{
		dur: 400 * time.Millisecond, clients: 3, problems: 3, seed: 2,
		shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.failures != 0 {
		t.Errorf("%d failures", st.failures)
	}
	if st.requests == 0 {
		t.Error("no requests completed")
	}
}

func TestRunLoadRejectsBadCounts(t *testing.T) {
	if _, err := runLoad(serve.Config{}, loadOpts{dur: time.Millisecond, clients: 0, problems: 1}); err == nil {
		t.Error("clients=0 accepted")
	}
	if _, err := runLoad(serve.Config{}, loadOpts{dur: time.Millisecond, clients: 1, problems: 0}); err == nil {
		t.Error("problems=0 accepted")
	}
}

func TestRunCompareRejectsBadShards(t *testing.T) {
	if err := runCompare(serve.Config{}, compareOpts{shards: 1}); err == nil {
		t.Error("compare-shards=1 accepted")
	}
}

func TestSolveWorkersUnknownAlgo(t *testing.T) {
	if _, err := solveWorkers("annealing", nil); err == nil {
		t.Error("unknown algo accepted")
	}
}

func TestRunParsesFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestHistQuantile pins the bucket-walk estimator on a hand-built
// histogram: 10 observations, bounds {1, 10, 100}.
func TestHistQuantile(t *testing.T) {
	hs := obs.HistSnapshot{
		Count:   10,
		Bounds:  []float64{1, 10, 100},
		Buckets: []int64{2, 4, 3, 1},
	}
	if got := histQuantile(hs, 0.50); got != 10 {
		t.Errorf("p50 = %v, want 10", got)
	}
	if got := histQuantile(hs, 0.99); got != 200 {
		t.Errorf("p99 = %v, want 200 (overflow estimate)", got)
	}
}
