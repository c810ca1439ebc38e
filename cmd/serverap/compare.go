package main

import (
	"fmt"
	"time"

	"roadside/internal/benchio"
	"roadside/internal/serve"
)

// compareOpts parameterizes a 1-shard vs N-shard throughput comparison.
type compareOpts struct {
	shards     int
	dur        time.Duration
	clients    int
	problems   int
	seed       int64
	benchOut   string
	minSpeedup float64
}

// runCompare measures the scale-out claim of the shard router on one
// machine: the same capacity-constrained mixed workload against a 1-shard
// deployment and an N-shard deployment, both behind the router front.
//
// The per-worker cache is budgeted at 1.3x the largest arena footprint any
// single shard actually owns under consistent hashing, so every N-shard
// worker holds its owned engines with headroom while a single worker —
// handed the same budget but the whole working set — thrashes, rebuilding
// evicted engines on most requests. On a single-CPU machine this is
// exactly the regime the router is for: the speedup comes from aggregate
// cache capacity and digest affinity, not core count. Every response in
// both phases is still checked bit-for-bit.
func runCompare(cfg serve.Config, o compareOpts) error {
	if o.shards < 2 {
		return fmt.Errorf("-compare-shards must be >= 2, got %d", o.shards)
	}
	// Enough problems that consistent hashing spreads ownership: with too
	// few keys one shard can own most of the working set and the capacity
	// contrast washes out.
	if o.problems < 4*o.shards {
		o.problems = 6 * o.shards
	}
	pool, totalArena, err := buildPool(o.problems, o.seed, true)
	if err != nil {
		return err
	}
	// A ring-only router (same backend names startCluster will use, so the
	// same ring) tells us how much arena each shard actually owns.
	backends := make([]serve.Backend, o.shards)
	for i := range backends {
		backends[i] = serve.Backend{Name: fmt.Sprintf("w%d", i), URL: "http://ring.only.invalid"}
	}
	ring, err := serve.NewRouter(serve.RouterConfig{Backends: backends})
	if err != nil {
		return err
	}
	owned := map[string]int64{}
	for i := range pool {
		owner, ok := ring.Owner(pool[i].digest)
		if !ok {
			return fmt.Errorf("no owner for digest %s", pool[i].digest)
		}
		owned[owner] += pool[i].arena
	}
	var maxOwned int64
	for _, b := range owned {
		if b > maxOwned {
			maxOwned = b
		}
	}
	cfg.CacheBytes = maxOwned * 23 / 20
	fmt.Printf("serverap compare: working set %d bytes across %d problems, max shard ownership %d bytes, per-worker cache %d bytes\n",
		totalArena, o.problems, maxOwned, cfg.CacheBytes)

	phase := func(shards int) (*loadStats, error) {
		fmt.Printf("serverap compare: --- %d shard(s) ---\n", shards)
		return runLoad(cfg, loadOpts{
			dur:      o.dur,
			clients:  o.clients,
			problems: o.problems,
			seed:     o.seed,
			shards:   shards,
			zipfS:    1.01, // near-uniform popularity: the whole set stays hot
			capacity: true,
		})
	}
	single, err := phase(1)
	if err != nil {
		return fmt.Errorf("1-shard phase: %w", err)
	}
	sharded, err := phase(o.shards)
	if err != nil {
		return fmt.Errorf("%d-shard phase: %w", o.shards, err)
	}

	speedup := sharded.reqPerSec() / single.reqPerSec()
	fmt.Printf("serverap compare: 1 shard %.0f req/s, %d shards %.0f req/s, speedup %.2fx\n",
		single.reqPerSec(), o.shards, sharded.reqPerSec(), speedup)

	if o.benchOut != "" {
		report := benchio.New("serverap-shard-compare", false)
		nsPerOp := func(st *loadStats) float64 {
			if st.requests == 0 {
				return 0
			}
			return float64(st.wall.Nanoseconds()) / float64(st.requests)
		}
		report.Add(benchio.Entry{
			Name:       "serve_load_1shard",
			NsPerOp:    nsPerOp(single),
			Iterations: int(single.requests),
		})
		report.Add(benchio.Entry{
			Name:       fmt.Sprintf("serve_load_%dshard", o.shards),
			NsPerOp:    nsPerOp(sharded),
			Iterations: int(sharded.requests),
			BaselineNs: nsPerOp(single),
			Speedup:    speedup,
		})
		for _, st := range []*loadStats{single, sharded} {
			tag := "1shard"
			if st == sharded {
				tag = fmt.Sprintf("%dshard", o.shards)
			}
			for _, ep := range latEndpoints {
				hs, ok := st.lat.Histograms["client."+ep+".us"]
				if !ok || hs.Count == 0 {
					continue
				}
				report.Add(benchio.Entry{
					Name:       fmt.Sprintf("serve_%s_%s_p50", tag, ep),
					NsPerOp:    histQuantile(hs, 0.50) * 1e3,
					Iterations: int(hs.Count),
				})
				report.Add(benchio.Entry{
					Name:       fmt.Sprintf("serve_%s_%s_p99", tag, ep),
					NsPerOp:    histQuantile(hs, 0.99) * 1e3,
					Iterations: int(hs.Count),
				})
			}
		}
		if err := benchio.Write(o.benchOut, report); err != nil {
			return err
		}
		fmt.Printf("serverap compare: report written to %s\n", o.benchOut)
	}

	if speedup < o.minSpeedup {
		return fmt.Errorf("%d-shard speedup %.2fx below the %.2fx floor", o.shards, speedup, o.minSpeedup)
	}
	return nil
}
