// Command serverap runs the placement engine as a long-lived JSON query
// service (placement-as-a-service). It serves POST /v1/place, /v1/evaluate,
// /v1/detour, /v1/update, /v1/batch and /v1/jobs plus GET /healthz and
// /metrics, with an LRU engine cache, request coalescing, bounded
// concurrency, async job queues with backpressure, and graceful drain on
// SIGINT or SIGTERM.
//
// Usage:
//
//	serverap -addr :8080
//	serverap -addr :8080 -shards 4
//	serverap -load 30s -clients 8 -problems 4 -shards 4 -metrics-out metrics.txt
//	serverap -compare-shards 4 -load 20s -bench-out results/BENCH_9.json
//
// With -shards N > 1 the process runs N shard workers on loopback
// listeners behind a consistent-hash router that owns the public address:
// requests are routed by problem digest so each engine lives on exactly
// one worker, and the aggregate cache capacity is N times one worker's.
//
// The -load form is a self-contained loopback soak: a cluster is started
// on ephemeral local ports and hammered by concurrent clients with a mixed
// place / evaluate / batch / async-job / delta-update workload under
// zipf-distributed problem popularity. Every answer is checked bit-for-bit
// against a direct single-worker engine solve, client-side latency
// histograms are kept per endpoint, and the final metrics export is
// written out. CI uses it as a mini soak.
//
// The -compare-shards form runs the same capacity-constrained workload
// against 1 shard and then N shards and writes a benchio report with the
// throughput trajectory; it exits non-zero if the N-shard deployment is
// not at least -min-speedup times faster.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"roadside/internal/core"
	"roadside/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serverap:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("serverap", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		cacheBytes = fs.Int64("cache-bytes", serve.DefaultCacheBytes, "engine cache budget in arena bytes (per shard)")
		maxBody    = fs.Int64("max-body", serve.DefaultMaxBody, "request body size limit in bytes")
		maxInFl    = fs.Int("max-inflight", 0, "max concurrent engine builds+solves (0 = 2*GOMAXPROCS)")
		timeout    = fs.Duration("timeout", serve.DefaultTimeout, "per-request deadline ceiling")
		drainWait  = fs.Duration("drain", 30*time.Second, "max time to drain in-flight requests on shutdown")
		shards     = fs.Int("shards", 1, "shard workers behind the consistent-hash router")
		load       = fs.Duration("load", 0, "run a loopback load test for this duration instead of serving")
		clients    = fs.Int("clients", 8, "concurrent clients in -load mode")
		problems   = fs.Int("problems", 4, "distinct generated problems in -load mode")
		seed       = fs.Int64("seed", 1, "instance-generator seed in -load mode")
		zipfS      = fs.Float64("zipf", 1.1, "zipf skew of problem popularity in -load mode (> 1)")
		metricsOut = fs.String("metrics-out", "", "write the final metrics export to this file in -load mode")
		compare    = fs.Int("compare-shards", 0, "compare 1-shard vs N-shard throughput on a capacity-constrained workload")
		benchOut   = fs.String("bench-out", "", "write the -compare-shards benchio report to this file")
		minSpeedup = fs.Float64("min-speedup", 2.0, "fail -compare-shards below this N-shard/1-shard throughput ratio")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := serve.Config{
		CacheBytes:  *cacheBytes,
		MaxBody:     *maxBody,
		MaxInFlight: *maxInFl,
		Timeout:     *timeout,
	}
	if *compare > 0 {
		dur := *load
		if dur <= 0 {
			dur = 20 * time.Second
		}
		return runCompare(cfg, compareOpts{
			shards:     *compare,
			dur:        dur,
			clients:    *clients,
			problems:   *problems,
			seed:       *seed,
			benchOut:   *benchOut,
			minSpeedup: *minSpeedup,
		})
	}
	if *load > 0 {
		_, err := runLoad(cfg, loadOpts{
			dur:          *load,
			clients:      *clients,
			problems:     *problems,
			seed:         *seed,
			shards:       *shards,
			zipfS:        *zipfS,
			coalesceGate: true,
			metricsOut:   *metricsOut,
		})
		return err
	}
	return runServe(cfg, *addr, *shards, *drainWait)
}

// runServe is the production mode: listen, serve, drain on signal. With
// shards > 1 the public address serves the consistent-hash router over
// loopback shard workers; with 1 shard the server handles requests
// directly with no proxy hop.
func runServe(cfg serve.Config, addr string, shards int, drainWait time.Duration) error {
	var (
		handler http.Handler
		drain   func(context.Context) error
	)
	if shards > 1 {
		cluster, err := startCluster(cfg, shards)
		if err != nil {
			return err
		}
		handler = cluster.router.Handler()
		drain = cluster.drain
		fmt.Printf("serverap: %d shard workers behind the router\n", shards)
	} else {
		s := serve.New(cfg)
		handler = s.Handler()
		drain = s.Drain
	}
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	fmt.Printf("serverap listening on %s\n", addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("serverap: draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "serverap: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-errc
}

// solveWorkers runs the named solver on a single-worker engine: the oracle
// side of the bit-identity check.
func solveWorkers(algo string, e *core.Engine) (*core.Placement, error) {
	solve, ok := core.Solver(algo)
	if !ok {
		return nil, fmt.Errorf("unknown algo %q", algo)
	}
	return solve(e)
}
