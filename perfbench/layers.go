package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// layerSpans are the spans whose per-call median is reported as
// <name>_ms, in report order.
var layerSpans = []string{
	"serve.decode", "graph.read_json", "flow.read_json", "flow.validate", "core.digest",
	"core.build",
	"core.solve.algorithm1", "core.solve.algorithm2", "core.solve.combined", "core.solve.lazy", "core.solve.lazy_warm",
	"core.evaluate", "core.evaluate_prefixes",
	"core.apply_copy", "core.warm_refresh",
	"serve.encode",
}

// buildPhases are the engine-build stages core reports through obs.
var buildPhases = []string{"trees", "m2m", "detours", "assemble"}

// serveCounterNames are reported for every workload; a workload without a
// server reports them as zero.
var serveCounterNames = []string{
	"serve.cache.hit_ratio", "serve.cache.misses", "serve.cache.coalesced",
	"serve.cache.evicted", "serve.engine.builds", "serve.update.stale_retries",
}

func medianOf(name string, ds []time.Duration) (float64, string, error) {
	q, err := medianMS(ds)
	if err != nil {
		return 0, "", fmt.Errorf("%s: %w", name, err)
	}
	return q.Value, fmt.Sprintf("median, n=%d", q.N), nil
}

func perLayer(out io.Writer, inst instance, ob *observer, tr *tracer, pres probeResult,
	plain, all []sample, m0, m1 runtime.MemStats, global []string) (*result, error) {
	attempted, failed := tally(out, all, global)
	r := &report{out: out, metrics: map[string]metric{}}

	for _, name := range layerSpans {
		v, note, err := medianOf(name, tr.layerDurations(name))
		if err != nil {
			return nil, err
		}
		r.add(name+"_ms", "ms", v, note)
	}
	for _, ph := range buildPhases {
		v, note, err := medianOf(ph, ob.phases[ph])
		if err != nil {
			return nil, err
		}
		r.add("core.build."+ph+"_ms", "ms", v, note)
	}
	r.add("core.build.p1_speedup", "x", pres.buildP1Speedup, "median build at GOMAXPROCS=1 / at default")
	r.add("core.solve.p1_speedup", "x", pres.solveP1Speedup, "median eager solves at GOMAXPROCS=1 / at default")
	r.add("core.arena_kib", "KiB", pres.arenaKiB, "probe engine ArenaBytes")

	var steps, scanned, chunks int64
	for _, s := range algos[:3] {
		steps += ob.counter("core.solver." + s + ".steps")
		scanned += ob.counter("core.solver." + s + ".candidates_scanned")
		chunks += ob.counter("core.solver." + s + ".scan_chunks")
	}
	lazySteps := ob.counter("core.solver.lazy.steps")
	if steps == 0 || lazySteps == 0 {
		return nil, fmt.Errorf("recorder saw %d eager and %d lazy steps", steps, lazySteps)
	}
	r.add("core.solve.scanned_per_step", "count", float64(scanned)/float64(steps), fmt.Sprintf("eager, %d steps", steps))
	r.add("core.solve.chunks_per_step", "count", float64(chunks)/float64(steps), fmt.Sprintf("eager, %d steps", steps))
	r.add("core.solve.reevals_per_step", "count",
		float64(ob.counter("core.solver.lazy.heap_reevals"))/float64(lazySteps), fmt.Sprintf("lazy, %d steps", lazySteps))

	var touched, reqBytes []float64
	for _, s := range all {
		if s.touched > 0 {
			touched = append(touched, float64(s.touched))
		}
		if s.reqBytes > 0 {
			reqBytes = append(reqBytes, float64(s.reqBytes)/1024)
		}
	}
	if len(touched) == 0 {
		touched = []float64{pres.touched}
	}
	if len(reqBytes) == 0 {
		reqBytes = []float64{pres.requestKiB}
	}
	r.add("core.update.touched_nodes", "count", mean(touched), fmt.Sprintf("mean over %d updates", len(touched)))
	r.add("serve.request_kib", "KiB", mean(reqBytes), fmt.Sprintf("mean over %d requests", len(reqBytes)))

	var selfs []time.Duration
	for _, op := range tr.ops {
		if v, ok := op.SelfNS["serve.self"]; ok {
			selfs = append(selfs, time.Duration(v))
		}
	}
	if len(selfs) < 2*minBeyond {
		selfs = tr.probe["serve.self"]
	}
	v, note, err := medianOf("serve.self", selfs)
	if err != nil {
		return nil, err
	}
	r.add("serve.self_ms", "ms", v, note+" (handler span minus replayed children)")

	counters := inst.counters()
	for _, name := range serveCounterNames {
		unit := "count"
		if name == "serve.cache.hit_ratio" {
			unit = "ratio"
		}
		r.add(name, unit, counters[name], "")
	}

	n := float64(len(plain))
	r.add("runtime.alloc_kib_per_op", "KiB", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n, fmt.Sprintf("untraced half, %d ops", len(plain)))
	r.add("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC), "untraced half")
	r.add("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "untraced half, total stop-the-world")

	// The time accounting: per op the layer self times plus the remainder
	// equal the op span; here are their means over the traced ops.
	sums := map[string]float64{}
	var spanSum, remSum float64
	for _, op := range tr.ops {
		spanSum += float64(op.SpanNS)
		remSum += float64(op.Remainder)
		for k, v := range op.SelfNS {
			sums[k] += float64(v)
		}
	}
	ops := float64(len(tr.ops))
	r.add("trace.op_ms", "ms", spanSum/ops/1e6, fmt.Sprintf("mean op span over %d traced ops", len(tr.ops)))
	r.add("trace.remainder_ms", "ms", remSum/ops/1e6, "mean unexplained remainder per op")
	names := make([]string, 0, len(sums))
	for k := range sums {
		names = append(names, k)
	}
	sort.Slice(names, func(a, b int) bool { return sums[names[a]] > sums[names[b]] })
	fmt.Fprintf(out, "  per-op breakdown (mean self time over %d traced ops):\n", len(tr.ops))
	for _, k := range names {
		fmt.Fprintf(out, "    %-28s %10.4f ms  %5.1f%%\n", k, sums[k]/ops/1e6, 100*sums[k]/spanSum)
	}
	fmt.Fprintf(out, "    %-28s %10.4f ms  %5.1f%%\n", "remainder", remSum/ops/1e6, 100*remSum/spanSum)

	plainTotal, _, _ := parts(plain)
	tracedTotal, _, _ := parts(all[len(plain):])
	p0, _, err := pct(plainTotal, 0.5)
	if err != nil {
		return nil, fmt.Errorf("untraced latency: %w", err)
	}
	p1, _, err := pct(tracedTotal, 0.5)
	if err != nil {
		return nil, fmt.Errorf("traced latency: %w", err)
	}
	r.add("trace.overhead_ms", "ms", p1-p0, fmt.Sprintf("traced %.4f - untraced %.4f latency p50", p1, p0))
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: r.metrics}, nil
}
