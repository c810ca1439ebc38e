// Command perfbench is the roadside benchmark: seed-generated closed-loop
// workloads that drive the placement server and library through their
// public functions, check every answer bit for bit against serial
// references, and print end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs).
//
//	bash perfbench/run.sh --workload serve-fullbody --seed 1 --seconds 45 --trace 0
//
// run from the root of a checkout (run.sh builds this program first).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// same figures for people, with sample counts. WORKLOADS.md describes the
// workloads, their generator parameters, and which end-to-end metric each
// per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"roadside/internal/obs"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // traced runs write their spans here
	corrupt  bool   // flip a bit in every reference (the benchmark's own tests)
}

// setupRuns is how often an untraced run sets its workload up; setup_s is
// the median. The last set-up is the one the run measures.
const setupRuns = 5

// sample is one op as the closed loop saw it. read and write split the op
// into the part answered from an existing engine and the part that made
// one (a build or a delta update); -1 marks an absent part.
type sample struct {
	idx      int64
	total    time.Duration
	read     time.Duration
	write    time.Duration
	reqBytes int
	touched  int
	failed   string
	done     time.Duration // completion, since the phase began
}

// failure is a check that failed after the timed phase; idx -1 is a
// run-level failure rather than one op's.
type failure struct {
	idx int64
	msg string
}

// instance is one set-up workload.
type instance interface {
	// prepare computes the serial references (and, when tracing, the
	// replay engines). It is not part of setup_s.
	prepare() error
	// do executes op i, recording its spans when ot is non-nil.
	do(i int64, ot *opTrace) sample
	// finish runs the checks that need the whole run.
	finish() []failure
	// counters are the server's cache and build counters.
	counters() map[string]float64
	// probeProblem is the problem the layer probe runs on.
	probeProblem() *problem
	close()
}

// workload names a generator and the issue-level names of its op parts.
type workload struct {
	setup     func(config) (instance, error)
	clients   int // 0: min(2, NumCPU)
	readName  string
	writeName string
}

var workloads = map[string]workload{
	"serve-fullbody":    {setup: setupFullbody, readName: "place_full_p50_ms", writeName: "place_cold_p50_ms"},
	"serve-byref-drift": {setup: setupByref, readName: "read_ref_p50_ms", writeName: "update_p50_ms"},
	"city-trials":       {setup: setupTrials, clients: 1, readName: "trial_solve_p50_ms", writeName: "trial_build_p50_ms"},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "serve-fullbody, serve-byref-drift or city-trials")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace %d, want 0 or 1", trace)
	}
	if cfg.seconds <= 0 {
		return cfg, errors.New("--seconds must be positive")
	}
	cfg.trace = trace == 1
	if cfg.trace {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	return cfg, nil
}

// drive runs the closed loop: each client takes the next op index and
// sends its next op only when the previous one has completed, until the
// phase has lasted d. Every index taken is executed, so a phase covers
// exactly the ops [from, next).
func drive(inst instance, clients int, from int64, d time.Duration, tr *tracer) ([]sample, int64, time.Duration) {
	var next atomic.Int64
	next.Store(from)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := next.Add(1) - 1
				s := inst.do(i, tr.op(i))
				s.done = time.Since(start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all, next.Load(), elapsed
}

// warmupBase is the first warm-up op index: far beyond any timed op, so
// the timed phase of every run covers ops 0, 1, 2, ... of the seed's
// sequence, and beyond the never-seen blocks of serve-fullbody.
const warmupBase = 1 << 40

// warmupFailures turns failed warm-up ops into run-level failures.
func warmupFailures(samples []sample) []string {
	var out []string
	for _, s := range samples {
		if s.failed != "" {
			out = append(out, fmt.Sprintf("warm-up op %d: %s", s.idx, s.failed))
		}
	}
	return out
}

// applyFailures marks the ops that failed a post-run check and returns
// the run-level failures.
func applyFailures(samples []sample, fails []failure) []string {
	pos := make(map[int64]int, len(samples))
	for i, s := range samples {
		pos[s.idx] = i
	}
	var global []string
	for _, f := range fails {
		if i, ok := pos[f.idx]; ok {
			if samples[i].failed == "" {
				samples[i].failed = f.msg
			}
			continue
		}
		global = append(global, f.msg)
	}
	return global
}

func execute(cfg config, out io.Writer) (*result, error) {
	wl := workloads[cfg.workload]
	var ob *observer
	if cfg.trace {
		// Installed before any engine exists, so every engine reports to it.
		ob = newObserver()
		defer obs.SetDefault(obs.SetDefault(ob))
	}
	setups := setupRuns
	if cfg.trace {
		setups = 1
	}
	var (
		inst       instance
		setupTimes []time.Duration
	)
	for r := 0; r < setups; r++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = wl.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start))
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	clients := wl.clients
	if clients == 0 {
		clients = min(2, runtime.NumCPU())
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g clients=%d trace=%v GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, clients, cfg.trace, runtime.GOMAXPROCS(0))
	// Warm-up: a tenth of the phase on op indices of their own, checked
	// like every op but not measured.
	warm, _, _ := drive(inst, clients, warmupBase, d/10, nil)
	warmFails := warmupFailures(warm)
	runtime.GC()
	if !cfg.trace {
		cpu0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		samples, _, elapsed := drive(inst, clients, 0, d, nil)
		cpu1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		global := append(warmFails, applyFailures(samples, inst.finish())...)
		return endToEnd(out, wl, samples, elapsed, cpu1-cpu0, setupTimes, global)
	}

	// Traced run: an untraced first half (recorder paused) gives the
	// runtime figures and the baseline for the tracing overhead; the
	// second half records spans and replays every op through the layers.
	ob.on.Store(false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, next, _ := drive(inst, clients, 0, d/2, nil)
	runtime.ReadMemStats(&m1)
	ob.on.Store(true)
	tr := newTracer()
	traced, _, _ := drive(inst, clients, next, d/2, tr)
	pres, err := probe(tr, ob, cfg.seed, inst.probeProblem())
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	all := append(plain, traced...)
	global := append(warmFails, applyFailures(all, inst.finish())...)
	if err := tr.checkAccounting(); err != nil {
		return nil, err
	}
	if err := tr.write(cfg.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "  spans: %d spans, %d ops -> %s\n", len(tr.spans), len(tr.ops), cfg.spans)
	return perLayer(out, inst, ob, tr, pres, plain, all, m0, m1, global)
}

// tally counts attempted and failed ops and prints the first failures.
func tally(out io.Writer, samples []sample, global []string) (attempted, failed int) {
	shown := 0
	for _, s := range samples {
		if s.failed != "" {
			failed++
			if shown < 5 {
				fmt.Fprintf(out, "  FAILED op %d: %s\n", s.idx, s.failed)
				shown++
			}
		}
	}
	for _, g := range global {
		fmt.Fprintf(out, "  FAILED run: %s\n", g)
	}
	return len(samples), failed + len(global)
}

// report prints one figure for people and adds it to the contract line.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.show(name, unit, v, note)
}

func (r *report) show(name, unit string, v float64, note string) {
	fmt.Fprintf(r.out, "  %-32s %14.6g %-6s %s\n", name, v, unit, note)
}

// pct takes a percentile and renders its evidence.
func pct(xs []float64, q float64) (float64, string, error) {
	v, err := percentile(xs, q)
	if err != nil {
		return 0, "", err
	}
	return v.Value, fmt.Sprintf("n=%d, %d beyond", v.N, v.Beyond), nil
}

// parts splits the samples' durations. Failed ops are timed like the
// rest: a run with failures still reports, with correct false.
func parts(samples []sample) (total, read, write []float64) {
	for _, s := range samples {
		total = append(total, ms(s.total))
		if s.read >= 0 {
			read = append(read, ms(s.read))
		}
		if s.write >= 0 {
			write = append(write, ms(s.write))
		}
	}
	return
}

// windows is how many equal parts of the timed phase ops_per_s is the
// median rate of.
const windows = 10

// windowRates returns the ops completed per second in each tenth of the
// phase, and prints them with each tenth's latency median to show how
// steady the phase was. The median rate is ops_per_s: a stall of the
// machine in a few tenths (the CPUs taken by other tenants, say) moves it
// far less than the mean over the whole phase would move.
func windowRates(out io.Writer, samples []sample, elapsed time.Duration) []float64 {
	var wins [windows][]float64
	for _, s := range samples {
		w := int(int64(s.done) * windows / int64(elapsed+1))
		wins[w] = append(wins[w], ms(s.total))
	}
	rates := make([]float64, windows)
	fmt.Fprintf(out, "  window rates (1/s) and p50s (ms):")
	for i, w := range wins {
		rates[i] = float64(len(w)) / (elapsed.Seconds() / windows)
		if v, err := percentile(w, 0.5); err == nil {
			fmt.Fprintf(out, " %.1f/%.3f", rates[i], v.Value)
		} else {
			fmt.Fprintf(out, " %.1f/-", rates[i])
		}
	}
	fmt.Fprintln(out)
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has been given, user plus system.
// Time the hypervisor gives the machine's CPUs to other tenants (steal)
// is not in it, so CPU per op holds still when wall-clock figures do not.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func endToEnd(out io.Writer, wl workload, samples []sample, elapsed, cpu time.Duration, setupTimes []time.Duration, global []string) (*result, error) {
	attempted, failed := tally(out, samples, global)
	r := &report{out: out, metrics: map[string]metric{}}
	sort.Slice(setupTimes, func(a, b int) bool { return setupTimes[a] < setupTimes[b] })
	r.add("setup_s", "s", setupTimes[len(setupTimes)/2].Seconds(), fmt.Sprintf("median of %d set-ups", len(setupTimes)))
	rates := windowRates(out, samples, elapsed)
	sort.Float64s(rates)
	r.add("ops_per_s", "1/s", (rates[windows/2-1]+rates[windows/2])/2,
		fmt.Sprintf("median of %d windows; %d ops in %.3f s", windows, len(samples), elapsed.Seconds()))
	r.add("cpu_ms_per_op", "ms", ms(cpu)/float64(len(samples)), fmt.Sprintf("%.3f CPU-s over the phase", cpu.Seconds()))
	total, read, write := parts(samples)
	for _, m := range []struct {
		name, alias string
		xs          []float64
		q           float64
	}{
		{"latency_p50_ms", "", total, 0.5},
		{"latency_p90_ms", "", total, 0.9},
		{"read_p50_ms", wl.readName, read, 0.5},
		{"write_p50_ms", wl.writeName, write, 0.5},
	} {
		v, note, err := pct(m.xs, m.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		if m.alias != "" {
			note += " (" + m.alias + ")"
		}
		r.add(m.name, "ms", v, note)
	}
	// The live heap is read once the samples are dropped, so it counts the
	// program and the workload's inputs, not the per-op bookkeeping.
	samples, total, read, write = nil, nil, nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.add("heap_live_mib", "MiB", float64(ms.HeapAlloc)/(1<<20), "live heap after the timed phase and a GC")
	r.show("failed_ratio", "ratio", float64(failed)/float64(attempted), fmt.Sprintf("%d of %d ops", failed, attempted))
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: r.metrics}, nil
}
