package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roadside/internal/obs"
)

// Tracing lives entirely in the benchmark: every span is recorded from
// these files around a public call into one layer. Serving ops are timed
// through the real handler and then their inputs are replayed through the
// public layer calls (request decode, graph/flow codecs, validation,
// digest, build, budget+solve, delta apply, warm refresh, response
// encode) as child spans; library ops (city-trials) time their real calls
// directly. Nothing is written until the run ends.

// span is one timed interval. Start and end are nanoseconds since the
// tracer's epoch; parent is the index of the parent span within the same
// op, -1 for the op's root.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// opRecord is one op's time accounting: the root span's duration split
// into per-layer self times plus the remainder no span explains. The parts
// sum to the whole exactly (integer nanoseconds).
type opRecord struct {
	Op        int64            `json:"op"`
	Kind      string           `json:"kind"`
	SpanNS    int64            `json:"span_ns"`
	SelfNS    map[string]int64 `json:"self_ns"`
	Remainder int64            `json:"remainder_ns"`
}

// tracer keeps every span and op record in memory.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	ops   []opRecord
	probe map[string][]time.Duration // layer calls made by the probe, outside any op
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), probe: map[string][]time.Duration{}}
}

// opTrace collects one op's spans on the goroutine running it.
type opTrace struct {
	tr    *tracer
	op    int64
	spans []span
}

func (t *tracer) op(i int64) *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{tr: t, op: i, spans: []span{{Op: i, ID: 0, Parent: -1}}}
}

func (o *opTrace) ns(t time.Time) int64 { return int64(t.Sub(o.tr.epoch)) }

// root names the op span and sets its interval.
func (o *opTrace) root(name string, start, end time.Time) {
	o.spans[0].Name = name
	o.spans[0].Start, o.spans[0].End = o.ns(start), o.ns(end)
}

// child times f as a child span of the op root.
func (o *opTrace) child(name string, f func()) {
	start := time.Now()
	f()
	end := time.Now()
	o.spans = append(o.spans, span{Op: o.op, ID: len(o.spans), Parent: 0, Name: name,
		Start: o.ns(start), End: o.ns(end)})
}

// timed runs f, as a child span when the op is traced.
func timed(o *opTrace, name string, f func()) {
	if o == nil {
		f()
		return
	}
	o.child(name, f)
}

// commit closes the op. For a serving op the handler span minus its
// replayed children is serve.self (gate wait, cache resolution, transport,
// everything the replays do not cover); when the replays add up to more
// than the handler span the excess is the negative remainder. For a
// library op the remainder is the benchmark's own glue between calls.
func (o *opTrace) commit(kind string, serving bool) {
	rec := opRecord{Op: o.op, Kind: kind, SpanNS: o.spans[0].End - o.spans[0].Start, SelfNS: map[string]int64{}}
	var children int64
	for _, s := range o.spans[1:] {
		d := s.End - s.Start
		rec.SelfNS[s.Name] += d
		children += d
	}
	rest := rec.SpanNS - children
	if serving {
		self := rest
		if self < 0 {
			self = 0
		}
		rec.SelfNS["serve.self"] = self
		rest -= self
	}
	rec.Remainder = rest
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.spans...)
	o.tr.ops = append(o.tr.ops, rec)
	o.tr.mu.Unlock()
}

// probeCall times f as a layer call made outside any op.
func (t *tracer) probeCall(name string, f func()) {
	start := time.Now()
	f()
	d := time.Since(start)
	t.mu.Lock()
	t.probe[name] = append(t.probe[name], d)
	t.mu.Unlock()
}

// layerDurations returns every op span named name, or the probe's calls
// when the ops made too few to take a median from.
func (t *tracer) layerDurations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Parent >= 0 && s.Name == name {
			out = append(out, s.dur())
		}
	}
	if len(out) < 2*minBeyond {
		return t.probe[name]
	}
	return out
}

// servingOps counts the ops that went through the server.
func (t *tracer) servingOps() int {
	n := 0
	for _, r := range t.ops {
		if _, ok := r.SelfNS["serve.self"]; ok {
			n++
		}
	}
	return n
}

// checkAccounting verifies that every op's parts add up to its span.
func (t *tracer) checkAccounting() error {
	for _, r := range t.ops {
		sum := r.Remainder
		for _, v := range r.SelfNS {
			sum += v
		}
		if sum != r.SpanNS {
			return fmt.Errorf("op %d: parts sum to %d ns, span is %d ns", r.Op, sum, r.SpanNS)
		}
	}
	return nil
}

// write dumps spans, op records and probe calls as JSON lines.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Type string `json:"type"`
			span
		}{"span", s}); err != nil {
			return err
		}
	}
	for _, r := range t.ops {
		if err := enc.Encode(struct {
			Type string `json:"type"`
			opRecord
		}{"op", r}); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(t.probe))
	for n := range t.probe {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(map[string]any{"type": "probe", "name": n, "dur_ns": t.probe[n]}); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// observer is the process-wide obs hook of a traced run: it forwards to
// an obs.Recorder (whose registry yields the per-step solver counts) and
// keeps engine-build phase durations at full resolution. It is installed
// before any engine exists, so every engine captures it, and it records
// only while on — the untraced first half of a traced run sees one atomic
// load per event.
type observer struct {
	on  atomic.Bool
	rec *obs.Recorder

	mu     sync.Mutex
	phases map[string][]time.Duration // "trees", "m2m", "detours", "assemble"
}

func newObserver() *observer {
	return &observer{rec: &obs.Recorder{Metrics: obs.NewRegistry()}, phases: map[string][]time.Duration{}}
}

func (o *observer) SolverStep(ev obs.SolverStep) {
	if o.on.Load() {
		o.rec.SolverStep(ev)
	}
}

func (o *observer) Phase(ev obs.Phase) {
	if !o.on.Load() {
		return
	}
	o.rec.Phase(ev)
	if ev.Component == "core.engine" {
		o.mu.Lock()
		o.phases[ev.Name] = append(o.phases[ev.Name], ev.Duration)
		o.mu.Unlock()
	}
}

func (o *observer) Trial(ev obs.Trial) {}
func (o *observer) Run(ev obs.Run)     {}

// counter reads one of the recorder's aggregated counters.
func (o *observer) counter(name string) int64 { return o.rec.Metrics.Counter(name).Value() }
