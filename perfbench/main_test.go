package main

import (
	"io"
	"testing"
	"time"
)

var workloadNames = []string{"serve-fullbody", "serve-byref-drift", "city-trials"}

func digests(t *testing.T, gen func(int64) ([]*problem, error), seed int64) []string {
	t.Helper()
	ps, err := gen(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.digest
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSameSeedSameInputs: a seed fixes every problem digest and the whole
// op sequence; another seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	for _, gen := range []struct {
		name string
		f    func(int64) ([]*problem, error)
	}{{"hot set", hotSet}, {"city set", megaSet}} {
		a, b, c := digests(t, gen.f, 7), digests(t, gen.f, 7), digests(t, gen.f, 8)
		if !sameStrings(a, b) {
			t.Errorf("%s: seed 7 gave digests %v, then %v", gen.name, a, b)
		}
		if sameStrings(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same digests", gen.name)
		}
	}

	setup := func(seed int64) (*fullbody, *byref) {
		cfg := config{seed: seed, seconds: 2}
		fi, err := setupFullbody(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bi, err := setupByref(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fi.close(); bi.close() })
		return fi.(*fullbody), bi.(*byref)
	}
	f1, b1 := setup(7)
	f2, b2 := setup(7)
	f3, _ := setup(8)
	const n = 4096
	differ := 0
	for i := int64(0); i < n; i++ {
		o1, o2, o3 := f1.opAt(i), f2.opAt(i), f3.opAt(i)
		if string(f1.body(o1)) != string(f2.body(o2)) || o1.algo != o2.algo || o1.k != o2.k || o1.block != o2.block {
			t.Fatalf("serve-fullbody op %d differs under one seed", i)
		}
		if string(f1.body(o1)) != string(f3.body(o3)) {
			differ++
		}
		l1, k1 := b1.opAt(i)
		l2, k2 := b2.opAt(i)
		if l1 != l2 || k1 != k2 {
			t.Fatalf("serve-byref-drift op %d differs under one seed", i)
		}
		for m := 0; m < batchItems; m++ {
			a1, bk1 := b1.batchItem(i, m)
			a2, bk2 := b2.batchItem(i, m)
			if a1 != a2 || bk1 != bk2 {
				t.Fatalf("serve-byref-drift op %d batch item %d differs under one seed", i, m)
			}
		}
	}
	if differ == 0 {
		t.Error("seeds 7 and 8 gave the same serve-fullbody requests")
	}
	for j := range b1.lineages {
		if !sameInts(b1.lineages[j].drift, b2.lineages[j].drift) {
			t.Errorf("lineage %d drifts different flows under one seed", j)
		}
	}
	// The never-seen share: one pair per block over the first 4 x seconds
	// blocks, then hot problems only.
	cold := 0
	for i := int64(0); i < n; i++ {
		if f1.opAt(i).cold != nil {
			cold++
		}
	}
	if want := 2 * len(f1.cold); cold != want || len(f1.cold) != 2*coldPerSecond {
		t.Errorf("%d never-seen ops over %d blocks, want %d over %d", cold, len(f1.cold), want, 2*coldPerSecond)
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shortRun sets up a workload and drives it briefly, returning the failed
// ratio as the benchmark reports it.
func shortRun(t *testing.T, cfg config, d time.Duration) (attempted, failed int) {
	t.Helper()
	inst, err := workloads[cfg.workload].setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		t.Fatal(err)
	}
	samples, _, _ := drive(inst, 2, 0, d, nil)
	return tally(io.Discard, samples, applyFailures(samples, inst.finish()))
}

// TestCorruptOracleIsCaught: the checks pass on the real references and
// a reference one bit off makes failed_ratio positive on every workload.
func TestCorruptOracleIsCaught(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 3, seconds: 1}
			if attempted, failed := shortRun(t, cfg, 300*time.Millisecond); attempted == 0 || failed != 0 {
				t.Fatalf("true references: %d of %d ops failed", failed, attempted)
			}
			cfg.corrupt = true
			attempted, failed := shortRun(t, cfg, 300*time.Millisecond)
			if attempted == 0 || failed == 0 {
				t.Fatalf("corrupted references: failed_ratio %d/%d, want > 0", failed, attempted)
			}
		})
	}
}

// TestTracedPartsAddUp: per traced op, layer self times plus the
// remainder equal the op span, and a traced op keeps its checks.
func TestTracedPartsAddUp(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 5, seconds: 1, trace: true}
			inst, err := workloads[name].setup(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			if err := inst.prepare(); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			samples, _, _ := drive(inst, 2, 0, 300*time.Millisecond, tr)
			if _, failed := tally(io.Discard, samples, applyFailures(samples, inst.finish())); failed != 0 {
				t.Fatalf("%d traced ops failed", failed)
			}
			if len(tr.ops) == 0 {
				t.Fatal("no op was traced")
			}
			if err := tr.checkAccounting(); err != nil {
				t.Fatal(err)
			}
			for _, op := range tr.ops {
				if len(op.SelfNS) < 2 {
					t.Fatalf("op %d (%s) split into %v only", op.Op, op.Kind, op.SelfNS)
				}
			}
		})
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	q, err := percentile(xs, 0.9)
	if err != nil || q.Value != 90 || q.N != 100 || q.Beyond != 10 {
		t.Fatalf("p90 of 1..100 = %+v, %v; want 90 with 10 beyond", q, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if q, err := percentile(xs[:21], 0.5); err != nil || q.Beyond != 10 {
		t.Fatalf("p50 of 21 samples = %+v, %v", q, err)
	}
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "city-trials", "--trace", "2"},
		{"--workload", "city-trials", "--seconds", "0"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	cfg, err := parseFlags([]string{"--workload", "serve-byref-drift", "--seed", "9", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil || !cfg.trace || cfg.seed != 9 || cfg.seconds != 3 || cfg.spans == "" {
		t.Fatalf("parsed %+v, %v", cfg, err)
	}
}
