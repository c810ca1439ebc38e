package core

import (
	"testing"

	"roadside/internal/utility"
)

// TestFingerprintStableAcrossWorkers pins the arena digest on the Fig. 4
// fixture: construction at any worker count must produce bit-identical
// arenas, and the digest must actually depend on the instance.
func TestFingerprintStableAcrossWorkers(t *testing.T) {
	p := fig4Problem(t, utility.Linear{D: 6})
	serial, err := NewEngineWorkers(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Fingerprint()
	if want == 0 {
		t.Fatal("suspicious zero fingerprint")
	}
	for _, workers := range []int{2, 4, 8} {
		e, err := NewEngineWorkers(p, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Fingerprint(); got != want {
			t.Errorf("workers=%d: fingerprint %x, want %x", workers, got, want)
		}
	}
	// A different instance digests differently.
	mod := fig4Problem(t, utility.Linear{D: 6})
	mod.Shop = mod.Shop + 1
	me, err := NewEngineWorkers(mod, 1)
	if err != nil {
		t.Fatal(err)
	}
	if me.Fingerprint() == want {
		t.Error("moving the shop left the fingerprint unchanged")
	}
}

// TestWorkerHooksMatchPublicAPI pins that the deprecated worker-count
// wrappers are the public solvers at any worker count.
func TestWorkerHooksMatchPublicAPI(t *testing.T) {
	p := fig4Problem(t, utility.Linear{D: 6})
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	type runner struct {
		name   string
		public func(*Engine) (*Placement, error)
		hook   func(*Engine, int) (*Placement, error)
	}
	for _, r := range []runner{
		{"algorithm1", Algorithm1, Algorithm1Workers},
		{"algorithm2", Algorithm2, Algorithm2Workers},
		{"combined", GreedyCombined, GreedyCombinedWorkers},
	} {
		want, err := r.public(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := r.hook(e, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Nodes) != len(want.Nodes) {
				t.Fatalf("%s workers=%d: %d nodes vs %d", r.name, workers, len(got.Nodes), len(want.Nodes))
			}
			for i := range got.Nodes {
				if got.Nodes[i] != want.Nodes[i] {
					t.Errorf("%s workers=%d: step %d node %d vs %d",
						r.name, workers, i, got.Nodes[i], want.Nodes[i])
				}
			}
			//lint:ignore floatcmp the worker hooks promise bit-identity with the public solvers
			if got.Attracted != want.Attracted {
				t.Errorf("%s workers=%d: objective %v vs %v", r.name, workers, got.Attracted, want.Attracted)
			}
		}
	}
}
