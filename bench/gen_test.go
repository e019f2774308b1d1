package main

import (
	"reflect"
	"testing"
)

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	a, b := generate(defaultSeed), generate(defaultSeed)
	if a.fingerprint() != b.fingerprint() {
		t.Fatal("the same seed generated different inputs")
	}
	if !reflect.DeepEqual(a.fleet.ws, b.fleet.ws) || !reflect.DeepEqual(a.plan, b.plan) || !reflect.DeepEqual(a.order, b.order) {
		t.Fatal("the same seed generated different inputs (fingerprint missed it)")
	}
	// The stream continues identically too: the layer calls draw their
	// fresh keys from it.
	if !reflect.DeepEqual(a.gen.sigSet(8).keys, b.gen.sigSet(8).keys) {
		t.Fatal("the same seed continued with different signatures")
	}
	other := generate(defaultSeed + 1)
	if other.fingerprint() == a.fingerprint() {
		t.Fatal("another seed generated the same inputs")
	}
	if other.fleet.keys[0] == a.fleet.keys[0] {
		t.Fatalf("signature keys do not vary with the seed: %s", a.fleet.keys[0])
	}
}

func TestGeneratedInputsHaveTheWorkloadShapes(t *testing.T) {
	for _, seed := range []int64{defaultSeed, 7} {
		in := generate(seed)
		if len(in.fleet.sigs) != ingestSigs || len(in.order[0]) != ingestSigs || len(in.order[1]) != ingestSigs {
			t.Fatalf("seed %d: %d signatures, orders of %d and %d, want %d each", seed, len(in.fleet.sigs), len(in.order[0]), len(in.order[1]), ingestSigs)
		}
		keys := make(map[string]bool)
		for i, sig := range in.fleet.sigs {
			if err := sig.Validate(); err != nil {
				t.Fatalf("seed %d: signature %d: %v", seed, i, err)
			}
			if len(sig.Pairs) != 2 || len(sig.Pairs[0].Outer) != 1 {
				t.Fatalf("seed %d: signature %d: want 2 pairs with outer depth 1, got %+v", seed, i, sig.Pairs)
			}
			for _, p := range sig.Pairs {
				if n := len(p.Inner); n < 3 || n > 6 {
					t.Fatalf("seed %d: signature %d: inner stack of %d frames, want 3–6", seed, i, n)
				}
			}
			if keys[in.fleet.keys[i]] {
				t.Fatalf("seed %d: duplicate key %s", seed, in.fleet.keys[i])
			}
			keys[in.fleet.keys[i]] = true
		}
		if len(in.sites) != syncSites || len(in.history) != syncHistory {
			t.Fatalf("seed %d: %d sites and %d history signatures", seed, len(in.sites), len(in.history))
		}
		perThread := syncLocks / syncThreads
		for th, plan := range in.plan {
			if len(plan) != syncOps {
				t.Fatalf("seed %d: thread %d plans %d ops, want %d", seed, th, len(plan), syncOps)
			}
			for _, step := range plan {
				if lock := int(step >> 4); lock/perThread != th {
					t.Fatalf("seed %d: thread %d uses lock %d of another thread's half", seed, th, lock)
				}
			}
		}
	}
}
