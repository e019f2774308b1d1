package core

import (
	"path/filepath"
	"testing"
)

func TestMergeHistoriesDeduplicates(t *testing.T) {
	a := sigOf(DeadlockSig, fr("a.B", "m", 1), fr("c.D", "n", 2))
	aPerm := sigOf(DeadlockSig, fr("c.D", "n", 2), fr("a.B", "m", 1)) // same bug
	b := sigOf(DeadlockSig, fr("e.F", "o", 3), fr("g.H", "p", 4))
	s := sigOf(StarvationSig, fr("a.B", "m", 1))

	merged, err := MergeHistories([]*Signature{a, b}, []*Signature{aPerm, s})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 {
		t.Fatalf("merged %d signatures, want 3 (a, b, starvation)", len(merged))
	}
	// Deep copies: mutating the result must not touch the inputs.
	merged[0].Pairs[0].Outer[0].Line = 999
	if a.Pairs[0].Outer[0].Line == 999 && aPerm.Pairs[0].Outer[0].Line == 999 {
		t.Error("merge must deep-copy signatures")
	}
}

func TestMergeHistoriesRejectsInvalid(t *testing.T) {
	if _, err := MergeHistories([]*Signature{nil}); err == nil {
		t.Error("nil signature must fail")
	}
	if _, err := MergeHistories([]*Signature{{Kind: DeadlockSig}}); err == nil {
		t.Error("invalid signature must fail")
	}
}

func TestMergeStores(t *testing.T) {
	dir := t.TempDir()
	device := NewFileHistory(filepath.Join(dir, "device.hist"))
	vendor1 := NewFileHistory(filepath.Join(dir, "vendor1.hist"))
	vendor2 := NewFileHistory(filepath.Join(dir, "vendor2.hist"))

	deviceSig := sigOf(DeadlockSig, fr("local.A", "m", 1), fr("local.B", "n", 2))
	sharedSig := sigOf(DeadlockSig, fr("ven.C", "o", 3), fr("ven.D", "p", 4))
	uniqueSig := sigOf(DeadlockSig, fr("ven.E", "q", 5), fr("ven.F", "r", 6))

	if err := device.Append(deviceSig); err != nil {
		t.Fatal(err)
	}
	if err := vendor1.Append(sharedSig); err != nil {
		t.Fatal(err)
	}
	if err := vendor2.Append(sharedSig); err != nil { // duplicate across vendors
		t.Fatal(err)
	}
	if err := vendor2.Append(uniqueSig); err != nil {
		t.Fatal(err)
	}

	detail, err := MergeStoresDetailed(device, vendor1, vendor2)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Added != 2 {
		t.Errorf("added %d signatures, want 2 (shared once + unique)", detail.Added)
	}
	final, err := device.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 3 {
		t.Errorf("device history has %d signatures, want 3", len(final))
	}

	// Merging again is a no-op.
	detail, err = MergeStoresDetailed(device, vendor1, vendor2)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Added != 0 {
		t.Errorf("re-merge added %d, want 0", detail.Added)
	}
}

func TestMergeStoresDetailed(t *testing.T) {
	device := NewMemHistory()
	vendor1 := NewMemHistory()
	vendor2 := NewMemHistory()

	deviceSig := sigOf(DeadlockSig, fr("local.A", "m", 1), fr("local.B", "n", 2))
	sharedSig := sigOf(DeadlockSig, fr("ven.C", "o", 3), fr("ven.D", "p", 4))
	uniqueSig := sigOf(DeadlockSig, fr("ven.E", "q", 5), fr("ven.F", "r", 6))

	for _, step := range []struct {
		store HistoryStore
		sig   *Signature
	}{
		{device, deviceSig},
		{vendor1, sharedSig},
		{vendor2, sharedSig}, // duplicate across vendors
		{vendor2, uniqueSig},
		{vendor2, deviceSig}, // duplicate of the destination
	} {
		if err := step.store.Append(step.sig); err != nil {
			t.Fatal(err)
		}
	}

	detail, err := MergeStoresDetailed(device, vendor1, vendor2)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Added != 2 {
		t.Errorf("added %d, want 2", detail.Added)
	}
	want := []MergeSourceStat{
		{Loaded: 1, Added: 1, Duplicates: 0},
		{Loaded: 3, Added: 1, Duplicates: 2},
	}
	for i, w := range want {
		if detail.PerSource[i] != w {
			t.Errorf("source %d: got %+v, want %+v", i, detail.PerSource[i], w)
		}
	}
	if got := detail.Origin[sharedSig.Key()]; got != 0 {
		t.Errorf("shared signature attributed to source %d, want 0", got)
	}
	if got := detail.Origin[uniqueSig.Key()]; got != 1 {
		t.Errorf("unique signature attributed to source %d, want 1", got)
	}
	if len(detail.AddedKeys) != 2 {
		t.Errorf("AddedKeys has %d entries, want 2", len(detail.AddedKeys))
	}
}

// TestMergedHistoryImmunizesForeignBug: a core loading a merged history is
// immune to a deadlock its own device never saw — the vendor-antibody
// scenario.
func TestMergedHistoryImmunizesForeignBug(t *testing.T) {
	vendor := NewMemHistory()
	if err := vendor.Append(sigOf(DeadlockSig, fr("test.Svc1", "outer", 10), fr("test.Svc2", "outer", 20))); err != nil {
		t.Fatal(err)
	}
	device := NewMemHistory()
	if _, err := MergeStoresDetailed(device, vendor); err != nil {
		t.Fatal(err)
	}

	h := newHarness(t, WithStore(device))
	t1, t2 := h.thread("t1"), h.thread("t2")
	lA, lB := h.lock("A"), h.lock("B")
	p1, p2 := h.pos("Svc1", "outer", 10), h.pos("Svc2", "outer", 20)

	h.acquire(t1, lA, p1)
	done := make(chan error, 1)
	go func() { done <- h.c.Request(t2, lB, p2) }()
	waitUntil(t, "avoidance of vendor-shipped signature", func() bool {
		return h.c.Stats().Yields == 1
	})
	h.release(t1, lA)
	awaitResume(t, done)
}
