package core

import (
	"testing"
	"time"
)

// starvationScenario prepares the canonical avoidance-induced deadlock:
// signature S={p1,p2}; thread B holds l0; thread A occupies p1.
// If B then yields at p2 (witness A) and A blocks on l0 (held by B),
// nothing can progress.
type starvationScenario struct {
	h          *harness
	a, b       *Node
	lX, l0, lY *Node
	p0, p1, p2 *Position
	p3         *Position
}

func newStarvationScenario(t *testing.T, opts ...Option) *starvationScenario {
	h := newHarness(t, opts...)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.S", "p1", 1), fr("test.S", "p2", 2)))
	s := &starvationScenario{
		h:  h,
		a:  h.thread("A"),
		b:  h.thread("B"),
		lX: h.lock("X"),
		l0: h.lock("l0"),
		lY: h.lock("Y"),
		p0: h.pos("S", "p0", 0),
		p1: h.pos("S", "p1", 1),
		p2: h.pos("S", "p2", 2),
		p3: h.pos("S", "p3", 3),
	}
	s.h.acquire(s.b, s.l0, s.p0)
	s.h.acquire(s.a, s.lX, s.p1)
	return s
}

// TestStarvationDetectedByScan: B yields first, then A blocks on B's lock;
// the post-approval scan must detect the yield cycle, save a starvation
// signature, and force-resume B.
func TestStarvationDetectedByScan(t *testing.T) {
	s := newStarvationScenario(t)
	h := s.h

	bDone := make(chan error, 1)
	go func() { bDone <- h.c.Request(s.b, s.lY, s.p2) }()
	waitUntil(t, "B yields", func() bool { return h.c.Stats().Yields == 1 })

	// A requests l0 (held by B): creates the edge A→B, closing the cycle
	// B →(yield) A →(lock) B. The approval scan fires starvation handling.
	if err := h.c.Request(s.a, s.l0, s.p3); err != nil {
		t.Fatal(err)
	}
	if err := resumedWithin(t, bDone, "B"); err != nil {
		t.Fatalf("B must be force-resumed, got %v", err)
	}
	h.c.Acquired(s.b, s.lY)

	st := h.c.Stats()
	if st.Starvations != 1 {
		t.Errorf("Starvations = %d, want 1", st.Starvations)
	}
	if st.ForcedResumes != 1 {
		t.Errorf("ForcedResumes = %d, want 1", st.ForcedResumes)
	}
	var starv *SignatureInfo
	for _, info := range h.c.History() {
		if info.Kind == StarvationSig {
			starv = &info
			break
		}
	}
	if starv == nil {
		t.Fatal("starvation signature not recorded")
	}
	outs := map[string]bool{}
	for _, p := range starv.Pairs {
		outs[p.Outer.Key()] = true
	}
	if !outs["test.S.p2:2"] || !outs["test.S.p1:1"] {
		t.Errorf("starvation signature positions = %v, want {p2, p1}", outs)
	}

	// B can now finish: it releases l0's dependency by completing its work.
	h.c.Release(s.b, s.lY)
	h.c.Release(s.b, s.l0)
	h.c.Acquired(s.a, s.l0)
	h.c.Release(s.a, s.l0)
}

// TestStarvationThreeThreadRing: the yield cycle runs through a third
// thread and is closed by a request that neither the yielder nor its
// witness makes. B yields on witness A; A is approved for a lock C holds
// (B → A → C, no cycle yet); C's request for B's lock closes the ring
// B → A → C → B. The scan in that last Request must record exactly one
// starvation signature and resume B. Nothing else could: a Core runs no
// background scanner.
func TestStarvationThreeThreadRing(t *testing.T) {
	s := newStarvationScenario(t)
	h := s.h
	c := h.thread("C")
	lC := h.lock("lC")
	h.acquire(c, lC, h.pos("S", "p4", 4))

	bDone := make(chan error, 1)
	go func() { bDone <- h.c.Request(s.b, s.lY, s.p2) }()
	waitUntil(t, "B yields", func() bool { return h.c.Stats().Yields == 1 })

	// A waits for C: the ring is still open, B stays suspended.
	if err := h.c.Request(s.a, lC, s.p3); err != nil {
		t.Fatal(err)
	}
	if st := h.c.Stats(); st.Starvations != 0 || st.ForcedResumes != 0 {
		t.Fatalf("open ring: starvations=%d forced=%d, want 0/0", st.Starvations, st.ForcedResumes)
	}
	select {
	case err := <-bDone:
		t.Fatalf("B resumed before the ring closed (err %v)", err)
	default:
	}

	// C waits for B: the ring closes.
	if err := h.c.Request(c, s.l0, h.pos("S", "p5", 5)); err != nil {
		t.Fatal(err)
	}
	if err := resumedWithin(t, bDone, "B"); err != nil {
		t.Fatalf("B must be force-resumed, got %v", err)
	}

	st := h.c.Stats()
	if st.Starvations != 1 || st.ForcedResumes != 1 || st.Resumes != 1 {
		t.Errorf("starvations=%d forced=%d resumes=%d, want 1/1/1",
			st.Starvations, st.ForcedResumes, st.Resumes)
	}
	var starv []SignatureInfo
	for _, info := range h.c.History() {
		if info.Kind == StarvationSig {
			starv = append(starv, info)
		}
	}
	if len(starv) != 1 {
		t.Fatalf("recorded %d starvation signatures, want 1", len(starv))
	}
	outs := map[string]bool{}
	for _, p := range starv[0].Pairs {
		outs[p.Outer.Key()] = true
	}
	if len(starv[0].Pairs) != 2 || !outs["test.S.p2:2"] || !outs["test.S.p1:1"] {
		t.Errorf("starvation signature positions = %v, want {p2, p1}", outs)
	}

	// Unwind the ring: B finishes, then C, then A.
	h.c.Acquired(s.b, s.lY)
	h.release(s.b, s.lY)
	h.release(s.b, s.l0)
	h.c.Acquired(c, s.l0)
	h.release(c, s.l0)
	h.release(c, lC)
	h.c.Acquired(s.a, lC)
	h.release(s.a, lC)
	h.release(s.a, s.lX)
	if st := h.c.Stats(); st.Misuse != 0 {
		t.Errorf("misuse = %d, want 0", st.Misuse)
	}
}

// resumedWithin waits a bounded time for a suspended Request to return, so
// a missed starvation scan fails the test instead of hanging it. The
// harness's Close wakes the stuck yielder afterwards.
func resumedWithin(t *testing.T, done <-chan error, who string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s was never resumed: no scan saw the starvation cycle", who)
		return nil
	}
}

// TestStarvationPreCheck: the cycle exists before the yield (A already
// blocked on B), so B must not suspend at all.
func TestStarvationPreCheck(t *testing.T) {
	s := newStarvationScenario(t)
	h := s.h

	// A blocks on l0 first.
	if err := h.c.Request(s.a, s.l0, s.p3); err != nil {
		t.Fatal(err)
	}
	// B engages the signature: instantiation found, but yielding would
	// starve immediately — proceed instead.
	if err := h.c.Request(s.b, s.lY, s.p2); err != nil {
		t.Fatal(err)
	}
	st := h.c.Stats()
	if st.Yields != 0 {
		t.Errorf("Yields = %d, want 0 (pre-check starvation)", st.Yields)
	}
	if st.Starvations != 1 {
		t.Errorf("Starvations = %d, want 1", st.Starvations)
	}
}

// TestStarvationSuppressionNextRun: once the starvation signature is in
// history, a fresh process does not repeat the starving yield.
func TestStarvationSuppressionNextRun(t *testing.T) {
	store := NewMemHistory()

	// Run 1: produce the starvation.
	s1 := newStarvationScenarioWithStore(t, store)
	h1 := s1.h
	bDone := make(chan error, 1)
	go func() { bDone <- h1.c.Request(s1.b, s1.lY, s1.p2) }()
	waitUntil(t, "B yields", func() bool { return h1.c.Stats().Yields == 1 })
	if err := h1.c.Request(s1.a, s1.l0, s1.p3); err != nil {
		t.Fatal(err)
	}
	if err := resumedWithin(t, bDone, "B"); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 { // deadlock sig (pre-seeded) + starvation sig
		t.Fatalf("store has %d sigs after run 1, want 2", store.Len())
	}

	// Run 2: same pattern; the yield must be suppressed.
	s2 := newStarvationScenarioWithStore(t, store)
	h2 := s2.h
	if err := h2.c.Request(s2.b, s2.lY, s2.p2); err != nil {
		t.Fatal(err)
	}
	st := h2.c.Stats()
	if st.Yields != 0 {
		t.Errorf("run 2 Yields = %d, want 0 (suppressed)", st.Yields)
	}
	if st.SuppressedYields != 1 {
		t.Errorf("run 2 SuppressedYields = %d, want 1", st.SuppressedYields)
	}
}

// newStarvationScenarioWithStore seeds the deadlock signature through the
// store so run 2 cores see both it and any starvation signatures.
func newStarvationScenarioWithStore(t *testing.T, store *MemHistory) *starvationScenario {
	if store.Len() == 0 {
		if err := store.Append(sigOf(DeadlockSig, fr("test.S", "p1", 1), fr("test.S", "p2", 2))); err != nil {
			t.Fatal(err)
		}
	}
	h := newHarness(t, WithStore(store))
	s := &starvationScenario{
		h:  h,
		a:  h.thread("A"),
		b:  h.thread("B"),
		lX: h.lock("X"),
		l0: h.lock("l0"),
		lY: h.lock("Y"),
		p0: h.pos("S", "p0", 0),
		p1: h.pos("S", "p1", 1),
		p2: h.pos("S", "p2", 2),
		p3: h.pos("S", "p3", 3),
	}
	s.h.acquire(s.b, s.l0, s.p0)
	s.h.acquire(s.a, s.lX, s.p1)
	return s
}

// TestStarvationEventEmitted verifies the event stream carries the
// starvation notification.
func TestStarvationEventEmitted(t *testing.T) {
	s := newStarvationScenario(t)
	h := s.h
	rec := recordEvents(t, h.c)

	if err := h.c.Request(s.a, s.l0, s.p3); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Request(s.b, s.lY, s.p2); err != nil {
		t.Fatal(err)
	}
	_ = h.c.Close()
	<-rec.done
	if rec.count(EventStarvation) != 1 {
		t.Errorf("EventStarvation count = %d, want 1", rec.count(EventStarvation))
	}
	ev, _ := rec.find(EventStarvation)
	if ev.Sig.Kind != StarvationSig {
		t.Errorf("event signature kind = %v, want StarvationSig", ev.Sig.Kind)
	}
}
