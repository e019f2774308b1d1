package core

import "testing"

// buildABBA sets up the classic two-thread, two-lock inversion right up to
// the closing request: t1 holds A (at p1) and is approved to wait for B
// (at p1in); t2 holds B (at p2). The returned closing call is t2
// requesting A.
func buildABBA(h *harness) (t2, lockA *Node, p2in *Position) {
	t1 := h.thread("t1")
	t2 = h.thread("t2")
	lockA = h.lock("A")
	lockB := h.lock("B")
	p1 := h.pos("Svc1", "outer", 10)
	p2 := h.pos("Svc2", "outer", 20)
	p1in := h.pos("Svc1", "inner", 11)
	p2in = h.pos("Svc2", "inner", 21)

	h.acquire(t1, lockA, p1)
	h.acquire(t2, lockB, p2)
	// t1 requests B: approved (no cycle yet), would block on the monitor.
	if err := h.c.Request(t1, lockB, p1in); err != nil {
		h.t.Fatalf("t1 request B: %v", err)
	}
	return t2, lockA, p2in
}

func TestDetectABBADeadlock(t *testing.T) {
	h := newHarness(t)
	rec := recordEvents(t, h.c)
	t2, lockA, p2in := buildABBA(h)

	// t2 requests A: closes the cycle. The call succeeds (the deadlock is
	// allowed to manifest) but the signature must be recorded.
	if err := h.c.Request(t2, lockA, p2in); err != nil {
		t.Fatalf("closing request: %v", err)
	}
	st := h.c.Stats()
	if st.DeadlocksDetected != 1 {
		t.Fatalf("DeadlocksDetected = %d, want 1", st.DeadlocksDetected)
	}
	if h.c.HistorySize() != 1 {
		t.Fatalf("history size = %d, want 1", h.c.HistorySize())
	}
	info := h.c.History()[0]
	if info.Kind != DeadlockSig || len(info.Pairs) != 2 {
		t.Fatalf("signature = %v, want 2-pair deadlock", info)
	}
	// Outer positions must be the acquisition sites of the two held locks.
	outs := map[string]bool{}
	for _, p := range info.Pairs {
		outs[p.Outer.Key()] = true
	}
	if !outs["test.Svc1.outer:10"] || !outs["test.Svc2.outer:20"] {
		t.Errorf("outer positions = %v, want the two acquisition sites", outs)
	}

	_ = h.c.Close()
	<-rec.done
	if rec.count(EventDeadlockDetected) != 1 {
		t.Errorf("EventDeadlockDetected count = %d, want 1", rec.count(EventDeadlockDetected))
	}
}

func TestDetectDuplicateDeadlock(t *testing.T) {
	// The same bug detected twice records one signature and counts a
	// duplicate: t2 gives up its closing request and retries it while the
	// cycle still stands (a request that completes a cycle is never
	// avoided, armed or not).
	store := NewMemHistory()
	h := newHarness(t, WithStore(store))
	t2, lockA, p2in := buildABBA(h)
	if err := h.c.Request(t2, lockA, p2in); err != nil {
		t.Fatal(err)
	}
	h.c.Abort(t2, lockA)

	// Second identical attempt in the same process: t2 retries.
	if err := h.c.Request(t2, lockA, p2in); err != nil {
		t.Fatal(err)
	}
	st := h.c.Stats()
	if st.DeadlocksDetected != 1 || st.DuplicateDeadlocks != 1 || st.Yields != 0 {
		t.Errorf("detected=%d duplicates=%d yields=%d, want 1/1/0",
			st.DeadlocksDetected, st.DuplicateDeadlocks, st.Yields)
	}
	if store.Len() != 1 {
		t.Errorf("store has %d sigs, want 1 (no duplicate persistence)", store.Len())
	}
	if h.c.History()[0].Hits != 1 {
		t.Errorf("signature hits = %d, want 1", h.c.History()[0].Hits)
	}
}

func TestDetectThreeThreadCycle(t *testing.T) {
	h := newHarness(t)
	t1, t2, t3 := h.thread("t1"), h.thread("t2"), h.thread("t3")
	lA, lB, lC := h.lock("A"), h.lock("B"), h.lock("C")
	pA, pB, pC := h.pos("X", "a", 1), h.pos("X", "b", 2), h.pos("X", "c", 3)
	pw := h.pos("X", "w", 9)

	h.acquire(t1, lA, pA)
	h.acquire(t2, lB, pB)
	h.acquire(t3, lC, pC)
	if err := h.c.Request(t1, lB, pw); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Request(t2, lC, pw); err != nil {
		t.Fatal(err)
	}
	// t3 → A closes a 3-cycle.
	if err := h.c.Request(t3, lA, pw); err != nil {
		t.Fatal(err)
	}
	if h.c.HistorySize() != 1 {
		t.Fatalf("history size = %d, want 1", h.c.HistorySize())
	}
	info := h.c.History()[0]
	if len(info.Pairs) != 3 {
		t.Errorf("3-cycle signature has %d pairs, want 3", len(info.Pairs))
	}
}

func TestNoFalseCycleOnChain(t *testing.T) {
	// t1 holds A; t2 requests A; t3 requests A. Pure contention, no cycle.
	h := newHarness(t)
	t1, t2, t3 := h.thread("t1"), h.thread("t2"), h.thread("t3")
	lA := h.lock("A")
	p := h.pos("X", "a", 1)
	pw := h.pos("X", "w", 2)

	h.acquire(t1, lA, p)
	if err := h.c.Request(t2, lA, pw); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Request(t3, lA, pw); err != nil {
		t.Fatal(err)
	}
	if st := h.c.Stats(); st.DeadlocksDetected != 0 {
		t.Errorf("DeadlocksDetected = %d, want 0", st.DeadlocksDetected)
	}
}

func TestRequestBehindExistingDeadlockIsNotANewDeadlock(t *testing.T) {
	// A deadlock between t1 and t2 already manifested.
	// A third thread requesting one of the dead locks must not loop
	// forever in the cycle walk nor record a new signature.
	h := newHarness(t)
	t2, lockA, p2in := buildABBA(h)
	if err := h.c.Request(t2, lockA, p2in); err != nil {
		t.Fatal(err)
	}
	if h.c.HistorySize() != 1 {
		t.Fatal("setup: expected one detected deadlock")
	}

	t3 := h.thread("t3")
	pw := h.pos("Bystander", "call", 5)
	if err := h.c.Request(t3, lockA, pw); err != nil {
		t.Fatalf("bystander request: %v", err)
	}
	st := h.c.Stats()
	if st.DeadlocksDetected != 1 || st.DuplicateDeadlocks != 0 {
		t.Errorf("bystander must not re-detect: detected=%d dup=%d", st.DeadlocksDetected, st.DuplicateDeadlocks)
	}
}

func TestSignatureInnerStacksRecorded(t *testing.T) {
	h := newHarness(t)
	t2, lockA, p2in := buildABBA(h)
	if err := h.c.Request(t2, lockA, p2in); err != nil {
		t.Fatal(err)
	}
	info := h.c.History()[0]
	for i, p := range info.Pairs {
		if len(p.Inner) == 0 {
			t.Errorf("pair %d: empty inner stack", i)
		}
	}
}
