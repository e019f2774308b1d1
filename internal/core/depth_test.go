package core

import (
	"sync"
	"testing"
)

// Tests for outer-depth > 1 configurations (ablation A1's correctness
// side: deeper stacks distinguish call contexts end to end, from capture
// through detection to avoidance).

func TestDeepOuterStacksInSignatures(t *testing.T) {
	h := newHarness(t, WithOuterDepth(2))
	t1, t2 := h.thread("t1"), h.thread("t2")
	lA, lB := h.lock("A"), h.lock("B")

	deepA, err := h.c.Intern(stackOf(fr("wrap.Lock", "lock", 7), fr("app.JobA", "run", 10)))
	if err != nil {
		t.Fatal(err)
	}
	deepB, err := h.c.Intern(stackOf(fr("wrap.Lock", "lock", 7), fr("app.JobB", "run", 20)))
	if err != nil {
		t.Fatal(err)
	}
	inner := h.pos("X", "in", 9)

	h.acquire(t1, lA, deepA)
	h.acquire(t2, lB, deepB)
	if err := h.c.Request(t1, lB, inner); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Request(t2, lA, inner); err != nil {
		t.Fatal(err)
	}
	if h.c.HistorySize() != 1 {
		t.Fatal("deadlock not detected")
	}
	info := h.c.History()[0]
	for _, pair := range info.Pairs {
		if len(pair.Outer) != 2 {
			t.Errorf("outer stack depth = %d, want 2 (full context)", len(pair.Outer))
		}
		if pair.Outer[0].Class != "wrap.Lock" {
			t.Errorf("outer top frame = %v, want the wrapper", pair.Outer[0])
		}
	}
}

// TestDepth2AvoidanceDistinguishesCallers: with a depth-2 signature over
// two caller contexts, a *third* caller using the same wrapper must not
// yield (the custom-wrapper example's fix, verified at core level).
func TestDepth2AvoidanceDistinguishesCallers(t *testing.T) {
	h := newHarness(t, WithOuterDepth(2))
	sig := &Signature{
		Kind: DeadlockSig,
		Pairs: []SigPair{
			{Outer: stackOf(fr("wrap.Lock", "lock", 7), fr("app.JobA", "run", 10)), Inner: stackOf(fr("app.JobA", "run", 10))},
			{Outer: stackOf(fr("wrap.Lock", "lock", 7), fr("app.JobB", "run", 20)), Inner: stackOf(fr("app.JobB", "run", 20))},
		},
	}
	if _, _, err := h.c.AddSignature(sig); err != nil {
		t.Fatal(err)
	}

	t1, t3 := h.thread("t1"), h.thread("t3")
	lA, lC := h.lock("A"), h.lock("C")
	posA, err := h.c.Intern(stackOf(fr("wrap.Lock", "lock", 7), fr("app.JobA", "run", 10)))
	if err != nil {
		t.Fatal(err)
	}
	posC, err := h.c.Intern(stackOf(fr("wrap.Lock", "lock", 7), fr("app.JobC", "run", 30)))
	if err != nil {
		t.Fatal(err)
	}

	h.acquire(t1, lA, posA) // occupies signature slot 1
	// JobC's context is NOT in the signature: no yield even though the
	// wrapper frame matches.
	h.acquire(t3, lC, posC)
	if st := h.c.Stats(); st.Yields != 0 {
		t.Errorf("depth-2 avoidance yielded for an unrelated caller: %+v", st)
	}

	// But with depth 1 the same situation serializes (the pitfall).
	h1 := newHarness(t, WithOuterDepth(1))
	if _, _, err := h1.c.AddSignature(sig); err != nil { // truncated to wrapper frame
		t.Fatal(err)
	}
	u1, u3 := h1.thread("u1"), h1.thread("u3")
	mA, mC := h1.lock("A"), h1.lock("C")
	wrapPos, err := h1.c.Intern(stackOf(fr("wrap.Lock", "lock", 7)))
	if err != nil {
		t.Fatal(err)
	}
	h1.acquire(u1, mA, wrapPos)
	done := make(chan error, 1)
	go func() { done <- h1.c.Request(u3, mC, wrapPos) }()
	waitUntil(t, "depth-1 false-positive yield", func() bool { return h1.c.Stats().Yields == 1 })
	h1.release(u1, mA)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestInternConcurrentSameKey: racing interns of one key must converge on
// a single Position.
func TestInternConcurrentSameKey(t *testing.T) {
	h := newHarness(t)
	const workers = 8
	results := make([]*Position, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := h.c.Intern(stackOf(fr("race.C", "m", 5)))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent interns produced distinct Positions")
		}
	}
	if h.c.PositionCount() != 1 {
		t.Errorf("PositionCount = %d, want 1", h.c.PositionCount())
	}
}

// TestDuplicateSignatureAcrossDepths: a deep signature loaded into a
// depth-1 core deduplicates against its truncated form.
func TestDuplicateSignatureAcrossDepths(t *testing.T) {
	h := newHarness(t, WithOuterDepth(1))
	deep := &Signature{
		Kind: DeadlockSig,
		Pairs: []SigPair{
			{Outer: stackOf(fr("a.B", "m", 1), fr("x.Y", "r", 2)), Inner: stackOf(fr("a.B", "m", 1))},
			{Outer: stackOf(fr("c.D", "n", 3), fr("z.W", "s", 4)), Inner: stackOf(fr("c.D", "n", 3))},
		},
	}
	if _, fresh, err := h.c.AddSignature(deep); err != nil || !fresh {
		t.Fatalf("first add: fresh=%v err=%v", fresh, err)
	}
	shallow := sigOf(DeadlockSig, fr("a.B", "m", 1), fr("c.D", "n", 3))
	if _, fresh, err := h.c.AddSignature(shallow); err != nil {
		t.Fatal(err)
	} else if fresh {
		t.Error("truncated duplicate must not install twice at depth 1")
	}
}
