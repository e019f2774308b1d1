package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestAvoidanceBlocksInstantiation is the core immunity property: with the
// ABBA signature in history, the second thread to engage the pattern is
// suspended until the first releases, so the deadlock cannot reoccur.
func TestAvoidanceBlocksInstantiation(t *testing.T) {
	store := NewMemHistory()
	if err := store.Append(sigOf(DeadlockSig, fr("test.Svc1.outer", "m", 10), fr("test.Svc2.outer", "m", 20))); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, WithStore(store))
	t1, t2 := h.thread("t1"), h.thread("t2")
	lA, lB := h.lock("A"), h.lock("B")
	p1 := h.pos("Svc1.outer", "m", 10)
	p2 := h.pos("Svc2.outer", "m", 20)

	h.acquire(t1, lA, p1) // t1 occupies position 1 of the signature

	done := make(chan error, 1)
	go func() {
		// t2 at position 2 would complete the instantiation: must yield.
		done <- h.c.Request(t2, lB, p2)
	}()
	waitUntil(t, "t2 yield", func() bool { return h.c.Stats().Yields == 1 })
	select {
	case err := <-done:
		t.Fatalf("t2 proceeded while instantiation possible (err=%v)", err)
	default:
	}

	// t1 releases its lock: the instantiation dissolves and t2 resumes.
	h.release(t1, lA)
	awaitResume(t, done)
	h.take(t2, lB)
	h.c.Acquired(t2, lB)
	st := h.c.Stats()
	if st.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", st.Resumes)
	}
	if st.DeadlocksDetected != 0 {
		t.Errorf("DeadlocksDetected = %d, want 0 (avoided)", st.DeadlocksDetected)
	}
}

// TestEndToEndImmunity plays both runs of the paper's scenario against raw
// core instances sharing one store: run 1 detects the deadlock and saves
// the signature; run 2 (fresh core = rebooted process) avoids it.
func TestEndToEndImmunity(t *testing.T) {
	store := NewMemHistory()

	// Run 1: detection.
	run1 := newHarness(t, WithStore(store))
	t2, lockA, p2in := buildABBA(run1)
	if err := run1.c.Request(t2, lockA, p2in); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("run 1 persisted %d signatures, want 1", store.Len())
	}

	// Run 2: a fresh core loads the history; the same interleaving now
	// suspends the second thread instead of deadlocking.
	run2 := newHarness(t, WithStore(store))
	u1, u2 := run2.thread("t1"), run2.thread("t2")
	mA, mB := run2.lock("A"), run2.lock("B")
	q1 := run2.pos("Svc1", "outer", 10)
	q2 := run2.pos("Svc2", "outer", 20)
	q1in := run2.pos("Svc1", "inner", 11)

	run2.acquire(u1, mA, q1)
	yielded := make(chan error, 1)
	go func() { yielded <- run2.c.Request(u2, mB, q2) }()
	waitUntil(t, "run2 yield", func() bool { return run2.c.Stats().Yields == 1 })

	// u1 proceeds through its inner acquisition unimpeded (u2 never got B),
	// completes, and releases everything.
	if err := run2.c.Request(u1, mB, q1in); err != nil {
		t.Fatal(err)
	}
	run2.take(u1, mB)
	run2.c.Acquired(u1, mB)
	run2.release(u1, mB)
	run2.release(u1, mA)

	awaitResume(t, yielded)
	run2.take(u2, mB)
	run2.c.Acquired(u2, mB)
	if st := run2.c.Stats(); st.DeadlocksDetected != 0 || st.DuplicateDeadlocks != 0 {
		t.Errorf("run 2 must not deadlock: %+v", st)
	}
}

func TestAvoidanceDistinctThreadsRequired(t *testing.T) {
	// Signature over {p1, p2}. One thread holding locks at BOTH positions
	// must not count as an instantiation (a thread cannot deadlock with
	// itself), so a second thread arriving at p1 while t1 occupies p1+p2
	// yields only if t1 and it can fill both slots — here they can, so it
	// yields; but t1 alone must not have been blocked.
	h := newHarness(t)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.W", "p1", 1), fr("test.W", "p2", 2)))
	t1 := h.thread("t1")
	lA, lB := h.lock("A"), h.lock("B")
	p1, p2 := h.pos("W", "p1", 1), h.pos("W", "p2", 2)

	h.acquire(t1, lA, p1)
	// t1 proceeding to p2 must NOT yield: the only candidate for slot p1
	// is t1 itself, which would have to fill both slots.
	if err := h.c.Request(t1, lB, p2); err != nil {
		t.Fatal(err)
	}
	h.take(t1, lB)
	h.c.Acquired(t1, lB)
	if st := h.c.Stats(); st.Yields != 0 {
		t.Errorf("single thread filled both slots: yields = %d, want 0", st.Yields)
	}
}

func TestAvoidanceSkipsUnrelatedPositions(t *testing.T) {
	h := newHarness(t)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.W", "p1", 1), fr("test.W", "p2", 2)))
	t1, t2 := h.thread("t1"), h.thread("t2")
	lA, lB := h.lock("A"), h.lock("B")
	p1 := h.pos("W", "p1", 1)
	other := h.pos("Other", "m", 9)

	h.acquire(t1, lA, p1)
	before := h.c.Stats().AvoidanceChecks
	// t2 acquires at a position not in any signature: no avoidance work.
	h.acquire(t2, lB, other)
	if got := h.c.Stats().AvoidanceChecks; got != before {
		t.Errorf("AvoidanceChecks grew by %d for unrelated position, want 0", got-before)
	}
}

func TestAvoidanceMultipleSignaturesSequential(t *testing.T) {
	// Two signatures share position p1. A thread requesting at p1 must
	// stay suspended while either is instantiable.
	h := newHarness(t)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.W", "p1", 1), fr("test.W", "p2", 2)))
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.W", "p1", 1), fr("test.W", "p3", 3)))

	tA, tB, tC := h.thread("tA"), h.thread("tB"), h.thread("tC")
	lA, lB, lC := h.lock("A"), h.lock("B"), h.lock("C")
	p1, p2, p3 := h.pos("W", "p1", 1), h.pos("W", "p2", 2), h.pos("W", "p3", 3)

	h.acquire(tB, lB, p2) // arms sig 1
	h.acquire(tC, lC, p3) // arms sig 2

	done := make(chan error, 1)
	go func() { done <- h.c.Request(tA, lA, p1) }()
	waitUntil(t, "first yield", func() bool { return h.c.Stats().Yields >= 1 })

	h.release(tB, lB) // sig 1 dissolves; sig 2 still instantiable
	waitUntil(t, "second yield", func() bool { return h.c.Stats().Yields >= 2 })
	select {
	case <-done:
		t.Fatal("tA proceeded while second signature instantiable")
	default:
	}

	h.release(tC, lC)
	awaitResume(t, done)
	if st := h.c.Stats(); st.InstantiationsFound < 2 {
		t.Errorf("InstantiationsFound = %d, want >= 2", st.InstantiationsFound)
	}
}

// TestMatchSignatureOracle cross-checks the backtracking matcher against a
// brute-force assignment enumeration on randomized small scenarios.
func TestMatchSignatureOracle(t *testing.T) {
	type scenario struct {
		slots      []int // slot -> position index
		queues     [][]int
		pretendPos int
		pretendIn  bool
	}
	scenarios := []scenario{
		{slots: []int{0, 1}, queues: [][]int{{1}, {}}, pretendPos: 1, pretendIn: true},
		{slots: []int{0, 1}, queues: [][]int{{1}, {}}, pretendPos: 0, pretendIn: false},
		{slots: []int{0, 0}, queues: [][]int{{1}, {}}, pretendPos: 0, pretendIn: true},
		{slots: []int{0, 0}, queues: [][]int{{1, 2}, {}}, pretendPos: 0, pretendIn: true},
		{slots: []int{0, 1, 2}, queues: [][]int{{1}, {2}, {}}, pretendPos: 2, pretendIn: true},
		{slots: []int{0, 1, 2}, queues: [][]int{{1}, {1}, {}}, pretendPos: 2, pretendIn: false},
		{slots: []int{0, 1}, queues: [][]int{{1, 1}, {}}, pretendPos: 1, pretendIn: true},
	}
	for si, sc := range scenarios {
		t.Run(fmt.Sprintf("scenario%d", si), func(t *testing.T) {
			nPos := len(sc.queues)
			positions := make([]*Position, nPos)
			for i := range positions {
				positions[i] = &Position{key: fmt.Sprintf("p%d", i)}
			}
			threads := map[int]*Node{}
			threadOf := func(id int) *Node {
				if th, ok := threads[id]; ok {
					return th
				}
				th := &Node{kind: ThreadNode, id: uint64(id), name: fmt.Sprintf("t%d", id)}
				threads[id] = th
				return th
			}
			for pi, q := range sc.queues {
				for _, tid := range q {
					positions[pi].takeEntry(threadOf(tid), true)
				}
			}
			pretender := threadOf(1000)
			sig := &Signature{Kind: DeadlockSig}
			for _, s := range sc.slots {
				sig.slots = append(sig.slots, positions[s])
			}

			scratch := &Core{}
			got := scratch.matchSignatureLocked(sig, pretender, positions[sc.pretendPos]) != nil
			want := bruteForceMatch(sig.slots, pretender, positions[sc.pretendPos])
			if got != want {
				t.Errorf("matchSignature = %v, brute force = %v", got, want)
			}
			if got != sc.pretendIn {
				t.Errorf("matchSignature = %v, scenario expects %v", got, sc.pretendIn)
			}
		})
	}
}

// bruteForceMatch enumerates all assignments of distinct threads to slots.
func bruteForceMatch(slots []*Position, t *Node, pos *Position) bool {
	// Gather candidates per slot.
	cands := make([][]*Node, len(slots))
	for i, p := range slots {
		var set []*Node
		set = p.distinctThreads(set)
		if p == pos {
			dup := false
			for _, x := range set {
				if x == t {
					dup = true
				}
			}
			if !dup {
				set = append(set, t)
			}
		}
		cands[i] = set
	}
	var rec func(i int, used map[*Node]bool) bool
	rec = func(i int, used map[*Node]bool) bool {
		if i == len(slots) {
			return true
		}
		for _, c := range cands[i] {
			if used[c] {
				continue
			}
			used[c] = true
			if rec(i+1, used) {
				return true
			}
			delete(used, c)
		}
		return false
	}
	return rec(0, map[*Node]bool{})
}

// TestAvoidanceConcurrentStress hammers a signature-laden core from many
// goroutines; the run must terminate (no lost wakeups) and never detect a
// deadlock.
func TestAvoidanceConcurrentStress(t *testing.T) {
	h := newHarness(t)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.S", "a", 1), fr("test.S", "b", 2)))

	const workers = 8
	const iters = 200
	pa, pb := h.pos("S", "a", 1), h.pos("S", "b", 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := h.c.NewThreadNode(fmt.Sprintf("w%d", w), nil)
			l := h.lock(fmt.Sprintf("lock%d", w))
			pos := pa
			if w%2 == 1 {
				pos = pb
			}
			for i := 0; i < iters; i++ {
				if err := h.c.Request(th, l, pos); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				lockWord(th, l)
				h.c.Acquired(th, l)
				exitLock(h.c, th, l)
			}
		}(w)
	}
	wg.Wait()
	if st := h.c.Stats(); st.DeadlocksDetected != 0 {
		t.Errorf("stress run detected %d deadlocks, want 0", st.DeadlocksDetected)
	}
}
