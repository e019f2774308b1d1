package core

import (
	"errors"
	"sync/atomic"
	"testing"
)

// Enter is the embedder's monitorenter: these tests hold it to the rules
// its composition of the engine's parts must keep, each of which a
// runtime once had to keep itself.

// enterProbe counts what Enter asked of the runtime's lock.
type enterProbe struct {
	tries, acquires int
	hook            []bool
}

// enter calls Enter for t on l at pos with the word's CAS as tryLock and
// acquire as the blocking acquisition, recording every callback.
func (p *enterProbe) enter(c *Core, t, l *Node, pos *Position, acquire func() error) error {
	return c.Enter(t, l, pos,
		func() bool { p.tries++; return tryLock(t, l)() },
		func() error { p.acquires++; return acquire() },
		func(on bool) { p.hook = append(p.hook, on) })
}

// TestEnterSharedSectionCallsOnlyTryLock: an uncontended enter at an
// unarmed position is the shared section alone. It takes the lock through
// one tryLock, never blocks in acquire and never tells the runtime the
// thread is blocked, so a runtime that stores its thread state in the hook
// adds no store to the fast path.
func TestEnterSharedSectionCallsOnlyTryLock(t *testing.T) {
	h := newHarness(t)
	th, l := h.thread("t"), h.lock("l")
	p := h.pos("A", "m", 1)
	var probe enterProbe
	if err := probe.enter(h.c, th, l, p, func() error { return errors.New("acquire must not run") }); err != nil {
		t.Fatal(err)
	}
	if probe.tries != 1 || probe.acquires != 0 || len(probe.hook) != 0 {
		t.Fatalf("the shared enter made %d tries and %d acquires and told the hook %v; want 1, 0, nothing",
			probe.tries, probe.acquires, probe.hook)
	}
	if st := h.c.Stats(); st.FastAcquisitions != 1 || wordOf(l).Holder() != th || l.acqPos != p {
		t.Fatalf("after the shared enter: %d fast acquisitions, holder %v at %v", st.FastAcquisitions, wordOf(l).Holder(), l.acqPos)
	}
	h.release(th, l)
}

// TestEnterAbortsAFailedAcquire: when the runtime's acquisition fails (a
// process being torn down gives up its blocked monitorenter), Enter
// returns the failure and undoes the approved request. Without the abort
// the thread would keep a request edge to a lock it never takes and its
// entry in an armed position's queue, a phantom occupant that avoidance
// would count against every later request.
func TestEnterAbortsAFailedAcquire(t *testing.T) {
	h := newHarness(t)
	holder, th := h.thread("holder"), h.thread("t")
	l := h.lock("l")
	h.arm("A", "m", 1)
	p := h.pos("A", "m", 1)
	h.acquire(holder, l, p)

	gaveUp := errors.New("process killed")
	var probe enterProbe
	if err := probe.enter(h.c, th, l, p, func() error { return gaveUp }); err != gaveUp {
		t.Fatalf("Enter = %v, want the acquire's %v", err, gaveUp)
	}
	if probe.acquires != 1 || len(probe.hook) != 2 || !probe.hook[0] || probe.hook[1] {
		t.Fatalf("%d acquires, hook told %v; want 1 and [true false]", probe.acquires, probe.hook)
	}
	if th.reqLock != nil || th.reqEntry != nil {
		t.Fatalf("the failed enter left a request for %v with entry %v", th.reqLock, th.reqEntry)
	}
	if n := p.queue.len(); n != 1 {
		t.Fatalf("the armed position's queue holds %d entries, want the holder's alone", n)
	}
	if v := engineViolation(h.c); v != "" {
		t.Fatal(v)
	}
	if st := h.c.Stats(); st.Aborts != 1 || st.Misuse != 0 {
		t.Fatalf("%d aborts, %d misuses; want 1, 0", st.Aborts, st.Misuse)
	}

	// The thread enters cleanly once the lock is free: no superseded
	// request is found and counted as misuse.
	h.release(holder, l)
	probe = enterProbe{}
	if err := probe.enter(h.c, th, l, p, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	h.release(th, l)
	if st := h.c.Stats(); st.Misuse != 0 || st.Acquisitions != 2 || st.Releases != 2 {
		t.Fatalf("%d misuses, %d acquisitions, %d releases; want 0, 2, 2", st.Misuse, st.Acquisitions, st.Releases)
	}
}

// TestEnterReadsBlockedThroughAYield: the hook tells the runtime its
// thread is blocked before the request, so a thread that avoidance
// suspends already reads as blocked for the whole yield (a vm thread's
// StateBlocked includes avoidance yields, and an ANR dump lists it), and
// unblocked only once it owns the lock.
func TestEnterReadsBlockedThroughAYield(t *testing.T) {
	h := newHarness(t)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.S1", "m", 1), fr("test.S2", "m", 2)))
	t1, t2 := h.thread("t1"), h.thread("t2")
	lA, lB := h.lock("A"), h.lock("B")
	p1, p2 := h.pos("S1", "m", 1), h.pos("S2", "m", 2)
	h.acquire(t1, lA, p1) // t1 occupies the signature's first slot

	var blocked atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- h.c.Enter(t2, lB, p2, tryLock(t2, lB), func() error {
			lockWord(t2, lB)
			return nil
		}, blocked.Store)
	}()
	waitUntil(t, "t2 yield", func() bool { return h.c.Stats().Yields == 1 })
	if !blocked.Load() {
		t.Fatal("t2 yields in avoidance but reads as running: the hook did not run before the request")
	}
	h.release(t1, lA)
	awaitResume(t, done)
	if blocked.Load() {
		t.Fatal("t2 owns B but still reads as blocked")
	}
	if wordOf(lB).Holder() != t2 || lB.acqPos != p2 {
		t.Fatalf("t2 does not hold B at p2: holder %v at %v", wordOf(lB).Holder(), lB.acqPos)
	}
	h.release(t2, lB)
}
