package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Lock-free exits: an exit whose acquisition position is outside the
// history is the runtime's release store and one re-load of the
// position's inHistory flag (Core.Exit). These tests pin the install race
// that re-load exists for, the phantom entry it leaves for an exclusive
// section to return, and the state between a runtime CAS and Acquired.

// TestLockFreeExitReconcilesARacingInstall: a signature naming the
// position installs after the exit chose the lock-free path and before its
// release store. The queue rebuild reads the word, still the holder's,
// and attaches an entry to the departing hold; the exit's re-load sees
// the position armed and returns that entry under the exclusive lock,
// waking the thread that yielded on it. Without the re-load the entry
// stays in the queue for good, a holder that left.
func TestLockFreeExitReconcilesARacingInstall(t *testing.T) {
	h := newHarness(t)
	th, l, p := h.thread("t"), h.lock("l"), h.pos("Hot", "m", 1)
	u, lu, cold := h.thread("u"), h.lock("lu"), h.pos("Cold", "x", 9)
	if !h.c.enterFast(th, l, p, tryLock(th, l)) {
		t.Fatal("enterFast refused an uncontended unarmed enter")
	}
	done := make(chan error, 1)
	h.c.Exit(th, l, func() {
		mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Hot", "m", 1), fr("test.Cold", "x", 9)))
		if l.acqEntry == nil || p.occupants() != 1 {
			t.Fatalf("the rebuild attached no entry to the departing hold: entry %v, %d queue entries", l.acqEntry, p.occupants())
		}
		// u at the signature's other position completes an instantiation
		// with t's hold, and yields on it.
		go func() { done <- h.c.Request(u, lu, cold) }()
		waitUntil(t, "u yields", func() bool { return h.c.yielderCount.Load() == 1 })
		unlockWord(th, l)
	})
	awaitResume(t, done)
	h.take(u, lu)
	h.c.Acquired(u, lu)
	h.release(u, lu)
	if v := engineViolation(h.c); v != "" {
		t.Fatal(v)
	}
	if l.acqEntry != nil || p.occupants() != 0 {
		t.Errorf("after the exit: entry %v, %d queue entries at the armed position; want none", l.acqEntry, p.occupants())
	}
	if st := h.c.Stats(); st.Acquisitions != 2 || st.Releases != 2 || st.Yields != 1 || st.Misuse != 0 {
		t.Errorf("%d acquisitions, %d releases, %d yields, %d misuses; want 2, 2, 1, 0",
			st.Acquisitions, st.Releases, st.Yields, st.Misuse)
	}
}

// TestEnterFastNeverOverwritesAPhantom: a new holder takes the lock
// between a racing lock-free exit's release store and its re-load, while
// the phantom entry the rebuild attached is still on the lock. enterFast
// wins the CAS but must leave the phantom for the exclusive lock: its
// enter completes through Acquired, which returns the phantom first, and
// the old holder's reconcile then finds an entry that is not its own and
// leaves it. Overwriting the entry would lose the phantom in the queue.
func TestEnterFastNeverOverwritesAPhantom(t *testing.T) {
	h := newHarness(t)
	t1, t2, l := h.thread("t1"), h.thread("t2"), h.lock("l")
	p, q := h.pos("Hot", "m", 1), h.pos("Free", "m", 2)
	if !h.c.enterFast(t1, l, p, tryLock(t1, l)) {
		t.Fatal("enterFast refused an uncontended unarmed enter")
	}
	h.c.Exit(t1, l, func() {
		mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Hot", "m", 1), fr("test.Cold", "x", 9)))
		unlockWord(t1, l)
		if !h.c.enterFast(t2, l, q, tryLock(t2, l)) {
			t.Fatal("enterFast refused a free lock at an unarmed position")
		}
		if p.occupants() != 0 || l.acqPos != q || l.acqEntry != nil || l.holder() != t2 {
			t.Fatalf("t2's enter over the phantom: %d entries at the armed position, acquired at %v, entry %v, holder %v; want none, q, none, t2",
				p.occupants(), l.acqPos, l.acqEntry, l.holder())
		}
	})
	if v := engineViolation(h.c); v != "" {
		t.Fatal(v)
	}
	h.release(t2, l)
	if st := h.c.Stats(); st.Requests != 2 || st.Acquisitions != 2 || st.Releases != 2 || st.Misuse != 0 {
		t.Errorf("%d requests, %d acquisitions, %d releases, %d misuses; want 2, 2, 2, 0",
			st.Requests, st.Acquisitions, st.Releases, st.Misuse)
	}
}

// TestCASBeforeAcquiredReadsAsRunning: between the runtime's CAS and
// Acquired a thread holds the lock's word while its approved request
// still names the lock. It reads as running: detection walks no wait-for
// edge through it, Stats counts no hold (its acquisition is not counted
// yet), and a queue rebuild does not take the lock's stale acquisition
// position, left by a lock-free exit, for the new holder's.
func TestCASBeforeAcquiredReadsAsRunning(t *testing.T) {
	h := newHarness(t)
	t0, t1, t2 := h.thread("t0"), h.thread("t1"), h.thread("t2")
	l, m := h.lock("l"), h.lock("m")
	p, q, r := h.pos("Stale", "m", 1), h.pos("Free", "m", 2), h.pos("Other", "m", 3)

	// t0 leaves l lock-free: l's acquisition position stays p.
	if !h.c.enterFast(t0, l, p, tryLock(t0, l)) {
		t.Fatal("enterFast refused an uncontended unarmed enter")
	}
	h.release(t0, l)
	if l.acqPos != p {
		t.Fatalf("a lock-free exit cleared the acquisition position: %v", l.acqPos)
	}

	// t1: approved for l at q, and its CAS wins.
	if err := h.c.Request(t1, l, q); err != nil {
		t.Fatal(err)
	}
	h.take(t1, l)
	if l.holder() != nil {
		t.Errorf("holder between CAS and Acquired = %v, want none", l.holder())
	}
	if st := h.c.Stats(); st.Acquisitions != 1 || st.Releases != 1 {
		t.Errorf("between CAS and Acquired: %d acquisitions, %d releases; want 1, 1", st.Acquisitions, st.Releases)
	}

	// t2 holds m and requests l, now held by t1: t1 runs, so the request
	// closes no cycle.
	h.acquire(t2, m, r)
	if err := h.c.Request(t2, l, r); err != nil {
		t.Fatal(err)
	}
	if st := h.c.Stats(); st.DeadlocksDetected != 0 || st.DuplicateDeadlocks != 0 {
		t.Errorf("a thread between CAS and Acquired read as waiting: %+v", st)
	}

	// A signature naming p arms it: l's stale position is not t1's hold.
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Stale", "m", 1), fr("test.Cold", "x", 9)))
	if p.occupants() != 0 || l.acqEntry != nil {
		t.Errorf("the rebuild queued t1's pending hold at l's stale position: %d entries, entry %v", p.occupants(), l.acqEntry)
	}
	if v := engineViolation(h.c); v != "" {
		t.Error(v)
	}

	h.c.Acquired(t1, l)
	if l.holder() != t1 || l.acqPos != q {
		t.Errorf("after Acquired: holder %v at %v, want t1 at q", l.holder(), l.acqPos)
	}
	if st := h.c.Stats(); st.Acquisitions != 3 || st.Releases != 1 {
		t.Errorf("after Acquired: %d acquisitions, %d releases; want 3, 1", st.Acquisitions, st.Releases)
	}
	h.release(t1, l)
	h.c.abort(t2)
	h.release(t2, m)
	if st := h.c.Stats(); st.Acquisitions != 3 || st.Releases != 3 || st.Misuse != 0 {
		t.Errorf("at quiescence: %d acquisitions, %d releases, %d misuses; want 3, 3, 0", st.Acquisitions, st.Releases, st.Misuse)
	}
}

// TestStressLockFreeExitRacesInstall runs threads that enter and exit,
// each on its own lock, at one unarmed site while another goroutine
// installs a signature naming that site, a fresh site per round. Exits
// that chose the lock-free path before the install race its queue
// rebuild. At each quiescence the queues must equal a recount of the RAG
// with no phantom entry left, and at the end Stats must be exact. Run it
// under -race.
func TestStressLockFreeExitRacesInstall(t *testing.T) {
	const (
		rounds  = 30
		threads = 4
		ops     = 150
	)
	h := newHarness(t)
	nodes := make([]*Node, threads)
	locks := make([]*Node, threads)
	for i := range nodes {
		nodes[i], locks[i] = h.thread(fmt.Sprintf("t%d", i)), h.lock(fmt.Sprintf("l%d", i))
	}
	rng := rand.New(rand.NewSource(20110627))
	for r := 0; r < rounds; r++ {
		site := h.pos("Race", "m", r)
		delay := rng.Intn(ops)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(th, l *Node) {
				defer wg.Done()
				<-start
				for i := 0; i < ops; i++ {
					if !h.c.enterFast(th, l, site, tryLock(th, l)) {
						if err := h.c.Request(th, l, site); err != nil {
							t.Errorf("request: %v", err)
							return
						}
						lockWord(th, l)
						h.c.Acquired(th, l)
					}
					exitLock(h.c, th, l)
				}
			}(nodes[w], locks[w])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < delay; i++ {
				runtime.Gosched()
			}
			if _, _, err := h.c.AddSignature(sigOf(DeadlockSig, fr("test.Race", "m", r), fr("test.Cold", "x", r))); err != nil {
				t.Errorf("install: %v", err)
			}
		}()
		close(start)
		wg.Wait()
		if v := engineViolation(h.c); v != "" {
			t.Fatalf("round %d: %s", r, v)
		}
		for i, l := range locks {
			if l.word.Holder() != nil || l.acqEntry != nil {
				t.Fatalf("round %d: lock %d left held by %v with entry %v", r, i, l.word.Holder(), l.acqEntry)
			}
		}
	}
	st := h.c.Stats()
	const total = rounds * threads * ops
	if st.Requests != total || st.Acquisitions != total || st.Releases != total || st.Misuse != 0 ||
		st.DeadlocksDetected != 0 || st.Yields != 0 {
		t.Errorf("stats %+v; want %d requests, acquisitions and releases, no misuse, detection or yield", st, total)
	}
	if st.FastReleases > st.Releases {
		t.Errorf("%d fast releases of %d", st.FastReleases, st.Releases)
	}
}
