package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// Property tests over randomized schedules: whatever interleaving of
// ordered acquisitions runs, the core must (a) never report a deadlock
// when lock ordering makes one impossible, (b) balance its counters, and
// (c) return to a clean state (empty queues, no owners, no request edges)
// once everything is released.

// randomOrderedSchedule runs `threads` goroutines, each performing
// `opsPer` nested acquisitions of randomly chosen locks in ascending lock
// order (deadlock-free by construction), and then verifies the core's
// invariants.
func randomOrderedSchedule(t *testing.T, seed int64, threads, locks, opsPer int) {
	t.Helper()
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	lockNodes := make([]*Node, locks)
	positions := make([]*Position, locks)
	for i := range lockNodes {
		lockNodes[i] = newTestLock(c, fmt.Sprintf("L%d", i))
		p, err := c.Intern(CallStack{{Class: "inv.Site", Method: "m", Line: i}})
		if err != nil {
			t.Fatal(err)
		}
		positions[i] = p
	}
	// Per-lock mutexes stand in for the real monitors the VM would block
	// on: the core tracks, the mutexes enforce.

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			th := c.NewThreadNode(fmt.Sprintf("T%d", w), nil)
			for op := 0; op < opsPer; op++ {
				// Pick 1–3 distinct locks; acquire in ascending order.
				k := 1 + rng.Intn(3)
				chosen := rng.Perm(locks)[:k]
				sortInts(chosen)
				for _, li := range chosen {
					if err := c.Request(th, lockNodes[li], positions[li]); err != nil {
						t.Errorf("request: %v", err)
						return
					}
					lockWord(th, lockNodes[li])
					c.Acquired(th, lockNodes[li])
				}
				for i := k - 1; i >= 0; i-- {
					li := chosen[i]
					exitLock(c, th, lockNodes[li])
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.DeadlocksDetected != 0 {
		t.Errorf("ordered schedule detected %d deadlocks", st.DeadlocksDetected)
	}
	if st.Requests != st.Acquisitions || st.Acquisitions != st.Releases {
		t.Errorf("unbalanced counters: %d requests, %d acquisitions, %d releases",
			st.Requests, st.Acquisitions, st.Releases)
	}
	if st.Misuse != 0 {
		t.Errorf("misuse = %d", st.Misuse)
	}
	ms := c.MemStats()
	if ms.QueueEntriesLive != 0 {
		t.Errorf("live queue entries after quiescence: %d", ms.QueueEntriesLive)
	}
	for i, l := range lockNodes {
		if l.word.Holder() != nil || l.acqEntry != nil {
			t.Errorf("lock %d not clean after quiescence", i)
		}
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestInvariantOrderedSchedules(t *testing.T) {
	seeds := make([]int64, 10)
	if err := quick.Check(func(s int64) bool { seeds = append(seeds, s); return true }, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		randomOrderedSchedule(t, seed, 4, 5, 30)
		if t.Failed() {
			t.Fatalf("failed at seed %d", seed)
		}
	}
}

// TestInvariantWithArmedHistory repeats the ordered schedule with a
// history whose signatures cover the schedule's own positions: avoidance
// runs constantly, may yield, but must neither deadlock nor lose state.
func TestInvariantWithArmedHistory(t *testing.T) {
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const locks = 4
	lockNodes := make([]*Node, locks)
	positions := make([]*Position, locks)
	for i := range lockNodes {
		lockNodes[i] = newTestLock(c, fmt.Sprintf("L%d", i))
		p, err := c.Intern(CallStack{{Class: "inv.Site", Method: "m", Line: i}})
		if err != nil {
			t.Fatal(err)
		}
		positions[i] = p
	}
	// Arm pairwise signatures over adjacent positions.
	for i := 0; i+1 < locks; i++ {
		mustAdd(t, c, sigOf(DeadlockSig,
			fr("inv.Site", "m", i),
			fr("inv.Site", "m", i+1),
		))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 977))
			th := c.NewThreadNode(fmt.Sprintf("T%d", w), nil)
			for op := 0; op < 50; op++ {
				li := rng.Intn(locks)
				if err := c.Request(th, lockNodes[li], positions[li]); err != nil {
					t.Errorf("request: %v", err)
					return
				}
				lockWord(th, lockNodes[li])
				c.Acquired(th, lockNodes[li])
				exitLock(c, th, lockNodes[li])
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.DeadlocksDetected != 0 {
		t.Errorf("armed history schedule detected %d deadlocks", st.DeadlocksDetected)
	}
	if ms := c.MemStats(); ms.QueueEntriesLive != 0 {
		t.Errorf("live entries after quiescence: %d", ms.QueueEntriesLive)
	}
}

// TestInvariantAbortPaths interleaves aborted requests with completed
// ones; aborts must leave no residue.
func TestInvariantAbortPaths(t *testing.T) {
	h := newHarness(t)
	th := h.thread("t")
	l := h.lock("l")
	p := h.pos("A", "m", 1)
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			if err := h.c.Request(th, l, p); err != nil {
				t.Fatal(err)
			}
			h.c.abort(th)
		} else {
			h.acquire(th, l, p)
			h.release(th, l)
		}
	}
	ms := h.c.MemStats()
	if ms.QueueEntriesLive != 0 {
		t.Errorf("live entries = %d, want 0", ms.QueueEntriesLive)
	}
	st := h.c.Stats()
	if st.Aborts != 25 || st.Acquisitions != 25 {
		t.Errorf("aborts=%d acquisitions=%d, want 25/25", st.Aborts, st.Acquisitions)
	}
	if th.reqLock != nil || th.reqEntry != nil {
		t.Error("thread left with request residue")
	}
}

// TestInvariantEntryReuseHighWaterMark: the allocation count must plateau
// at the maximum concurrent occupancy per position, independent of total
// operation count (the §4 claim).
func TestInvariantEntryReuseHighWaterMark(t *testing.T) {
	h := newHarness(t)
	p := h.pos("A", "m", 1)
	h.arm("A", "m", 1) // queues (and hence entries) exist only for armed positions
	const concurrent = 5
	threads := make([]*Node, concurrent)
	lcks := make([]*Node, concurrent)
	for i := range threads {
		threads[i] = h.thread(fmt.Sprintf("t%d", i))
		lcks[i] = h.lock(fmt.Sprintf("l%d", i))
	}
	for round := 0; round < 40; round++ {
		for i := 0; i < concurrent; i++ {
			h.acquire(threads[i], lcks[i], p)
		}
		for i := 0; i < concurrent; i++ {
			h.release(threads[i], lcks[i])
		}
	}
	ms := h.c.MemStats()
	if ms.QueueEntriesAllocated != concurrent {
		t.Errorf("allocated %d entries over 40 rounds, want %d (high-water mark)",
			ms.QueueEntriesAllocated, concurrent)
	}
}
