package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The slow path's two shortcuts — the occupancy pre-filter in front of the
// signature matcher and the yielder gate in front of the wake-ups — must
// never change what avoidance decides.

// prefilterBaseSeed numbers the generated cases of
// TestPrefilterNeverHidesAMatch: case i is a pure function of
// prefilterBaseSeed+i, and a failure names the seed to replay with
// checkPrefilterCase.
const prefilterBaseSeed = 20110627

// prefilterOutcome is what one generated case exercised.
type prefilterOutcome struct {
	filtered    bool // the pre-filter rejected the signature
	matched     bool // the matcher found an instantiation
	repeatedPos bool // the signature names one position more than once
}

// checkPrefilterCase builds the queue state, signature and pretended
// request that seed determines, and checks the filter's contract on it:
// a signature the filter rejects is one the matcher cannot instantiate.
func checkPrefilterCase(t *testing.T, seed int64) prefilterOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A small world, so that empty queues, shared threads and repeated
	// positions are all common: 2–4 positions, 1–4 threads, and up to two
	// entries per position (one thread may hold several locks acquired at
	// one position, and locks at several positions).
	positions := make([]*Position, 2+rng.Intn(3))
	for i := range positions {
		positions[i] = c.positions.intern(CallStack{uniqueFrame(i)})
	}
	threads := make([]*Node, 1+rng.Intn(4))
	for i := range threads {
		threads[i] = c.NewThreadNode(fmt.Sprintf("t%d", i), nil)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range positions {
		for n := rng.Intn(3); n > 0; n-- {
			c.takeEntryLocked(p, threads[rng.Intn(len(threads))])
		}
	}
	sig := &Signature{Kind: DeadlockSig, slots: make([]*Position, 2+rng.Intn(3))}
	out := prefilterOutcome{}
	for i := range sig.slots {
		sig.slots[i] = positions[rng.Intn(len(positions))]
		for _, earlier := range sig.slots[:i] {
			out.repeatedPos = out.repeatedPos || earlier == sig.slots[i]
		}
	}
	// The requester is one of the threads (it may already sit in a queue)
	// and requests at a position the signature names, as avoidance only
	// examines signatures containing the requested position.
	requester := threads[rng.Intn(len(threads))]
	pos := sig.slots[rng.Intn(len(sig.slots))]

	out.filtered = !slotsOccupiable(sig.slots, pos)
	out.matched = c.matchSignatureLocked(sig, requester, pos) != nil
	if out.filtered && out.matched {
		queues := make([]int, len(sig.slots))
		for i, p := range sig.slots {
			queues[i] = p.occupants()
		}
		t.Errorf("seed %d: the pre-filter rejects a signature the matcher instantiates (slot queue lengths %v, request at %s)",
			seed, queues, pos.key)
	}
	return out
}

// TestPrefilterNeverHidesAMatch is the differential test of the occupancy
// pre-filter against the backtracking matcher over generated queue states
// and 2–4-slot signatures, repeated positions included.
func TestPrefilterNeverHidesAMatch(t *testing.T) {
	const cases = 5000
	var filtered, matched, passedUnmatched, repeatedFiltered, repeatedMatched int
	for i := int64(0); i < cases; i++ {
		out := checkPrefilterCase(t, prefilterBaseSeed+i)
		switch {
		case out.filtered:
			filtered++
		case out.matched:
			matched++
		default:
			passedUnmatched++
		}
		if out.repeatedPos && out.filtered {
			repeatedFiltered++
		}
		if out.repeatedPos && out.matched {
			repeatedMatched++
		}
	}
	// The generator must reach every corner the argument has: signatures
	// the filter skips, ones it passes on that match, ones it passes on
	// that the matcher still rejects (necessary, not sufficient), and
	// repeated-position signatures on both sides.
	for what, n := range map[string]int{
		"filtered":                         filtered,
		"matched":                          matched,
		"passed the filter, then rejected": passedUnmatched,
		"repeated position, filtered":      repeatedFiltered,
		"repeated position, matched":       repeatedMatched,
	} {
		if n < cases/100 {
			t.Errorf("only %d of %d generated cases were %q: the generator no longer covers it", n, cases, what)
		}
	}
}

// TestWakeGatedOnYielders walks the yielder gate through both of its
// states over signature {p1, p2}. T3 acquires and releases at p1 while
// nothing yields: the release that skips the wake-ups. Then T1 holds at
// p1, T2's request at p2 yields, and T1's release — which now finds a
// yielder — must wake T2, exactly once.
func TestWakeGatedOnYielders(t *testing.T) {
	h := newHarness(t)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.W", "p1", 1), fr("test.W", "p2", 2)))
	t1, t2, t3 := h.thread("t1"), h.thread("t2"), h.thread("t3")
	lA, lB := h.lock("A"), h.lock("B")
	p1, p2 := h.pos("W", "p1", 1), h.pos("W", "p2", 2)

	h.acquire(t3, lA, p1)
	h.release(t3, lA)
	if st := h.c.Stats(); st.Releases != 1 || st.FastReleases != 0 || st.Yields != 0 {
		t.Fatalf("release at an armed position with nothing yielding: %d releases, %d fast, %d yields; want 1, 0, 0",
			st.Releases, st.FastReleases, st.Yields)
	}
	if p1.occupants() != 0 {
		t.Fatalf("p1 holds %d entries after the release, want 0", p1.occupants())
	}

	h.acquire(t1, lA, p1)
	done := make(chan error, 1)
	go func() { done <- h.c.Request(t2, lB, p2) }()
	awaitEvent(t, h.c, EventYield)
	select {
	case err := <-done:
		t.Fatalf("t2 proceeded while the instantiation stood (err=%v)", err)
	default:
	}

	h.release(t1, lA)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("t2 resume: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("t1's release did not wake the yielding t2")
	}
	h.c.Acquired(t2, lB)
	h.release(t2, lB)

	st := h.c.Stats()
	if st.Yields != 1 || st.Resumes != 1 || st.ForcedResumes != 0 {
		t.Errorf("yields %d, resumes %d, forced %d; want 1, 1, 0 (one suspension, one wake-up)",
			st.Yields, st.Resumes, st.ForcedResumes)
	}
	if st.InstantiationsFound != 1 {
		t.Errorf("InstantiationsFound = %d, want 1 (t2's re-check after the wake-up must find none)", st.InstantiationsFound)
	}
}

// awaitEvent blocks until the core emits an event of the given kind.
func awaitEvent(t *testing.T, c *Core, kind EventKind) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("core closed before a %s event", kind)
			}
			if ev.Kind == kind {
				return
			}
		case <-timeout:
			t.Fatalf("no %s event", kind)
		}
	}
}
