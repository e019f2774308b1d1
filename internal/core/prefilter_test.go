package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The slow path's two shortcuts — the watched-slot index in front of the
// signature matcher and the yielder gate in front of the wake-ups — must
// never change what avoidance decides.

// prefilterBaseSeed numbers the generated cases of
// TestPrefilterNeverHidesAMatch: case i is a pure function of
// prefilterBaseSeed+i, and a failure names the seed to replay with
// checkPrefilterCase.
const prefilterBaseSeed = 20110627

// prefilterOutcome is what one generated case exercised.
type prefilterOutcome struct {
	skippedAll  bool // no signature was exposed at the requested position
	skipped     int  // signatures skipped for a watched empty slot elsewhere
	matched     bool // the matcher found an instantiation
	rejected    int  // exposed signatures the matcher still rejected
	repeatedPos bool // a signature names one position more than once
	moved       bool // a signature's watch moved after its install
}

// checkPrefilterCase builds the world seed determines — signatures
// installed between queue entries taken and returned through
// takeEntryLocked and releaseEntryLocked, so that watches move — and a
// pretended request, and checks the index's contract on it: a signature
// it skips, and a position where it skips the walk, are ones the matcher
// cannot instantiate. The index must then still equal a recount, also
// after findInstantiationLocked's lazy re-watching.
func checkPrefilterCase(t *testing.T, seed int64) prefilterOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A small world, so that empty queues, shared threads and repeated
	// positions are all common: 2–4 positions, 1–4 threads, 1–3
	// signatures of 2–4 slots, and up to three entries per position (one
	// thread may hold several locks acquired at one position, and locks at
	// several positions).
	positions := make([]*Position, 2+rng.Intn(3))
	for i := range positions {
		positions[i] = c.positions.intern(CallStack{uniqueFrame(i)})
	}
	threads := make([]*Node, 1+rng.Intn(4))
	for i := range threads {
		threads[i] = c.NewThreadNode(fmt.Sprintf("t%d", i), nil)
	}
	out := prefilterOutcome{}
	c.mu.Lock()
	defer c.mu.Unlock()
	type live struct {
		p *Position
		e *entry
	}
	var entries []live
	var sigs []*Signature
	installedWatch := map[*Signature]*Position{}
	for n := 1 + rng.Intn(3); n > 0 || rng.Intn(3) != 0; {
		switch k := rng.Intn(4); {
		case k == 0 && n > 0:
			frames := make([]Frame, 2+rng.Intn(3))
			for i := range frames {
				frames[i] = uniqueFrame(rng.Intn(len(positions)))
			}
			sig, fresh, err := c.installSignatureLocked(sigOf(DeadlockSig, frames...), false)
			if err != nil {
				t.Fatal(err)
			}
			n--
			if !fresh {
				continue
			}
			sigs = append(sigs, sig)
			installedWatch[sig] = nil
			if sig.watch >= 0 {
				installedWatch[sig] = sig.slots[sig.watch]
			}
		case k == 1 && len(entries) > 0:
			i := rng.Intn(len(entries))
			c.releaseEntryLocked(entries[i].p, entries[i].e)
			entries = append(entries[:i], entries[i+1:]...)
		default:
			if p := positions[rng.Intn(len(positions))]; p.queue.len() < 3 {
				entries = append(entries, live{p, c.takeEntryLocked(p, threads[rng.Intn(len(threads))])})
			}
		}
	}
	if len(sigs) == 0 {
		return out
	}
	for _, sig := range sigs {
		for i, p := range sig.slots {
			for _, earlier := range sig.slots[:i] {
				out.repeatedPos = out.repeatedPos || earlier == p
			}
		}
		w := installedWatch[sig]
		out.moved = out.moved || (sig.watch >= 0) != (w != nil) || (w != nil && sig.slots[sig.watch] != w)
	}
	// The requester is one of the threads (it may already sit in a queue)
	// and requests at a position a signature names, as avoidance only
	// examines signatures containing the requested position.
	requester := threads[rng.Intn(len(threads))]
	some := sigs[rng.Intn(len(sigs))]
	pos := some.slots[rng.Intn(len(some.slots))]
	if v := indexViolationsLocked(c); len(v) > 0 {
		t.Fatalf("seed %d: index differs from a recount before the check: %v", seed, v)
	}

	out.skippedAll = pos.exposed.Load() == 0
	var anyMatch bool
	for _, sig := range pos.sigs {
		matched := c.matchSignatureLocked(sig, requester, pos) != nil
		anyMatch = anyMatch || matched
		switch {
		case sig.watchesElsewhere(pos):
			out.skipped++
			if matched {
				t.Errorf("seed %d: the index skips a signature the matcher instantiates (it watches %s, request at %s)",
					seed, sig.slots[sig.watch].key, pos.key)
			}
		case !matched:
			out.rejected++
		}
	}
	out.matched = anyMatch
	if out.skippedAll && anyMatch {
		t.Errorf("seed %d: no signature exposed at %s, yet one is instantiable", seed, pos.key)
	}
	if found, _ := c.findInstantiationLocked(requester, pos); (found != nil) != anyMatch {
		t.Errorf("seed %d: findInstantiationLocked found %v, the matcher over every signature %v", seed, found != nil, anyMatch)
	}
	if v := indexViolationsLocked(c); len(v) > 0 {
		t.Errorf("seed %d: index differs from a recount after the check: %v", seed, v)
	}
	return out
}

// TestPrefilterNeverHidesAMatch is the differential test of the
// watched-slot index against the backtracking matcher over generated
// queue histories and 2–4-slot signatures, repeated positions included.
func TestPrefilterNeverHidesAMatch(t *testing.T) {
	const cases = 5000
	counts := map[string]int{}
	for i := int64(0); i < cases; i++ {
		out := checkPrefilterCase(t, prefilterBaseSeed+i)
		for what, hit := range map[string]bool{
			"no signature exposed, walk skipped":      out.skippedAll,
			"a signature skipped for its watch":       out.skipped > 0,
			"matched":                                 out.matched,
			"exposed, then rejected by the matcher":   out.rejected > 0,
			"a watch moved after its install":         out.moved,
			"repeated position, skipped by its watch": out.repeatedPos && out.skipped > 0,
			"repeated position, matched":              out.repeatedPos && out.matched,
		} {
			if hit {
				counts[what]++
			}
		}
	}
	// The generator must reach every corner the argument has: positions
	// where nothing is exposed, signatures the index skips, ones it passes
	// on that match, ones it passes on that the matcher still rejects
	// (necessary, not sufficient), watches that moved, and
	// repeated-position signatures on both sides.
	for _, what := range []string{
		"no signature exposed, walk skipped", "a signature skipped for its watch", "matched",
		"exposed, then rejected by the matcher", "a watch moved after its install",
		"repeated position, skipped by its watch", "repeated position, matched",
	} {
		if n := counts[what]; n < cases/100 {
			t.Errorf("only %d of %d generated cases were %q: the generator no longer covers it", n, cases, what)
		}
	}
}

// TestWakeGatedOnYielders walks the yielder gate through both of its
// states over signature {p1, p2}. T3 acquires and releases at p1 while
// nothing yields: the release skips the wake-ups, under the shared lock.
// Then T1 holds at p1, T2's request at p2 yields, and T1's release —
// which now finds a yielder — must go exclusive and wake T2, exactly
// once.
func TestWakeGatedOnYielders(t *testing.T) {
	h := newHarness(t)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.W", "p1", 1), fr("test.W", "p2", 2)))
	t1, t2, t3 := h.thread("t1"), h.thread("t2"), h.thread("t3")
	lA, lB := h.lock("A"), h.lock("B")
	p1, p2 := h.pos("W", "p1", 1), h.pos("W", "p2", 2)

	h.acquire(t3, lA, p1)
	h.release(t3, lA)
	if st := h.c.Stats(); st.Releases != 1 || st.FastReleases != 1 || st.Yields != 0 {
		t.Fatalf("release at an armed position with nothing yielding: %d releases, %d fast, %d yields; want 1, 1, 0",
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
	h.take(t2, lB)
	h.c.Acquired(t2, lB)
	h.release(t2, lB)

	st := h.c.Stats()
	if st.FastReleases != 2 {
		t.Errorf("FastReleases = %d, want 2 (T3's and T2's): the release that found a yielder must go exclusive", st.FastReleases)
	}
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
