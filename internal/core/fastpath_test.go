package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Fast-path correctness: the sharded engine may skip detection-and-
// avoidance only when doing so is provably equivalent to the serial
// reference engine. These tests pin the conditions down.

// TestFastPathConditions table-drives the situations in which enterFast
// must (or must never) take the fast path. Every row probes enterFast
// first: it must call tryLock exactly when its conditions hold, publish
// t's hold edge exactly when tryLock then wins (with a queue entry at an
// armed position, counted as Request would count it), and otherwise
// change nothing, so that the Request probed next on the same state
// decides as if enterFast had never run. The probe's tryLock is the CAS
// on the lock's word, which loses to a holder: enterFast itself does not
// read the word. Request itself never takes a shared section.
func TestFastPathConditions(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
		// prepare arms the core and returns the (thread, lock, position)
		// for the probes.
		prepare func(t *testing.T, h *harness) (*Node, *Node, *Position)
		// loses makes the enterFast probe's tryLock fail, as a monitor CAS
		// does when another thread took the real lock first. A lock
		// another thread holds makes it fail too.
		loses bool
		// wantFast is whether enterFast's conditions hold, so that it
		// calls tryLock.
		wantFast bool
		// armed is whether the position is armed with no signature
		// exposed: the enter is approved under the shared lock as a
		// request, not a fast request, and takes a queue entry.
		armed bool
		// wantErr is the Request probe's error.
		wantErr error
	}{
		{
			name: "unnamed position, unowned lock",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				return h.thread("t"), h.lock("l"), h.pos("Free", "m", 1)
			},
			wantFast: true,
		},
		{
			name: "tryLock loses",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				return h.thread("t"), h.lock("l"), h.pos("Free", "m", 1)
			},
			loses:    true,
			wantFast: true,
		},
		{
			// Installed while p's queue is empty, the signature watches
			// its slot at p: exposed there.
			name: "position named by a deadlock signature",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				p := h.pos("Armed", "m", 1)
				mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Armed", "m", 1), fr("test.Cold", "x", 9)))
				return h.thread("t"), h.lock("l"), p
			},
			wantFast: false,
		},
		{
			// One exclusive enter at p moves the watch to the cold slot.
			name: "armed position, nothing exposed",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				p := h.pos("Armed", "m", 1)
				mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Armed", "m", 1), fr("test.Cold", "x", 9)))
				th, l := h.thread("t"), h.lock("l")
				h.acquire(th, l, p)
				h.release(th, l)
				return th, l, p
			},
			wantFast: true,
			armed:    true,
		},
		{
			name: "position named by a starvation signature",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				p := h.pos("Starved", "m", 1)
				h.arm("Starved", "m", 1)
				return h.thread("t"), h.lock("l"), p
			},
			wantFast: true,
			armed:    true,
		},
		{
			// The core does not read the holder's edge: tryLock is
			// called once and loses, and nothing is published.
			name: "contended lock",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				holder := h.thread("holder")
				l := h.lock("l")
				h.acquire(holder, l, h.pos("Other", "m", 7))
				return h.thread("t"), l, h.pos("Free", "m", 1)
			},
			wantFast: true,
		},
		{
			name: "a thread is yielding",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				// a holds at Y1, so b's request at Y2 instantiates {Y1, Y2}
				// and b yields until Close wakes it.
				mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Y", "m", 1), fr("test.Y", "m", 2)))
				a, b, lb, y2 := h.thread("a"), h.thread("b"), h.lock("lb"), h.pos("Y", "m", 2)
				h.acquire(a, h.lock("la"), h.pos("Y", "m", 1))
				go func() { _ = h.c.Request(b, lb, y2) }()
				waitUntil(t, "b yields", func() bool { return h.c.yielderCount.Load() == 1 })
				return h.thread("t"), h.lock("l"), h.pos("Free", "m", 1)
			},
			wantFast: false,
		},
		{
			name: "core closed",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				th, l, p := h.thread("t"), h.lock("l"), h.pos("Free", "m", 1)
				_ = h.c.Close()
				return th, l, p
			},
			wantFast: false,
			wantErr:  ErrCoreClosed,
		},
		{
			name: "serial engine always slow",
			opts: []Option{WithSerialEngine(true)},
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				return h.thread("t"), h.lock("l"), h.pos("Free", "m", 1)
			},
			wantFast: false,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.opts...)
			th, l, pos := tc.prepare(t, h)

			// enterFast probe.
			before, owner := h.c.Stats(), wordOf(l).Holder()
			tries := 0
			entered := h.c.enterFast(th, l, pos, func() bool { tries++; return !tc.loses && tryLock(th, l)() })
			wantTries := 0
			if tc.wantFast {
				wantTries = 1
			}
			if tries != wantTries {
				t.Errorf("enterFast called tryLock %d times, want %d", tries, wantTries)
			}
			if want := tc.wantFast && !tc.loses && owner == nil; entered != want {
				t.Fatalf("enterFast = %v, want %v", entered, want)
			}
			if entered {
				after := h.c.Stats()
				if l.holder() != th || l.acqPos != pos || (l.acqEntry != nil) != tc.armed || th.reqLock != nil {
					t.Errorf("hold edge: owner %v, acquired at pos %v, entry %v, request %v; want %v at pos, an entry %v, no request",
						l.holder(), l.acqPos == pos, l.acqEntry, th.reqLock, th, tc.armed)
				}
				if tc.armed && (pos.occupants() != 1 || pos.queue.head.thread != th) {
					t.Errorf("armed enter: %d queue entries, want t's one", pos.occupants())
				}
				fast, checks := uint64(1), uint64(0)
				if tc.armed {
					fast, checks = 0, uint64(pos.candidates)
				}
				if after.FastRequests != before.FastRequests+fast || after.FastAcquisitions != before.FastAcquisitions+1 ||
					after.Requests != before.Requests+1 || after.Acquisitions != before.Acquisitions+1 ||
					after.AvoidanceChecks != before.AvoidanceChecks+checks {
					t.Errorf("enterFast counted %+v over %+v; want one request (%d fast) checking %d signatures and one fast acquisition",
						after, before, fast, checks)
				}
				h.release(th, l)
				if st := h.c.Stats(); st.FastReleases != before.FastReleases+1 || l.holder() != nil || pos.occupants() != 0 {
					t.Errorf("release after enterFast: %d fast releases (want %d), owner %v, %d queue entries",
						st.FastReleases, before.FastReleases+1, l.holder(), pos.occupants())
				}
			} else if after := h.c.Stats(); after != before || wordOf(l).Holder() != owner || th.reqLock != nil {
				t.Errorf("enterFast refused but published: owner %v (was %v), request %v, stats %+v (were %+v)",
					wordOf(l).Holder(), owner, th.reqLock, after, before)
			}

			// Request probe, on the state enterFast left.
			before = h.c.Stats()
			err := h.c.Request(th, l, pos)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Request: %v, want %v", err, tc.wantErr)
			}
			after := h.c.Stats()
			if after.FastRequests != before.FastRequests {
				t.Errorf("Request counted %d fast requests", after.FastRequests-before.FastRequests)
			}
			if after.Misuse != before.Misuse {
				t.Errorf("Request counted %d misuses", after.Misuse-before.Misuse)
			}
			if err == nil {
				h.c.abort(th)
			}
		})
	}
}

// TestSignatureInstallFlipsPositionToSlowPath: an armed position must stop
// taking unqueued enters the moment its signature installs, and the rebuilt
// queue must include acquisitions that happened while the position was
// still unarmed, through Request and Acquired or through enterFast. From
// then on every enter there is queued: under the shared lock while no
// signature is exposed at the position, on the exclusive path while one
// is (a signature installed over an empty queue watches it until the
// first exclusive enter moves the watch).
func TestSignatureInstallFlipsPositionToSlowPath(t *testing.T) {
	h := newHarness(t)
	t1, t2, t3 := h.thread("t1"), h.thread("t2"), h.thread("t3")
	l1, l2, l3 := h.lock("l1"), h.lock("l2"), h.lock("l3")
	p := h.pos("Hot", "m", 1)

	// Unarmed acquisitions; no queue entry is maintained.
	h.acquire(t1, l1, p)
	if !h.c.enterFast(t3, l3, p, tryLock(t3, l3)) {
		t.Fatal("enterFast refused an unarmed position and an unowned lock")
	}
	if st := h.c.Stats(); st.FastRequests != 1 {
		t.Fatalf("FastRequests = %d, want 1", st.FastRequests)
	}
	if p.occupants() != 0 {
		t.Fatalf("unnamed position has %d queue entries, want 0 (lazy queues)", p.occupants())
	}

	// Install a signature naming p: the queue must be rebuilt to include
	// both live holdings, and the signature watches its empty cold slot.
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Hot", "m", 1), fr("test.Cold", "x", 9)))
	if !p.InHistory() {
		t.Fatal("position not armed by installation")
	}
	if p.occupants() != 2 {
		t.Fatalf("rebuilt queue has %d entries, want 2 (t1 holds l1 and t3 holds l3 at p)", p.occupants())
	}
	if p.exposed.Load() != 0 {
		t.Fatalf("exposed(p) = %d, want 0: the signature's cold slot is empty", p.exposed.Load())
	}

	// enterFast takes p as an armed enter now: queued, and counted as a
	// request, not a fast one.
	if !h.c.enterFast(t2, l2, p, tryLock(t2, l2)) {
		t.Fatal("enterFast refused an armed position where nothing is exposed")
	}
	if st := h.c.Stats(); st.FastRequests != 1 || st.Requests != 3 || p.occupants() != 3 || l2.acqEntry == nil {
		t.Fatalf("armed enter: %d fast of %d requests, %d queue entries, entry %v; want 1 of 3, 3, an entry",
			st.FastRequests, st.Requests, p.occupants(), l2.acqEntry)
	}

	// Releases (nothing yields, so all shared) must drain the rebuilt
	// entries cleanly.
	h.release(t1, l1)
	h.release(t3, l3)
	h.release(t2, l2)
	if p.occupants() != 0 {
		t.Fatalf("queue has %d entries after releases, want 0", p.occupants())
	}
	if ms := h.c.MemStats(); ms.QueueEntriesLive != 0 {
		t.Errorf("live entries = %d, want 0", ms.QueueEntriesLive)
	}

	// A signature installed over p's empty queue watches p, so enters there
	// go exclusive until one moves the watch to the signature's own cold
	// slot.
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Hot", "m", 1), fr("test.Cold", "x", 10)))
	if p.exposed.Load() != 1 {
		t.Fatalf("exposed(p) = %d after an install over its empty queue, want 1", p.exposed.Load())
	}
	if h.c.enterFast(t2, l2, p, tryLock(t2, l2)) {
		t.Fatal("enterFast took a position where a signature is exposed")
	}
	h.acquire(t2, l2, p)
	h.release(t2, l2)
	if p.exposed.Load() != 0 {
		t.Fatalf("exposed(p) = %d after an exclusive enter, want 0", p.exposed.Load())
	}
	if !h.c.enterFast(t2, l2, p, tryLock(t2, l2)) {
		t.Fatal("enterFast refused p after its watch moved")
	}
	h.release(t2, l2)
	if v := engineViolation(h.c); v != "" {
		t.Error(v)
	}
}

// TestFastReleaseConditions table-drives Release's choice of path: an
// owner's release is shared while nothing yields, armed position or not,
// and exclusive when a thread yields (it may need waking), on the serial
// engine, and for a release by a non-owner. Each row's Release is followed
// by the runtime's release store, which only the holder makes.
func TestFastReleaseConditions(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
		// prepare returns a lock, its releasing thread, and the position
		// it was acquired at, held.
		prepare  func(t *testing.T, h *harness) (*Node, *Node, *Position)
		wantFast bool
	}{
		{
			name: "unarmed position",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				th, l, p := h.thread("t"), h.lock("l"), h.pos("Free", "m", 1)
				h.acquire(th, l, p)
				return th, l, p
			},
			wantFast: true,
		},
		{
			name: "armed position, nothing yields",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Armed", "m", 1), fr("test.Cold", "x", 9)))
				th, l, p := h.thread("t"), h.lock("l"), h.pos("Armed", "m", 1)
				h.acquire(th, l, p)
				return th, l, p
			},
			wantFast: true,
		},
		{
			name: "armed position, a thread is yielding",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				// a holds at Y1, so b's request at Y2 instantiates {Y1, Y2}
				// and b yields until a's release wakes it.
				mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Y", "m", 1), fr("test.Y", "m", 2)))
				a, b, la, lb := h.thread("a"), h.thread("b"), h.lock("la"), h.lock("lb")
				y1 := h.pos("Y", "m", 1)
				h.acquire(a, la, y1)
				done := make(chan error, 1)
				go func() { done <- h.c.Request(b, lb, h.pos("Y", "m", 2)) }()
				waitUntil(t, "b yields", func() bool { return h.c.yielderCount.Load() == 1 })
				t.Cleanup(func() {
					select {
					case err := <-done:
						if err != nil {
							t.Errorf("b: %v", err)
						}
					case <-time.After(5 * time.Second):
						t.Error("a's release did not wake the yielding b")
					}
				})
				return a, la, y1
			},
			wantFast: false,
		},
		{
			name: "serial engine",
			opts: []Option{WithSerialEngine(true)},
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				th, l, p := h.thread("t"), h.lock("l"), h.pos("Free", "m", 1)
				h.acquire(th, l, p)
				return th, l, p
			},
			wantFast: false,
		},
		{
			name: "not the owner",
			prepare: func(t *testing.T, h *harness) (*Node, *Node, *Position) {
				l, p := h.lock("l"), h.pos("Free", "m", 1)
				h.acquire(h.thread("owner"), l, p)
				return h.thread("t"), l, p
			},
			wantFast: false,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.opts...)
			th, l, pos := tc.prepare(t, h)
			before := h.c.Stats()
			h.c.Release(th, l)
			unlockWord(th, l)
			after := h.c.Stats()
			fast := after.FastReleases - before.FastReleases
			if after.Releases != before.Releases+1 || (fast == 1) != tc.wantFast || fast > 1 {
				t.Errorf("release: %d releases, %d fast; want 1, shared %v", after.Releases-before.Releases, fast, tc.wantFast)
			}
			if l.acqPos != nil || pos.occupants() != 0 {
				t.Errorf("after the release: acquired at %v, %d queue entries; want none", l.acqPos, pos.occupants())
			}
		})
	}
}

// TestFastReleaseClearsTheEdgeInTheSection: a shared release clears the
// hold's acquisition position before its section ends, and the runtime's
// release store comes after the section. A signature installed in
// between must therefore attach no queue entry to the departing hold,
// though the word still names its holder. The release runs on another
// goroutine, ordered with this one only through the engine lock, and this
// one reads the position under the exclusive lock until the release's
// section has ended; under -race a position cleared after RUnlock is a
// reported race on every run.
func TestFastReleaseClearsTheEdgeInTheSection(t *testing.T) {
	h := newHarness(t)
	th, l, p := h.thread("t"), h.lock("l"), h.pos("Free", "m", 1)
	if !h.c.enterFast(th, l, p, tryLock(th, l)) {
		t.Fatal("enterFast refused an uncontended enter")
	}
	go h.c.Release(th, l)
	for {
		h.c.mu.Lock()
		ended := l.acqPos == nil
		h.c.mu.Unlock()
		if ended {
			break
		}
		runtime.Gosched()
	}
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Free", "m", 1), fr("test.Cold", "x", 9)))
	if wordOf(l).Holder() != th || p.occupants() != 0 || l.acqEntry != nil {
		t.Errorf("install between the release's section and its store: word %v, %d queue entries, entry %v; want t's word, none, none",
			wordOf(l).Holder(), p.occupants(), l.acqEntry)
	}
	unlockWord(th, l)
	if st := h.c.Stats(); st.FastReleases != 1 || st.Releases != 1 {
		t.Errorf("%d releases (%d fast), want 1 (1)", st.Releases, st.FastReleases)
	}
}

// TestArmedEnterAndExitShareTheEngineLock: an uncontended enter at an armed
// position where nothing is exposed, and its exit, take the engine lock
// only shared, so both complete while another reader holds it. Either one
// taking the exclusive lock would wait for that reader.
func TestArmedEnterAndExitShareTheEngineLock(t *testing.T) {
	h := newHarness(t)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Armed", "m", 1), fr("test.Cold", "x", 9)))
	th, l, p := h.thread("t"), h.lock("l"), h.pos("Armed", "m", 1)
	h.acquire(th, l, p) // moves the watch off p
	h.release(th, l)

	h.c.mu.RLock()
	done := make(chan bool, 1)
	go func() {
		entered := h.c.enterFast(th, l, p, tryLock(th, l))
		if entered {
			exitLock(h.c, th, l)
		}
		done <- entered
	}()
	select {
	case entered := <-done:
		h.c.mu.RUnlock()
		if !entered {
			t.Fatal("enterFast refused an uncontended armed enter where nothing is exposed")
		}
	case <-time.After(5 * time.Second):
		h.c.mu.RUnlock()
		<-done
		t.Fatal("an uncontended armed enter and exit waited for a reader of the engine lock: one of them went exclusive")
	}
	st := h.c.Stats()
	if st.Requests != 2 || st.FastRequests != 0 || st.FastAcquisitions != 2 || st.FastReleases != 2 || p.occupants() != 0 {
		t.Errorf("%d requests (%d fast), %d fast acquisitions, %d fast releases, %d queue entries; want 2 (0), 2, 2, 0",
			st.Requests, st.FastRequests, st.FastAcquisitions, st.FastReleases, p.occupants())
	}
}

// TestQueueRebuildIncludesInFlightRequests: an approved-but-not-acquired
// request at an unarmed position must appear in the rebuilt queue too.
func TestQueueRebuildIncludesInFlightRequests(t *testing.T) {
	h := newHarness(t)
	t1 := h.thread("t1")
	l1 := h.lock("l1")
	p := h.pos("Hot", "m", 1)

	if err := h.c.Request(t1, l1, p); err != nil {
		t.Fatal(err)
	}
	if t1.reqEntry != nil {
		t.Fatal("an approval at an unarmed position must not take a queue entry")
	}
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.Hot", "m", 1), fr("test.Cold", "x", 9)))
	if t1.reqEntry == nil {
		t.Fatal("rebuild must attach an entry to the in-flight request")
	}
	if p.occupants() != 1 {
		t.Fatalf("rebuilt queue has %d entries, want 1", p.occupants())
	}
	// The entry must flow through Acquired/Release like a slow-path one.
	h.take(t1, l1)
	h.c.Acquired(t1, l1)
	if l1.acqEntry == nil {
		t.Fatal("entry must transfer to the lock on Acquired")
	}
	h.release(t1, l1)
	if p.occupants() != 0 {
		t.Errorf("queue has %d entries after release, want 0", p.occupants())
	}
}

// engineScript is a deterministic single-goroutine schedule replayed on
// both engines; every step must succeed, with identical outcomes.
type engineStep struct {
	op     string // "acquire", "release", "request", "abort", "addsig"
	thread int
	lock   int
	pos    int
	sig    *Signature
}

// runEngineScript replays a script and returns the final stats. An
// "acquire" is a monitorenter as the VM drives it: Enter, whose tryLock and
// acquire are the CAS on the lock's word (which must win), so it takes
// the shared section where it can (never on the serial engine) and
// Request, the CAS and Acquired otherwise. A "release" is Exit with the
// word's release store.
func runEngineScript(t *testing.T, serial bool, steps []engineStep) Stats {
	t.Helper()
	h := newHarness(t, WithSerialEngine(serial))
	threads := map[int]*Node{}
	locks := map[int]*Node{}
	positions := map[int]*Position{}
	node := func(i int) *Node {
		if threads[i] == nil {
			threads[i] = h.thread(fmt.Sprintf("t%d", i))
		}
		return threads[i]
	}
	lock := func(i int) *Node {
		if locks[i] == nil {
			locks[i] = h.lock(fmt.Sprintf("l%d", i))
		}
		return locks[i]
	}
	pos := func(i int) *Position {
		if positions[i] == nil {
			positions[i] = h.pos("Eq", "m", i)
		}
		return positions[i]
	}
	for si, st := range steps {
		var err error
		switch st.op {
		case "request":
			err = h.c.Request(node(st.thread), lock(st.lock), pos(st.pos))
		case "acquire":
			th, l := node(st.thread), lock(st.lock)
			err = h.c.Enter(th, l, pos(st.pos), tryLock(th, l), func() error { h.take(th, l); return nil }, func(bool) {})
		case "release":
			h.release(node(st.thread), lock(st.lock))
		case "abort":
			h.c.abort(node(st.thread))
		case "addsig":
			_, _, err = h.c.AddSignature(st.sig)
		default:
			t.Fatalf("step %d: unknown op %q", si, st.op)
		}
		if err != nil {
			t.Fatalf("step %d (%s): unexpected error %v (serial=%v)", si, st.op, err, serial)
		}
	}
	return h.c.Stats()
}

// TestEngineEquivalence replays deterministic schedules — including a real
// deadlock and suppressed-yield traffic — on the serial reference engine
// and the sharded engine, and requires identical avoidance and detection
// decisions. Both engines share findInstantiationLocked and with it the
// watched-slot index, so agreeing is not enough to show the index
// right: every script also states how many instantiations avoidance must
// find and how many deadlocks detection must record, and both engines must
// count exactly that many.
func TestEngineEquivalence(t *testing.T) {
	eq := func(line int) Frame { return fr("test.Eq", "m", line) }
	// suppressed arms a deadlock signature over the given positions
	// together with a starvation signature over the same ones, which
	// suppresses every yield the deadlock signature would force: the
	// instantiation is found and counted, and the single-goroutine script
	// cannot hang.
	suppressed := func(lines ...int) []engineStep {
		frames := make([]Frame, len(lines))
		for i, l := range lines {
			frames[i] = eq(l)
		}
		return []engineStep{
			{op: "addsig", sig: sigOf(DeadlockSig, frames...)},
			{op: "addsig", sig: sigOf(StarvationSig, frames...)},
		}
	}
	scripts := map[string]struct {
		steps []engineStep
		// instantiations is how many signature instantiations avoidance
		// must find over the whole script (each one a suppressed yield).
		instantiations uint64
		// deadlocks is how many deadlocks detection must record.
		deadlocks uint64
	}{
		"ordered no deadlock": {steps: []engineStep{
			{op: "acquire", thread: 1, lock: 1, pos: 1},
			{op: "acquire", thread: 1, lock: 2, pos: 2},
			{op: "release", thread: 1, lock: 2},
			{op: "release", thread: 1, lock: 1},
			{op: "acquire", thread: 2, lock: 1, pos: 1},
			{op: "release", thread: 2, lock: 1},
		}},
		"real deadlock detected": {deadlocks: 1, steps: []engineStep{
			{op: "acquire", thread: 1, lock: 1, pos: 1},
			{op: "acquire", thread: 2, lock: 2, pos: 2},
			{op: "request", thread: 1, lock: 2, pos: 3},
			// t2 requesting l1 completes the cycle: the signature is
			// recorded and the request approved, so the deadlock would
			// manifest; both threads give up instead.
			{op: "request", thread: 2, lock: 1, pos: 4},
			{op: "abort", thread: 2, lock: 1},
			{op: "abort", thread: 1, lock: 2},
			{op: "release", thread: 2, lock: 2},
			{op: "release", thread: 1, lock: 1},
		}},
		"armed but never instantiable": {steps: []engineStep{
			{op: "addsig", sig: sigOf(DeadlockSig, eq(1), fr("test.Never", "x", 1))},
			{op: "acquire", thread: 1, lock: 1, pos: 1},
			{op: "acquire", thread: 2, lock: 2, pos: 1},
			{op: "release", thread: 2, lock: 2},
			{op: "release", thread: 1, lock: 1},
			{op: "acquire", thread: 1, lock: 1, pos: 2},
			{op: "release", thread: 1, lock: 1},
		}},
		"suppressed yield proceeds": {instantiations: 1, steps: append(suppressed(1, 2),
			engineStep{op: "acquire", thread: 1, lock: 1, pos: 1},
			// t2's request at p2 makes sig{p1,p2} instantiable; the
			// starvation signature suppresses the yield and it proceeds.
			engineStep{op: "acquire", thread: 2, lock: 2, pos: 2},
			engineStep{op: "release", thread: 2, lock: 2},
			engineStep{op: "release", thread: 1, lock: 1},
		)},
		// Signature [p, p] needs two distinct threads at p: the requester
		// and one other occupant.
		"same position twice, no occupant": {steps: append(suppressed(1, 1),
			engineStep{op: "acquire", thread: 1, lock: 1, pos: 1},
			engineStep{op: "release", thread: 1, lock: 1},
		)},
		"same position twice, requester is the only occupant": {steps: append(suppressed(1, 1),
			// p's queue is not empty, so the signature watches no slot
			// and the index passes it on; the matcher must still refuse
			// to let t1 fill both slots.
			engineStep{op: "acquire", thread: 1, lock: 1, pos: 1},
			engineStep{op: "acquire", thread: 1, lock: 2, pos: 1},
			engineStep{op: "release", thread: 1, lock: 2},
			engineStep{op: "release", thread: 1, lock: 1},
		)},
		"same position twice, one other occupant": {instantiations: 1, steps: append(suppressed(1, 1),
			engineStep{op: "acquire", thread: 1, lock: 1, pos: 1},
			engineStep{op: "acquire", thread: 2, lock: 2, pos: 1},
			engineStep{op: "release", thread: 2, lock: 2},
			engineStep{op: "release", thread: 1, lock: 1},
		)},
		"same position twice, two other occupants": {instantiations: 2, steps: append(suppressed(1, 1),
			engineStep{op: "acquire", thread: 1, lock: 1, pos: 1},
			engineStep{op: "acquire", thread: 2, lock: 2, pos: 1}, // with t1
			engineStep{op: "acquire", thread: 3, lock: 3, pos: 1}, // with t1 or t2
			engineStep{op: "release", thread: 3, lock: 3},
			engineStep{op: "release", thread: 2, lock: 2},
			engineStep{op: "release", thread: 1, lock: 1},
		)},
		"three slots, one stays empty until the end": {instantiations: 1, steps: append(suppressed(1, 2, 3),
			// p3 is empty: neither t1 at p1 nor t2 at p2 can complete it.
			engineStep{op: "acquire", thread: 1, lock: 1, pos: 1},
			engineStep{op: "acquire", thread: 2, lock: 2, pos: 2},
			// A second thread at an occupied slot changes nothing.
			engineStep{op: "acquire", thread: 4, lock: 4, pos: 2},
			engineStep{op: "release", thread: 4, lock: 4},
			// t3 at p3 fills the last slot.
			engineStep{op: "acquire", thread: 3, lock: 3, pos: 3},
			engineStep{op: "release", thread: 3, lock: 3},
			engineStep{op: "release", thread: 2, lock: 2},
			engineStep{op: "release", thread: 1, lock: 1},
		)},
		// Sulzmann's multi-thread critical section: the occupancy one
		// thread's request observes was established, and is later
		// dissolved, by another thread.
		"occupancy set by one thread, seen by another": {instantiations: 2, steps: append(suppressed(1, 2),
			engineStep{op: "acquire", thread: 1, lock: 1, pos: 1},
			engineStep{op: "acquire", thread: 2, lock: 2, pos: 2}, // sees t1 at p1
			engineStep{op: "release", thread: 2, lock: 2},
			engineStep{op: "release", thread: 1, lock: 1},         // t1 leaves p1
			engineStep{op: "acquire", thread: 2, lock: 2, pos: 2}, // p1 now empty
			// t3 re-establishes p1 while t2 holds at p2: the instantiation
			// is found from the other side.
			engineStep{op: "acquire", thread: 3, lock: 1, pos: 1},
			engineStep{op: "release", thread: 3, lock: 1},
			engineStep{op: "release", thread: 2, lock: 2},
			// An approved request that is aborted leaves its slot too.
			engineStep{op: "request", thread: 1, lock: 1, pos: 1},
			engineStep{op: "abort", thread: 1, lock: 1},
			engineStep{op: "acquire", thread: 2, lock: 2, pos: 2},
			engineStep{op: "release", thread: 2, lock: 2},
		)},
		"signature added while a lock taken at its position is held": {instantiations: 1, steps: append(
			// On the sharded engine t1's acquisition is fast-path and
			// leaves no queue entry; installation rebuilds p1's queue from
			// the RAG, and the watch must be chosen over the rebuilt queue.
			[]engineStep{{op: "acquire", thread: 1, lock: 1, pos: 1}},
			append(suppressed(1, 2),
				engineStep{op: "acquire", thread: 2, lock: 2, pos: 2},
				engineStep{op: "release", thread: 2, lock: 2},
				engineStep{op: "release", thread: 1, lock: 1},
				engineStep{op: "acquire", thread: 2, lock: 2, pos: 2},
				engineStep{op: "release", thread: 2, lock: 2},
			)...,
		)},
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			serial := runEngineScript(t, true, script.steps)
			sharded := runEngineScript(t, false, script.steps)

			// The serial engine must never fast-path; the sharded engine
			// must agree with it on every decision-relevant counter.
			if serial.FastRequests != 0 {
				t.Errorf("serial engine took %d fast requests", serial.FastRequests)
			}
			type decision struct {
				requests, acquisitions, releases, aborts uint64
				deadlocks, duplicates                    uint64
				yields, suppressed, starvations          uint64
				instantiations                           uint64
				misuse                                   uint64
			}
			d := func(s Stats) decision {
				return decision{
					requests: s.Requests, acquisitions: s.Acquisitions,
					releases: s.Releases, aborts: s.Aborts,
					deadlocks: s.DeadlocksDetected, duplicates: s.DuplicateDeadlocks,
					yields: s.Yields, suppressed: s.SuppressedYields,
					starvations: s.Starvations, instantiations: s.InstantiationsFound,
					misuse: s.Misuse,
				}
			}
			if d(serial) != d(sharded) {
				t.Errorf("engines disagree:\nserial : %+v\nsharded: %+v", d(serial), d(sharded))
			}
			if serial.DeadlocksDetected != script.deadlocks {
				t.Errorf("detection recorded %d deadlocks, want %d", serial.DeadlocksDetected, script.deadlocks)
			}
			if serial.InstantiationsFound != script.instantiations || serial.SuppressedYields != script.instantiations {
				t.Errorf("avoidance found %d instantiations and suppressed %d yields, want %d of each",
					serial.InstantiationsFound, serial.SuppressedYields, script.instantiations)
			}
			if serial.Yields != 0 || serial.Misuse != 0 {
				t.Errorf("%d yields and %d misuses in a single-goroutine script", serial.Yields, serial.Misuse)
			}
		})
	}
}
