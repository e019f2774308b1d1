package core

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		opts []Option
		ok   bool
	}{
		{"defaults", nil, true},
		{"depth 0", []Option{WithOuterDepth(0)}, false},
		{"depth 3", []Option{WithOuterDepth(3)}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.opts...)
			if (err == nil) != tc.ok {
				t.Errorf("New error = %v, want ok=%v", err, tc.ok)
			}
			if c != nil {
				_ = c.Close()
			}
		})
	}
}

func TestBasicAcquireReleaseFlow(t *testing.T) {
	h := newHarness(t)
	t1 := h.thread("t1")
	l1 := h.lock("l1")
	p := h.pos("C", "m", 1)
	h.arm("C", "m", 1) // exercise the queue-maintaining slow path

	h.acquire(t1, l1, p)
	if l1.owner != t1 {
		t.Error("lock must record its owner after Acquired")
	}
	if l1.acqPos != p {
		t.Error("lock must record its acquisition position")
	}
	if t1.reqLock != nil || t1.reqEntry != nil {
		t.Error("request edge must clear after Acquired")
	}
	if p.occupants() != 1 {
		t.Errorf("position occupants = %d, want 1", p.occupants())
	}

	h.release(t1, l1)
	if l1.owner != nil || l1.acqPos != nil {
		t.Error("release must clear ownership")
	}
	if p.occupants() != 0 {
		t.Errorf("position occupants after release = %d, want 0", p.occupants())
	}

	st := h.c.Stats()
	if st.Requests != 1 || st.Acquisitions != 1 || st.Releases != 1 {
		t.Errorf("stats = %+v, want 1/1/1", st)
	}
	if st.Misuse != 0 {
		t.Errorf("misuse = %d, want 0", st.Misuse)
	}
}

func TestRequestArgValidation(t *testing.T) {
	h := newHarness(t)
	t1 := h.thread("t1")
	l1 := h.lock("l1")
	p := h.pos("C", "m", 1)
	if err := h.c.Request(nil, l1, p); err == nil {
		t.Error("nil thread must be rejected")
	}
	if err := h.c.Request(t1, nil, p); err == nil {
		t.Error("nil lock must be rejected")
	}
	if err := h.c.Request(t1, l1, nil); err == nil {
		t.Error("nil position must be rejected")
	}
	if err := h.c.Request(l1, t1, p); err == nil {
		t.Error("swapped node kinds must be rejected")
	}
}

func TestMisuseCounters(t *testing.T) {
	h := newHarness(t)
	t1 := h.thread("t1")
	l1, l2 := h.lock("l1"), h.lock("l2")
	p := h.pos("C", "m", 1)
	h.arm("C", "m", 1) // p keeps a queue: an entry left behind shows there

	// Release without acquire.
	h.c.Release(t1, l1)
	if st := h.c.Stats(); st.Misuse == 0 {
		t.Error("release of unheld lock must count as misuse")
	}

	// Acquired without Request.
	h.c.Acquired(t1, l1)
	if l1.owner != t1 {
		t.Error("Acquired must still record ownership for robustness")
	}
	h.c.Release(t1, l1)

	// A second Request before Acquired/Abort supersedes the first
	// approval, queue entry included.
	if err := h.c.Request(t1, l1, p); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Request(t1, l2, p); err != nil {
		t.Fatal(err)
	}
	if p.occupants() != 1 {
		t.Errorf("after a superseding Request p has %d occupants, want 1", p.occupants())
	}
	h.c.Acquired(t1, l2)
	h.c.Release(t1, l2)

	// Acquired on a lock other than the requested one drops the approval.
	if err := h.c.Request(t1, l1, p); err != nil {
		t.Fatal(err)
	}
	h.c.Acquired(t1, l2)
	h.c.Release(t1, l2)

	if st := h.c.Stats(); st.Misuse != 4 {
		t.Errorf("misuse = %d, want 4", st.Misuse)
	}
	// Every lock is released: no phantom occupant may stay in p's queue,
	// where signature matching would count it.
	if p.occupants() != 0 || t1.reqLock != nil {
		t.Errorf("after every release p has %d occupants and t1 requests %v, want 0 and none",
			p.occupants(), t1.reqLock)
	}
}

func TestAbortUndoesApproval(t *testing.T) {
	h := newHarness(t)
	t1 := h.thread("t1")
	l1 := h.lock("l1")
	p := h.pos("C", "m", 1)
	h.arm("C", "m", 1)

	if err := h.c.Request(t1, l1, p); err != nil {
		t.Fatal(err)
	}
	if p.occupants() != 1 {
		t.Fatal("approved request must occupy the position queue")
	}
	h.c.Abort(t1, l1)
	if p.occupants() != 0 {
		t.Error("abort must remove the queue entry")
	}
	if t1.reqLock != nil {
		t.Error("abort must clear the request edge")
	}
	if st := h.c.Stats(); st.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", st.Aborts)
	}
}

func TestCloseWakesYielders(t *testing.T) {
	h := newHarness(t)
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("test.C", "m", 1), fr("test.C", "m", 2)))

	t1, t2 := h.thread("t1"), h.thread("t2")
	lA, lB := h.lock("A"), h.lock("B")
	p1, p2 := h.pos("C", "m", 1), h.pos("C", "m", 2)

	h.acquire(t1, lA, p1)

	errCh := make(chan error, 1)
	go func() {
		errCh <- h.c.Request(t2, lB, p2) // must yield: instantiation possible
	}()
	waitUntil(t, "yield", func() bool { return h.c.Stats().Yields == 1 })

	if err := h.c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCoreClosed) {
			t.Errorf("yielder got %v, want ErrCoreClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("yielder not woken by Close")
	}
	// Close is idempotent.
	if err := h.c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Operations after close fail cleanly.
	if err := h.c.Request(t1, lB, p2); !errors.Is(err, ErrCoreClosed) {
		t.Errorf("Request after close = %v, want ErrCoreClosed", err)
	}
}

func TestHistoryLoadAtInit(t *testing.T) {
	store := NewMemHistory()
	if err := store.Append(sigOf(DeadlockSig, fr("test.C", "m", 1), fr("test.C", "m", 2))); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, WithStore(store))
	if h.c.HistorySize() != 1 {
		t.Fatalf("history size = %d, want 1", h.c.HistorySize())
	}
	if st := h.c.Stats(); st.SignaturesLoaded != 1 {
		t.Errorf("SignaturesLoaded = %d, want 1", st.SignaturesLoaded)
	}
	// Positions referenced by the loaded signature must be armed.
	p := h.pos("C", "m", 1)
	if !p.InHistory() {
		t.Error("loaded signature must mark its positions inHistory")
	}
}

func TestAddSignatureDeduplicates(t *testing.T) {
	h := newHarness(t)
	sig := sigOf(DeadlockSig, fr("a.B", "m", 1), fr("c.D", "n", 2))
	_, fresh, err := h.c.AddSignature(sig)
	if err != nil || !fresh {
		t.Fatalf("first add: fresh=%v err=%v", fresh, err)
	}
	// Same bug, pairs permuted: must deduplicate.
	perm := sigOf(DeadlockSig, fr("c.D", "n", 2), fr("a.B", "m", 1))
	_, fresh, err = h.c.AddSignature(perm)
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		t.Error("permuted duplicate must not install a second signature")
	}
	if h.c.HistorySize() != 1 {
		t.Errorf("history size = %d, want 1", h.c.HistorySize())
	}
}

func TestAddSignaturePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.hist")
	store := NewFileHistory(path)
	h := newHarness(t, WithStore(store))
	mustAdd(t, h.c, sigOf(DeadlockSig, fr("a.B", "m", 1), fr("c.D", "n", 2)))
	sigs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 1 {
		t.Errorf("store has %d sigs, want 1", len(sigs))
	}
}

func TestMemStatsAccounting(t *testing.T) {
	h := newHarness(t)
	t1 := h.thread("t1")
	l1 := h.lock("l1")
	p := h.pos("C", "m", 1)
	h.arm("C", "m", 1)
	h.acquire(t1, l1, p)

	ms := h.c.MemStats()
	if ms.Positions != 1 {
		t.Errorf("Positions = %d, want 1", ms.Positions)
	}
	if ms.Nodes != 2 {
		t.Errorf("Nodes = %d, want 2", ms.Nodes)
	}
	if ms.QueueEntriesLive != 1 {
		t.Errorf("QueueEntriesLive = %d, want 1", ms.QueueEntriesLive)
	}
	if ms.Bytes <= 0 {
		t.Error("footprint estimate must be positive")
	}

	h.release(t1, l1)
	ms = h.c.MemStats()
	if ms.QueueEntriesLive != 0 || ms.QueueEntriesFree != 1 {
		t.Errorf("after release: live=%d free=%d, want 0/1", ms.QueueEntriesLive, ms.QueueEntriesFree)
	}
}

func TestQueueReuseBoundsAllocations(t *testing.T) {
	h := newHarness(t)
	t1 := h.thread("t1")
	l1 := h.lock("l1")
	p := h.pos("C", "m", 1)
	h.arm("C", "m", 1)
	for i := 0; i < 100; i++ {
		h.acquire(t1, l1, p)
		h.release(t1, l1)
	}
	ms := h.c.MemStats()
	if ms.QueueEntriesAllocated != 1 {
		t.Errorf("allocated %d entries across 100 acquisitions, want 1 (reuse)", ms.QueueEntriesAllocated)
	}

	h2 := newHarness(t, WithQueueReuse(false))
	u1 := h2.thread("u1")
	m1 := h2.lock("m1")
	q := h2.pos("C", "m", 1)
	h2.arm("C", "m", 1)
	for i := 0; i < 100; i++ {
		h2.acquire(u1, m1, q)
		h2.release(u1, m1)
	}
	if ms := h2.c.MemStats(); ms.QueueEntriesAllocated != 100 {
		t.Errorf("reuse off: allocated %d, want 100", ms.QueueEntriesAllocated)
	}
}

func TestEventChannelDropsWhenFull(t *testing.T) {
	// No consumer: once the buffer is full the next event must drop, not
	// block.
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustAdd(t, c, sigOf(DeadlockSig, fr("a.B", "m", 1), fr("c.D", "n", 2)))

	for i := 0; i < eventBuffer; i++ {
		c.emit(Event{Kind: EventYield})
	}
	if dropped := c.Stats().EventsDropped; dropped != 0 {
		t.Fatalf("EventsDropped = %d before the buffer filled, want 0", dropped)
	}
	c.emit(Event{Kind: EventYield}) // would block without drop logic
	if dropped := c.Stats().EventsDropped; dropped != 1 {
		t.Errorf("EventsDropped = %d, want 1", dropped)
	}
}
