package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testLock models the embedding runtime's lock for core tests: one
// ownership word, handed to the core as the lock node's Word, taken by CAS
// and released by a store, as vm.Monitor's is.
type testLock struct {
	holder atomic.Pointer[Node]
}

// Holder implements Word.
func (w *testLock) Holder() *Node { return w.holder.Load() }

// newTestLock creates a lock node whose word is a fresh testLock.
func newTestLock(c *Core, name string) *Node { return c.NewMonitorNode(name, &testLock{}) }

// wordOf returns l's testLock.
func wordOf(l *Node) *testLock { return l.word.(*testLock) }

// tryLock is the runtime's acquiring CAS of t on l, in the shape enterFast
// takes.
func tryLock(t, l *Node) func() bool {
	return func() bool { return wordOf(l).holder.CompareAndSwap(nil, t) }
}

// lockWord blocks until t's CAS on l's word wins, as a contended runtime
// acquisition does.
func lockWord(t, l *Node) {
	for !wordOf(l).holder.CompareAndSwap(nil, t) {
		runtime.Gosched()
	}
}

// unlockWord is the runtime's release store of l's word by t; a thread
// that does not hold l changes nothing.
func unlockWord(t, l *Node) { wordOf(l).holder.CompareAndSwap(t, nil) }

// exitLock is a monitorexit as the runtime drives it: Exit, whose unlock
// is the word's release store.
func exitLock(c *Core, t, l *Node) { c.Exit(t, l, func() { unlockWord(t, l) }) }

// harness wires a Core to convenience constructors for RAG scenario tests.
type harness struct {
	t *testing.T
	c *Core
}

func newHarness(t *testing.T, opts ...Option) *harness {
	t.Helper()
	c, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return &harness{t: t, c: c}
}

// thread creates a thread node with a fixed informational stack.
func (h *harness) thread(name string) *Node {
	stack := CallStack{{Class: "test.Threads", Method: name, Line: 1}}
	return h.c.NewThreadNode(name, func() CallStack { return stack })
}

// lock creates a lock node with a testLock word.
func (h *harness) lock(name string) *Node {
	return newTestLock(h.c, name)
}

// pos interns a depth-1 position "test.<class>.<method>:<line>".
func (h *harness) pos(class, method string, line int) *Position {
	h.t.Helper()
	p, err := h.c.Intern(CallStack{{Class: "test." + class, Method: method, Line: line}})
	if err != nil {
		h.t.Fatalf("Intern: %v", err)
	}
	return p
}

// arm marks the position for the given frame as signature-named, so the
// queue-maintaining slow path runs, without enabling any avoidance:
// a starvation signature is never matched by findInstantiation, it only
// suppresses yields that would otherwise happen.
func (h *harness) arm(class, method string, line int) {
	h.t.Helper()
	f := fr("test."+class, method, line)
	mustAdd(h.t, h.c, &Signature{Kind: StarvationSig, Pairs: []SigPair{
		{Outer: CallStack{f}, Inner: CallStack{f}},
	}})
}

// acquire performs the full Request → CAS → Acquired sequence, failing the
// test on error or when the lock's word is taken.
func (h *harness) acquire(t, l *Node, pos *Position) {
	h.t.Helper()
	if err := h.c.Request(t, l, pos); err != nil {
		h.t.Fatalf("Request(%s,%s): %v", t, l, err)
	}
	h.take(t, l)
	h.c.Acquired(t, l)
}

// take is the runtime's acquiring CAS of t on l, which must win.
func (h *harness) take(t, l *Node) {
	h.t.Helper()
	if !tryLock(t, l)() {
		h.t.Fatalf("%s's word is held by %s", l, wordOf(l).Holder())
	}
}

// release releases a held lock as the runtime does (exitLock).
func (h *harness) release(t, l *Node) {
	h.t.Helper()
	exitLock(h.c, t, l)
}

// stack builds a call stack from "Class.Method:Line"-style triples.
func stackOf(frames ...Frame) CallStack { return frames }

func fr(class, method string, line int) Frame {
	return Frame{Class: class, Method: method, Line: line}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// awaitResume waits for a yielding Request, run on its own goroutine and
// reporting on done, to return once a release has dissolved its
// instantiation, and fails the test if it is not woken within 5 s.
func awaitResume(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("resumed request: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the release did not wake the yielding request")
	}
}

// eventRecorder drains a core's event channel into an inspectable log.
type eventRecorder struct {
	mu     sync.Mutex
	events []Event
	done   chan struct{}
}

// recordEvents starts draining c's events until the core is closed.
func recordEvents(t *testing.T, c *Core) *eventRecorder {
	t.Helper()
	r := &eventRecorder{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for ev := range c.Events() {
			r.mu.Lock()
			r.events = append(r.events, ev)
			r.mu.Unlock()
		}
	}()
	return r
}

// count returns how many recorded events have the given kind.
func (r *eventRecorder) count(kind EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// find returns the first event of the given kind, if any.
func (r *eventRecorder) find(kind EventKind) (Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range r.events {
		if ev.Kind == kind {
			return ev, true
		}
	}
	return Event{}, false
}

// sigOf builds a deadlock signature over depth-1 outer frames.
func sigOf(kind SigKind, outers ...Frame) *Signature {
	sig := &Signature{Kind: kind}
	for _, f := range outers {
		sig.Pairs = append(sig.Pairs, SigPair{
			Outer: CallStack{f},
			Inner: CallStack{f},
		})
	}
	return sig
}

// mustAdd installs a signature, failing the test on error.
func mustAdd(t *testing.T, c *Core, sig *Signature) SignatureInfo {
	t.Helper()
	info, _, err := c.AddSignature(sig)
	if err != nil {
		t.Fatalf("AddSignature: %v", err)
	}
	return info
}

// uniqueFrame generates distinct frames for table-driven tests.
func uniqueFrame(i int) Frame {
	return Frame{Class: "gen.C" + fmt.Sprint(i), Method: "m", Line: i}
}
