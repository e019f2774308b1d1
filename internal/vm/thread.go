// Package vm implements a Dalvik-like virtual machine substrate: VM
// threads with explicit call stacks, objects with thin/fat lock words,
// recursive monitors with wait/notify, and per-process Dimmunix
// integration.
//
// Go's runtime mutexes are opaque — their lock/unlock operations cannot be
// intercepted — which is precisely the paper's argument for implementing
// deadlock immunity inside the synchronization library itself (§3.1). This
// package therefore is the synchronization library: it reimplements
// Dalvik's monitor subsystem, with Dimmunix called at the paper's three
// interception points (before monitorenter, after monitorenter, before
// monitorexit) plus around the re-acquisition inside Object.wait (§3.2).
//
// # The position cache
//
// A monitorenter needs its position: the paper's dvmGetCallStack +
// getPosition pair, here a capture of the thread's top frames and a lookup
// in the core's intern table. A thread pays for that pair once per call
// site. Each Thread carries a small fixed array of the Positions it
// resolved last (Thread.posCache: 64 sets indexed by the captured frames'
// line numbers, two entries each — no map, no allocation, no lock), and
// Monitor.resolvePosition asks it first.
//
//   - Key. An entry answers for the current enter only if its whole
//     interned stack equals the frames a capture would take now, all
//     captureDepth of them, compared in place on the thread's stack. The
//     same statement under a different caller at outer depth 2 is a
//     different position and a different entry.
//   - No invalidation. A Core never removes a Position from its intern
//     table and a thread never changes process, so a cached pointer stays
//     the answer Intern would give. Installing a signature arms the same
//     Position object the cache points to (Position.inHistory), so a thread
//     sees a hot-installed antibody on its very next enter at that site.
//
// # Ownership: three rules and two atomic pairs
//
// The uncontended synchronized block takes no mutex: its state is either
// owned by one goroutine or handed over through an atomic pair.
//
//   - Frames are the owner goroutine's. Thread.frames is pushed and popped
//     by its own goroutine alone, and only while the thread is runnable,
//     so PushFrame and PopFrame are a plain append and truncate and the
//     enter path reads its own frames in place. Another goroutine —
//     deadlock detection capturing inner stacks, thread dumps — copies
//     them only while the thread is not runnable: new, parked (blocked
//     entering a monitor, waiting) or terminated, the windows in which
//     the owner does not touch them. The position cache and the capture
//     buffer are the owner's too, and no other goroutine reads them.
//   - The monitor is its owner's. Monitor.owner is set by the acquirer's
//     CAS from nil and cleared by the owner's store; recursion is read and
//     written by the owner alone, so recursive enters and exits take no
//     lock. In a Dimmunix process the same word is the RAG's hold edge:
//     the monitor is its lock node's core.Word (Monitor.Holder), so the
//     core reads the holder through it and keeps no owner of its own.
//   - Enter counts are their thread's. A thin, vanilla fat or recursive
//     enter adds one to an atomic in its own Thread; a Dimmunix fat enter
//     is counted once, by the core, as the acquisition that publishes its
//     hold edge. SyncCount and Stats add the live threads' counts, the
//     total that exiting threads fold in (both under Process.mu, so a
//     thread exiting under a live sampler is counted exactly once) and,
//     in a Dimmunix process, core.Stats().Acquisitions.
//   - Pair 1, frames: a reader increments Thread.readers, then loads the
//     state, copies only if the thread is not runnable, and decrements.
//     The owner stores StateRunnable, then waits while readers != 0. Both
//     sides write before they read (sequentially consistent atomics), so
//     either the reader sees the thread runnable and copies nothing, or
//     the owner sees the reader and does not push or pop until it has
//     finished. The owner's hot path pays one load after a store it made
//     anyway.
//   - Pair 2, wake-ups: an acquirer that lost the CAS takes Monitor.mu,
//     increments Monitor.blocked, and retries the CAS before parking on
//     acqCond; release stores owner = nil, then loads blocked and takes mu
//     to Signal only if it is positive. Again both sides write before
//     they read, so either the acquirer's CAS sees nil, or the releaser
//     sees blocked > 0 — and since the acquirer holds mu from its
//     increment until acqCond.Wait releases it, that Signal finds it
//     parked. No wake-up is lost. A woken acquirer that loses the CAS
//     again to a barging thread parks again; that thread's release
//     signals it.
//
// A Dimmunix monitorenter at an unarmed site on a free monitor is one
// shared engine section (core.EnterFast): the approval, the owner CAS
// (which is the hold edge) and its acquisition position, none of which
// can block. The matching monitorexit is the owner store alone, plus one
// load that re-checks the site (core.Exit). That thread never waits, so it
// stays runnable throughout and its frames stay its own. Every other
// enter takes the full path, and there a thread reads as blocked from
// before Request until it owns the monitor: while avoidance suspends it,
// while it parks on acqCond, and while detection may copy its frames for
// a signature's inner stack.
//
// The core asks for a thread's stack only for the inner stacks of a
// signature: the threads of a waits-for cycle are blocked, and a
// starvation witness that is running gets its witness position's stack
// instead. Inner stacks are not part of a signature's key.
//
// # Gates
//
// A deadlock scenario forces its interleaving with a Gate
// (Process.NewGate): each party arrives holding its first lock, and the
// crossing acquisitions start only once all of them are there. Arrive
// returns true when every party has arrived, and false when the process's
// core has yielded a thread since the gate was created or the process is
// dying. The yield is why: once the history holds the deadlock's
// signature, avoidance suspends a party before its first lock, so that
// party can never arrive, and the yield is the event that says so. The
// others go on alone, finish, and their releases resume the yielder. A
// vanilla process never yields, so there the gate is a strict
// rendezvous. No timer is involved: the run that deadlocks and the
// immune run after it are the same code. A yield from before NewGate
// does not count, so one process can drive the scenario repeatedly.
package vm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/dimmunix/dimmunix/internal/core"
)

// ThreadState describes what a VM thread is currently doing.
type ThreadState int32

// Thread states.
const (
	StateNew ThreadState = iota + 1
	StateRunnable
	StateBlocked // blocked entering a monitor (includes avoidance yields)
	StateWaiting // parked in Object.wait
	StateTerminated
)

// String returns a readable state name.
func (s ThreadState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateBlocked:
		return "blocked"
	case StateWaiting:
		return "waiting"
	case StateTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("ThreadState(%d)", int32(s))
	}
}

// Thread is a VM thread: a goroutine paired with an explicit call stack
// (the simulated equivalent of Dalvik's interpreted frames), a reusable
// stack-capture buffer (the paper's Thread.stackBuffer), and a RAG node
// (the paper's Thread.node). The stack, the buffer and the position cache
// are the owning goroutine's; other goroutines see the state, and the
// stack only while the thread is parked or terminated (package comment,
// "Ownership").
type Thread struct {
	id   uint32
	name string
	proc *Process

	// node is the Dimmunix RAG node; nil when the process runs vanilla.
	node *core.Node

	// frames is the simulated call stack, outermost first. Only the
	// owning goroutine pushes and pops, and only while the thread is
	// runnable; another goroutine copies it only while the thread is not
	// runnable (readParked), and setState(StateRunnable) waits for such
	// copies to finish. The package comment has the argument.
	frames []core.Frame
	// entry stands in for the stack of a thread that synchronizes without
	// having pushed any simulated frames (e.g. raw tests): the position is
	// then the thread's entry point. Set at Start, never written again.
	entry [1]core.Frame

	// stackBuf is the reusable capture buffer: position capture fills it
	// top-frame-first without allocating (§4: "the dvmGetCallStack routine
	// does not need to allocate memory"). Like posCache it belongs to the
	// owning goroutine alone: no other goroutine reads or writes either,
	// so neither needs a lock (SyncFootprint accounts for both from the
	// process's configuration, without looking at them).
	stackBuf []core.Frame

	// posCache remembers the interned Position of the call sites this
	// thread recently synchronized at; see cachedPosition.
	posCache [posCacheSets][posCacheWays]*core.Position

	// thinEnters, fatEnters and recursiveEnters count the thread's
	// completed monitorenters by kind, except a Dimmunix fat enter, which
	// the core counts as its acquisition. Atomics written only by the
	// thread's own goroutine, so no other CPU writes their cache line on
	// the sync path; Process.SyncCount reads them live, and run folds them
	// into the process when the thread exits.
	thinEnters      atomic.Uint64
	fatEnters       atomic.Uint64
	recursiveEnters atomic.Uint64

	state atomic.Int32
	// readers counts other goroutines inside readParked; see frames.
	readers     atomic.Int32
	interrupted atomic.Bool
	interruptCh chan struct{}

	// done closes when the thread's function returns.
	done chan struct{}
	// err records why the thread terminated abnormally (killed process,
	// deadlock unwind), nil for normal completion.
	err   error
	errMu sync.Mutex
}

// ID returns the thread's id, unique within its process.
func (t *Thread) ID() uint32 { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// State returns the thread's current state.
func (t *Thread) State() ThreadState { return ThreadState(t.state.Load()) }

// setState publishes the thread's state. Owning goroutine only. Becoming
// runnable waits out any reader that saw the thread parked and may still
// be copying its frames: the owner pushes and pops again right after.
func (t *Thread) setState(s ThreadState) {
	t.state.Store(int32(s))
	for s == StateRunnable && t.readers.Load() != 0 {
		runtime.Gosched()
	}
}

// readParked runs read, which may look at t.frames, if the thread is not
// runnable — new, parked (blocked or waiting) or terminated, the states in
// which its owner does not push or pop — and returns the state it saw.
// Safe from any goroutine: the readers increment comes before the state
// load here, and the runnable store before the readers load in setState,
// so either this sees the thread runnable and does not read, or setState
// sees the reader and waits for it.
func (t *Thread) readParked(read func()) ThreadState {
	t.readers.Add(1)
	s := t.State()
	if s != StateRunnable {
		read()
	}
	t.readers.Add(-1)
	return s
}

// Done returns a channel closed when the thread terminates.
func (t *Thread) Done() <-chan struct{} { return t.done }

// Err returns the thread's termination error, if any. Valid after Done.
func (t *Thread) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

func (t *Thread) setErr(err error) {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	if t.err == nil {
		t.err = err
	}
}

// Interrupt sets the thread's interrupt flag and wakes it if it is parked
// in Object.wait (Java Thread.interrupt semantics for monitors).
func (t *Thread) Interrupt() {
	t.interrupted.Store(true)
	select {
	case t.interruptCh <- struct{}{}:
	default:
	}
}

// Interrupted reports and clears the interrupt flag.
func (t *Thread) Interrupted() bool {
	if !t.interrupted.Swap(false) {
		return false
	}
	t.drainInterrupt()
	return true
}

// drainInterrupt empties the interrupt channel after the flag is consumed.
func (t *Thread) drainInterrupt() {
	select {
	case <-t.interruptCh:
	default:
	}
}

// PushFrame enters a simulated method frame. Platform and application code
// brackets method bodies with PushFrame/PopFrame (or uses Call) so that
// monitorenter positions are meaningful, stable program locations. Owning
// goroutine only, like PopFrame.
func (t *Thread) PushFrame(f core.Frame) {
	t.frames = append(t.frames, f)
}

// PopFrame leaves the innermost simulated frame. Popping an empty stack is
// a programming error in simulation code; it is tolerated as a no-op.
func (t *Thread) PopFrame() {
	if n := len(t.frames); n > 0 {
		t.frames = t.frames[:n-1]
	}
}

// Call runs body inside a simulated frame, mirroring a method invocation.
func (t *Thread) Call(class, method string, line int, body func()) {
	t.PushFrame(core.Frame{Class: class, Method: method, Line: line})
	defer t.PopFrame()
	body()
}

// FrameDepth returns the simulated stack depth of a thread that is not
// running (see CurrentStack), or -1 while it runs.
func (t *Thread) FrameDepth() int {
	depth := -1
	t.readParked(func() { depth = len(t.frames) })
	return depth
}

// CurrentStack returns a copy of the call stack, innermost frame first, of
// a thread that is parked (blocked entering a monitor, waiting) or
// terminated, and nil while it runs: then its frames are its own
// goroutine's. Safe to call from any goroutine. The core calls it for the
// informational inner stacks of signatures, whose threads are blocked in
// the cycle (a running starvation witness gets its position's stack).
func (t *Thread) CurrentStack() core.CallStack {
	_, cs := t.snapshot()
	return cs
}

// snapshot returns the thread's state and, unless it is running, a copy
// of its call stack, innermost frame first.
func (t *Thread) snapshot() (ThreadState, core.CallStack) {
	var out core.CallStack
	s := t.readParked(func() {
		n := len(t.frames)
		if n == 0 {
			out = core.CallStack{t.entry[0]}
			return
		}
		out = make(core.CallStack, n)
		for i := 0; i < n; i++ {
			out[i] = t.frames[n-1-i]
		}
	})
	return s, out
}

// captured returns the frames a capture of the given depth takes, as they
// lie on the stack (outermost first — a capture reads them backwards): the
// top `depth` frames, fewer on a shallower stack, or the entry frame of a
// thread that has pushed none. Owning goroutine only.
func (t *Thread) captured(depth int) []core.Frame {
	n := len(t.frames)
	if n == 0 {
		return t.entry[:]
	}
	if depth > n {
		depth = n
	}
	if depth < 1 {
		depth = 1
	}
	return t.frames[n-depth:]
}

// captureTop fills the reusable stack buffer with the top `depth` frames,
// innermost first, and returns it — the simulated dvmGetCallStack. The
// returned slice aliases t.stackBuf and is only valid until the next
// capture; core.Intern copies what it keeps. Owning goroutine only.
func (t *Thread) captureTop(depth int) core.CallStack {
	top := t.captured(depth)
	if cap(t.stackBuf) < len(top) {
		t.stackBuf = make([]core.Frame, len(top))
	}
	t.stackBuf = t.stackBuf[:len(top)]
	for i := range t.stackBuf {
		t.stackBuf[i] = top[len(top)-1-i]
	}
	return core.CallStack(t.stackBuf)
}

// The per-thread position cache: posCacheSets sets of posCacheWays
// positions each, 1 KiB per thread, in the Thread struct itself.
const (
	posCacheSets = 64 // power of two, so the index folds with a mask
	posCacheWays = 2
)

// posCacheSet picks the cache set for a capture from the line numbers of
// all its frames. Lines are what tells the synchronization statements of
// one thread's working set apart most cheaply (consecutive statements
// never share a set), and the second way absorbs the pair that does
// collide: the same line in two classes, or under two callers.
func (t *Thread) posCacheSet(top []core.Frame) *[posCacheWays]*core.Position {
	var h uint
	for i := len(top) - 1; i >= 0; i-- {
		h = h*31 + uint(top[i].Line)
	}
	return &t.posCache[h&(posCacheSets-1)]
}

// cachedPosition returns the interned Position of the thread's current
// top `depth` frames if this thread resolved it before, else nil. A cached
// entry is a hit only when its whole stack equals the capture, frame for
// frame (string comparison is a pointer check when both sides are the same
// string, as they are at a call site that runs twice). The package comment
// says why nothing ever has to invalidate an entry.
func (t *Thread) cachedPosition(depth int) *core.Position {
	top := t.captured(depth)
	for _, pos := range t.posCacheSet(top) {
		if pos == nil {
			continue
		}
		stack := pos.Stack()
		if len(stack) != len(top) {
			continue
		}
		i := 0
		for i < len(top) && stack[i] == top[len(top)-1-i] {
			i++
		}
		if i == len(top) {
			return pos
		}
	}
	return nil
}

// cachePosition records pos as the position of the current capture,
// evicting the set's older entry.
func (t *Thread) cachePosition(depth int, pos *core.Position) {
	set := t.posCacheSet(t.captured(depth))
	copy(set[1:], set[:posCacheWays-1])
	set[0] = pos
}

// enters returns the thread's own monitorenter counts.
func (t *Thread) enters() enterCounts {
	return enterCounts{thin: t.thinEnters.Load(), fat: t.fatEnters.Load(), recursive: t.recursiveEnters.Load()}
}

// run is the goroutine trampoline. Thread bodies unwind abnormal
// termination (process kill) with a typed panic that is recovered here,
// mimicking how a Java thread dies from an uncaught exception without
// taking the process down. The thread's counts move into the process
// before Done closes, so a caller that waited on Done reads them all.
func (t *Thread) run(fn func(*Thread)) {
	defer t.proc.wg.Done()
	defer close(t.done)
	defer func() {
		t.setState(StateTerminated)
		// Retire the RAG node so the core's registry stays bounded by
		// live threads (long-lived processes spawn and reap many).
		if dim := t.proc.dim; dim != nil && t.node != nil {
			dim.RetireThreadNode(t.node)
		}
		t.proc.exit(t)
		if r := recover(); r != nil {
			if u, ok := r.(threadUnwind); ok {
				t.setErr(u.err)
				return
			}
			panic(r)
		}
	}()
	t.setState(StateRunnable)
	fn(t)
}

// threadUnwind is the typed panic payload used by Synchronized/MustEnter
// to unwind a thread that cannot continue (killed process). It never
// escapes the package: run recovers it.
type threadUnwind struct{ err error }

// unwind aborts the current thread with err.
func unwind(err error) {
	panic(threadUnwind{err: err})
}
