package vm

import (
	"sync/atomic"
	"testing"
	"time"
)

// The §4 limitation, as a negative test: "Android Dimmunix does not handle
// deadlocks involving native code" — synchronization that bypasses the
// monitor interception (NDK pthread mutexes on the phone; any non-monitor
// blocking primitive here) is invisible to the RAG, so a mixed
// monitor/native cycle is neither detected nor avoided.

// nativeLock is a non-monitor mutex (a pthread mutex stand-in) that the
// VM cannot intercept. waiting counts the threads inside lock.
type nativeLock struct {
	ch      chan struct{}
	waiting atomic.Int32
}

func newNativeLock() *nativeLock {
	l := &nativeLock{ch: make(chan struct{}, 1)}
	l.ch <- struct{}{}
	return l
}

// lock acquires, giving up after the timeout (so the test can dissolve the
// deadlock deterministically).
func (l *nativeLock) lock(timeout time.Duration) bool {
	l.waiting.Add(1)
	defer l.waiting.Add(-1)
	select {
	case <-l.ch:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (l *nativeLock) unlock() { l.ch <- struct{}{} }

// TestNativeLockCycleIsInvisible builds a cycle between a monitor and a
// native lock: thread A holds the native lock and blocks on the monitor;
// thread B holds the monitor and blocks on the native lock. Dimmunix sees
// only half of the cycle, so — exactly as §4 concedes — it neither detects
// nor avoids it. The test asserts the blind spot, then dissolves the
// deadlock via the native lock's timeout.
func TestNativeLockCycleIsInvisible(t *testing.T) {
	p := dimProcess(t)
	mon := p.NewObject("managed")
	native := newNativeLock()

	aHasNative := make(chan struct{})
	bHasMonitor := make(chan struct{})

	a := startThread(t, p, "A", func(th *Thread) {
		if !native.lock(time.Minute) {
			t.Error("A could not take the native lock")
			return
		}
		close(aHasNative)
		<-bHasMonitor
		// Blocks on the monitor held by B: the only RAG edge that exists.
		mon.Synchronized(th, func() {})
		native.unlock()
	})
	b := startThread(t, p, "B", func(th *Thread) {
		<-aHasNative
		mon.Synchronized(th, func() {
			close(bHasMonitor)
			// Blocks on the native lock held by A — invisible to the RAG.
			// The bounded wait models the user force-stopping the app.
			if native.lock(300 * time.Millisecond) {
				native.unlock()
			}
		})
	})

	// While the cycle exists, Dimmunix must not have detected anything:
	// the walk from the monitor ends at B, whose native-lock wait is not a
	// request edge. The cycle exists once B waits inside native.lock and A
	// is blocked on the monitor past its Request (counted blocked by the
	// monitor, which it is only after the core approved it).
	pollUntil(t, "A blocked on the monitor and B inside the native lock", func() bool {
		m := mon.mon.Load()
		return a.State() == StateBlocked && m != nil && m.Blocked() == 1 && native.waiting.Load() == 1
	})
	if got := p.Dimmunix().Stats().DeadlocksDetected; got != 0 {
		t.Errorf("detected %d deadlocks through a native lock (impossible: it is not intercepted)", got)
	}

	waitDone(t, a)
	waitDone(t, b)
	// After B's native wait timed out, everything drains; still nothing
	// recorded: no signature exists for uninterceptable cycles.
	if got := p.Dimmunix().HistorySize(); got != 0 {
		t.Errorf("history has %d signatures, want 0", got)
	}
}

func TestDumpThreads(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	hold := make(chan struct{})
	holder := startThread(t, p, "holder", func(th *Thread) {
		th.Call("com.app.Holder", "hold", 5, func() {
			o.Synchronized(th, func() {
				close(hold)
				<-th.proc.killCh
			})
		})
	})
	<-hold
	blocked := startThread(t, p, "blocked", func(th *Thread) {
		th.Call("com.app.Blocked", "take", 9, func() {
			o.Synchronized(th, func() {})
		})
	})
	pollUntil(t, "contender blocked", func() bool {
		m := o.Monitor()
		return m != nil && m.Blocked() == 1
	})

	dumps := p.DumpThreads()
	if len(dumps) != 2 {
		t.Fatalf("dumped %d threads, want 2", len(dumps))
	}
	byName := map[string]ThreadDump{}
	for _, d := range dumps {
		byName[d.Name] = d
	}
	h := byName["holder"]
	if h.State != StateRunnable && h.State != StateBlocked {
		t.Errorf("holder state = %v", h.State)
	}
	bd := byName["blocked"]
	if bd.State != StateBlocked {
		t.Errorf("blocked state = %v, want blocked", bd.State)
	}
	if len(bd.Stack) == 0 || bd.Stack[0].Class != "com.app.Blocked" {
		t.Errorf("blocked stack = %v", bd.Stack)
	}
	text := FormatDump(p.Name(), dumps)
	if text == "" || len(text) < 40 {
		t.Error("dump text too short")
	}

	p.Kill()
	waitDone(t, holder)
	waitDone(t, blocked)
}
