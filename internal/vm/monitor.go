package vm

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

// Monitor is a fat lock: Dalvik's struct Monitor with the paper's added
// RAG node. It provides mutual exclusion with recursion and the
// wait/notify wait set, and drives the Dimmunix interception at the
// paper's two points:
//
//	dvmGetCallStack + getPosition  (capture, intern)
//	core.Enter — the monitorenter, with the monitor's CAS and blocking
//	             acquisition as its callbacks
//	core.Exit  — the monitorexit, with the monitor's release store
//
// Ownership is one word: a thread acquires by CAS(owner, nil, self) and
// releases by storing nil, so an uncontended enter and exit take no
// mutex. In a Dimmunix process the same word is the RAG's hold edge: the
// monitor hands itself to the core as its lock node's core.Word (Holder),
// so the CAS publishes the hold and the store retracts it. mu is taken
// only by a thread that lost the CAS (it parks on acqCond), by a release
// that sees a parked acquirer to signal, by the wait-set operations and
// by teardown's wake-up; the package comment has the no-lost-wake-up
// argument.
type Monitor struct {
	obj  *Object
	proc *Process
	// node is the RAG lock node ("Node node" added to struct Monitor);
	// nil when the process runs vanilla.
	node *core.Node

	// owner is the thread holding the monitor, nil when it is free. Only
	// t sets it to t (by CAS from nil) and only its owner clears it, so t
	// may test owner == t and get the exact answer; everyone else takes a
	// snapshot.
	owner atomic.Pointer[Thread]
	// recursion is owner-only state: read and written by the owner while
	// it holds the monitor. The owner word's release store and the next
	// owner's CAS order one owner's writes before the next one's.
	recursion int
	// blocked counts threads in the slow acquisition loop. A thread
	// increments it under mu before its CAS; release reads it after
	// clearing owner.
	blocked atomic.Int32

	// mu guards acqCond's parking and the wait set.
	mu      sync.Mutex
	acqCond *sync.Cond
	// waitSet holds threads parked in Object.wait, in arrival order.
	waitSet []*waitNode
}

// waitNode parks one waiting thread.
type waitNode struct {
	t        *Thread
	notified bool
	ch       chan struct{}
}

// Owner returns the current owner, or nil. Diagnostic only: the value may
// be stale by the time it is observed.
func (m *Monitor) Owner() *Thread { return m.owner.Load() }

// Holder reads the ownership word as the core's hold edge (core.Word): the
// owner's RAG node, or nil when the monitor is free.
func (m *Monitor) Holder() *core.Node {
	if t := m.owner.Load(); t != nil {
		return t.node
	}
	return nil
}

// Blocked returns how many threads are currently blocked entering.
func (m *Monitor) Blocked() int { return int(m.blocked.Load()) }

// enter acquires the monitor for t with the given recursion level
// (normally 1; Object.wait re-acquisition restores its saved count).
// site, when non-nil, supplies a pre-resolved position (static-id mode).
func (m *Monitor) enter(t *Thread, recursion int, site *Site) error {
	if m.owner.Load() == t {
		m.recursion += recursion
		t.recursiveEnters.Add(1)
		return nil
	}

	// Dimmunix interception: position capture, then core.Enter around the
	// monitor's CAS (the hold edge) and acquire. The vm does not count a
	// Dimmunix fat enter: the core counts it as an acquisition, and
	// Process.SyncCount reads it there.
	if dim := m.proc.dim; dim != nil {
		pos, err := m.resolvePosition(t, site)
		if err != nil {
			return err
		}
		if err := dim.Enter(t.node, m.node, pos,
			func() bool { return m.owner.CompareAndSwap(nil, t) },
			func() error { return m.acquire(t) },
			t.block); err != nil {
			return err
		}
	} else {
		t.block(true)
		err := m.acquire(t)
		t.block(false)
		if err != nil {
			return err
		}
		t.fatEnters.Add(1)
	}
	// No critical section runs on a dying process, even if the owner's
	// unwinding just released the monitor: a CAS that won after the kill
	// is undone (SyncCount may read one enter more on a dying process).
	if m.proc.isKilled() {
		m.releaseAll(t)
		return ErrProcessKilled
	}
	m.recursion = recursion
	return nil
}

// acquire makes t the owner, parking on acqCond while another thread
// holds the monitor. The kill check runs before every park, so teardown's
// wake-up ends the wait; enter checks again after the winning CAS.
func (m *Monitor) acquire(t *Thread) error {
	if m.owner.CompareAndSwap(nil, t) {
		return nil
	}
	m.mu.Lock()
	m.blocked.Add(1)
	for !m.owner.CompareAndSwap(nil, t) {
		if m.proc.isKilled() {
			m.blocked.Add(-1)
			m.mu.Unlock()
			return ErrProcessKilled
		}
		m.acqCond.Wait()
	}
	m.blocked.Add(-1)
	m.mu.Unlock()
	return nil
}

// resolvePosition produces the monitorenter position: the pre-resolved
// site id when available, otherwise the paper's dvmGetCallStack +
// getPosition pair — paid once per (thread, call site). The thread's
// position cache answers every later enter at a site it has seen, by
// comparing the thread's own top frames in place (no capture copy, no
// lock, no intern-table lookup, no allocation); only a miss captures
// into the stack buffer, interns, and fills the cache. An entry is keyed
// by all captureDepth frames and never goes stale (positions are interned
// for the life of the process, and arming flips a flag on the same
// object); the package comment has the argument. Must run on t's own
// goroutine, as every monitorenter does.
func (m *Monitor) resolvePosition(t *Thread, site *Site) (*core.Position, error) {
	if site != nil {
		return site.position(m.proc)
	}
	depth := m.proc.captureDepth
	if pos := t.cachedPosition(depth); pos != nil {
		return pos, nil
	}
	pos, err := m.proc.dim.Intern(t.captureTop(depth))
	if err != nil {
		return nil, err
	}
	t.cachePosition(depth, pos)
	return pos, nil
}

// exit releases the monitor (one recursion level).
func (m *Monitor) exit(t *Thread) error {
	if m.owner.Load() != t {
		return ErrNotOwner
	}
	if m.recursion > 1 {
		m.recursion--
		return nil
	}
	m.releaseAll(t)
	return nil
}

// releaseAll gives the monitor up whatever its recursion count. In a
// Dimmunix process that is core.Exit around the release store (§4:
// unlockMonitor notifies yielders on in-history positions, then calls
// Release); at a position outside the history the core needs nothing but
// the store, and re-checks the position once after it.
func (m *Monitor) releaseAll(t *Thread) {
	if dim := m.proc.dim; dim != nil {
		dim.Exit(t.node, m.node, m.release)
		return
	}
	m.release()
}

// release gives the monitor up entirely and lets one blocked acquirer in.
// The owner store comes before the blocked load: that order is half of
// the no-lost-wake-up pair (package comment).
func (m *Monitor) release() {
	m.owner.Store(nil)
	if m.blocked.Load() > 0 {
		m.mu.Lock()
		m.acqCond.Signal()
		m.mu.Unlock()
	}
}

// wait implements Object.wait on the fat monitor: full release, park,
// re-acquire through the complete interception path (§3.2's waitMonitor
// change), restoring the saved recursion count.
func (m *Monitor) wait(t *Thread, timeout time.Duration) (bool, error) {
	m.mu.Lock()
	if m.owner.Load() != t {
		m.mu.Unlock()
		return false, ErrNotOwner
	}
	if t.Interrupted() {
		m.mu.Unlock()
		return false, ErrInterrupted
	}
	saved := m.recursion
	wn := &waitNode{t: t, ch: make(chan struct{})}
	m.waitSet = append(m.waitSet, wn)
	m.mu.Unlock()

	// Fully release the monitor (wait releases all recursion levels).
	m.releaseAll(t)
	m.proc.stats.waits.Add(1)

	// Park.
	t.setState(StateWaiting)
	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	interrupted := false
	killed := false
	select {
	case <-wn.ch:
	case <-timerC:
	case <-t.interruptCh:
		interrupted = true
	case <-m.proc.killCh:
		killed = true
	}
	t.setState(StateRunnable)

	// Determine the outcome and leave the wait set. A concurrent notify
	// wins over timeout/interrupt, consuming the notification (so it is
	// not lost for other waiters).
	m.mu.Lock()
	notified := wn.notified
	if !notified {
		m.removeWaiter(wn)
	}
	m.mu.Unlock()

	if killed {
		// Process teardown: do not re-acquire; unwind.
		return notified, ErrProcessKilled
	}

	// Re-acquire through the full path: this is where wait-inversion
	// deadlocks form, and exactly what Android Dimmunix intercepts by
	// changing the Object.wait native method (§3.2).
	if err := m.enter(t, saved, nil); err != nil {
		return notified, err
	}
	if interrupted {
		t.interrupted.Store(false)
		t.drainInterrupt()
		return notified, ErrInterrupted
	}
	return notified, nil
}

// removeWaiter unlinks wn from the wait set. Caller must hold m.mu.
func (m *Monitor) removeWaiter(wn *waitNode) {
	for i, x := range m.waitSet {
		if x == wn {
			m.waitSet = append(m.waitSet[:i], m.waitSet[i+1:]...)
			return
		}
	}
}

// notify wakes one (or all) waiters. Caller must own the monitor.
func (m *Monitor) notify(t *Thread, all bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner.Load() != t {
		return ErrNotOwner
	}
	for len(m.waitSet) > 0 {
		wn := m.waitSet[0]
		m.waitSet = m.waitSet[1:]
		wn.notified = true
		close(wn.ch)
		m.proc.stats.notifies.Add(1)
		if !all {
			break
		}
	}
	return nil
}

// killWake wakes every thread parked in this monitor (acquisition and wait
// set) during process teardown. Parked acquirers observe the killed flag;
// waiters observe killCh directly, so only the acquisition condition needs
// a broadcast.
func (m *Monitor) killWake() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acqCond.Broadcast()
}
