package vm

import (
	"runtime"
	"sync/atomic"
	"time"
)

// thinSpinLimit is how many times a vanilla-mode contender yields the
// processor before falling back to micro-sleeps and promoting the lock to
// a fat monitor on acquisition, approximating Dalvik's thin-lock contention
// handling.
const thinSpinLimit = 32

// contendedSleep is the vanilla-mode backoff once spinning has failed.
const contendedSleep = 5 * time.Microsecond

// Object is a VM object that can be synchronized on: the target of
// monitorenter/monitorexit and Object.wait/notify. Its lock starts thin (a
// single CAS-managed word, Dalvik-style); it is fattened to a Monitor on
// recursion overflow, on wait(), on observed contention — and immediately
// on first monitorenter when Dimmunix is enabled, because a RAG node must
// live in a Monitor object: "the thin lock is a simple integer field,
// which cannot accommodate a RAG node" (§4).
type Object struct {
	name string
	proc *Process
	lw   atomic.Uint64
	mon  atomic.Pointer[Monitor]
}

// Name returns the object's diagnostic name.
func (o *Object) Name() string { return o.name }

// IsFat reports whether the object's lock has been inflated to a Monitor.
func (o *Object) IsFat() bool { return lwIsFat(o.lw.Load()) }

// Monitor returns the object's fat monitor, or nil while the lock is still
// thin. Diagnostic use (watchdogs, tests).
func (o *Object) Monitor() *Monitor { return o.mon.Load() }

// Enter performs monitorenter on the object. With Dimmunix enabled the
// lock is fattened first and the monitor path runs the Request/Acquired
// interception; vanilla mode takes the thin-lock fast path.
//
// Enter returns ErrProcessKilled if the process is torn down while
// blocked, or core.ErrCoreClosed if it is torn down while the thread
// yields in avoidance. A deadlock never fails Enter: it manifests, with
// its signature saved.
func (o *Object) Enter(t *Thread) error {
	return o.enterInternal(t, nil)
}

// EnterAt is Enter with a pre-resolved position (ablation A5: the
// compiler-assigned static synchronization-statement ids proposed in §4,
// which eliminate the per-acquisition stack capture).
func (o *Object) EnterAt(t *Thread, site *Site) error {
	return o.enterInternal(t, site)
}

// enterInternal dispatches between the Dimmunix (always-fat) and vanilla
// (thin-first) paths.
func (o *Object) enterInternal(t *Thread, site *Site) error {
	if err := o.checkThread(t); err != nil {
		return err
	}
	if o.proc.dim != nil {
		m, err := o.fatten(t)
		if err != nil {
			return err
		}
		return m.enter(t, 1, site)
	}
	// A contender reads as blocked (Dalvik's MONITOR) from its first lost
	// race for the thin word until it owns the lock or sees the kill.
	spins := 0
	for {
		if o.proc.isKilled() {
			if spins > 0 {
				t.setState(StateRunnable)
			}
			return ErrProcessKilled
		}
		lw := o.lw.Load()
		switch {
		case lwIsFat(lw):
			return o.mon.Load().enter(t, 1, site)
		case lw == 0 && o.lw.CompareAndSwap(0, thinWord(t.id, 1)):
			if spins > 0 {
				if spins >= thinSpinLimit {
					// Contended acquisition: promote so future contenders
					// park on the monitor instead of spinning.
					o.inflateOwned(t)
				}
				t.setState(StateRunnable)
			}
			t.thinEnters.Add(1)
			return nil
		case lwOwner(lw) == t.id:
			if lwCount(lw) >= maxThinRecursion {
				m := o.inflateOwned(t)
				return m.enter(t, 1, site)
			}
			o.lw.Store(lw + 1)
			t.recursiveEnters.Add(1)
			return nil
		default:
			// Thin lock owned by another thread, or the CAS lost to one:
			// yield, then back off.
			if spins == 0 {
				t.setState(StateBlocked)
			}
			spins++
			if spins < thinSpinLimit {
				runtime.Gosched()
			} else {
				time.Sleep(contendedSleep)
			}
		}
	}
}

// Exit performs monitorexit on the object.
func (o *Object) Exit(t *Thread) error {
	if err := o.checkThread(t); err != nil {
		return err
	}
	lw := o.lw.Load()
	if lwIsFat(lw) {
		return o.mon.Load().exit(t)
	}
	if lw == 0 || lwOwner(lw) != t.id {
		return ErrNotOwner
	}
	if lwCount(lw) > 1 {
		o.lw.Store(lw - 1)
	} else {
		o.lw.Store(0)
	}
	return nil
}

// Wait implements Object.wait: the calling thread must own the monitor; it
// releases it fully, parks until notify/timeout/interrupt, and re-acquires
// it through the full interception path so that deadlocks caused by lock
// inversions over wait() are detected and avoided (§3.2). A timeout of 0
// waits indefinitely. It returns whether the thread was notified (as
// opposed to timing out).
func (o *Object) Wait(t *Thread, timeout time.Duration) (bool, error) {
	if err := o.checkThread(t); err != nil {
		return false, err
	}
	lw := o.lw.Load()
	if !lwIsFat(lw) {
		if lw == 0 || lwOwner(lw) != t.id {
			return false, ErrNotOwner
		}
		// Dalvik also inflates on wait: the wait set lives in the Monitor.
		o.inflateOwned(t)
	}
	return o.mon.Load().wait(t, timeout)
}

// Notify wakes one thread waiting on the object, if any.
func (o *Object) Notify(t *Thread) error {
	return o.notifyInternal(t, false)
}

// NotifyAll wakes all threads waiting on the object.
func (o *Object) NotifyAll(t *Thread) error {
	return o.notifyInternal(t, true)
}

func (o *Object) notifyInternal(t *Thread, all bool) error {
	if err := o.checkThread(t); err != nil {
		return err
	}
	lw := o.lw.Load()
	if !lwIsFat(lw) {
		// A thin lock has no wait set: if we own it there is nothing to
		// notify; if we don't, it is an illegal monitor state.
		if lw == 0 || lwOwner(lw) != t.id {
			return ErrNotOwner
		}
		return nil
	}
	return o.mon.Load().notify(t, all)
}

// fatten publishes the object's Monitor, creating it under the process
// fatten lock with double-checking — the paper's pre-lockMonitor snippet
// guarded by globalLock.
func (o *Object) fatten(t *Thread) (*Monitor, error) {
	if m := o.mon.Load(); m != nil {
		return m, nil
	}
	p := o.proc
	p.fattenMu.Lock()
	defer p.fattenMu.Unlock()
	if m := o.mon.Load(); m != nil {
		return m, nil
	}
	if p.isKilled() {
		return nil, ErrProcessKilled
	}
	m := p.newMonitor(o)
	o.mon.Store(m)
	o.lw.Store(lwShapeFat)
	return m, nil
}

// inflateOwned converts a thin lock held by t into a fat monitor owned by
// t, preserving the recursion count. Only the thin owner may call it.
func (o *Object) inflateOwned(t *Thread) *Monitor {
	lw := o.lw.Load()
	m := o.proc.newMonitor(o)
	m.owner.Store(t)
	m.recursion = lwCount(lw)
	// Publish the monitor before flipping the shape bit so any thread that
	// observes the fat shape finds the monitor in place.
	o.mon.Store(m)
	o.lw.Store(lwShapeFat)
	return m
}

// checkThread validates the thread belongs to this object's process.
func (o *Object) checkThread(t *Thread) error {
	if t == nil {
		return ErrNilThread
	}
	if t.proc != o.proc {
		return ErrForeignThread
	}
	return nil
}
