package vm

import (
	"errors"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

func TestWaitNotifyHandoff(t *testing.T) {
	for _, mode := range []string{"vanilla", "dimmunix"} {
		t.Run(mode, func(t *testing.T) {
			var p *Process
			if mode == "vanilla" {
				p = vanillaProcess(t)
			} else {
				p = dimProcess(t)
			}
			o := p.NewObject("cond")
			ready := false

			waiter := startThread(t, p, "waiter", func(th *Thread) {
				if err := o.Enter(th); err != nil {
					t.Error(err)
					return
				}
				for !ready {
					notified, err := o.Wait(th, 0)
					if err != nil {
						t.Errorf("Wait: %v", err)
						return
					}
					if !notified {
						t.Error("Wait(0) returned without notification")
					}
				}
				if err := o.Exit(th); err != nil {
					t.Error(err)
				}
			})

			pollUntil(t, "waiter parked", func() bool { return p.Stats().Waits == 1 })
			notifier := startThread(t, p, "notifier", func(th *Thread) {
				if err := o.Enter(th); err != nil {
					t.Error(err)
					return
				}
				ready = true
				if err := o.Notify(th); err != nil {
					t.Errorf("Notify: %v", err)
				}
				if err := o.Exit(th); err != nil {
					t.Error(err)
				}
			})
			waitDone(t, waiter)
			waitDone(t, notifier)
			if st := p.Stats(); st.Notifies != 1 {
				t.Errorf("Notifies = %d, want 1", st.Notifies)
			}
		})
	}
}

func TestWaitTimeout(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("cond")
	th := startThread(t, p, "w", func(th *Thread) {
		if err := o.Enter(th); err != nil {
			t.Error(err)
			return
		}
		start := time.Now()
		notified, err := o.Wait(th, 20*time.Millisecond)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		if notified {
			t.Error("timeout wait must report notified=false")
		}
		if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
			t.Errorf("woke after %v, want >= ~20ms", elapsed)
		}
		if err := o.Exit(th); err != nil {
			t.Error(err) // the monitor must have been re-acquired
		}
	})
	waitDone(t, th)
}

func TestWaitRequiresOwnership(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("cond")
	th := startThread(t, p, "w", func(th *Thread) {
		if _, err := o.Wait(th, 0); !errors.Is(err, ErrNotOwner) {
			t.Errorf("Wait without ownership = %v, want ErrNotOwner", err)
		}
		if err := o.Notify(th); !errors.Is(err, ErrNotOwner) {
			t.Errorf("Notify without ownership = %v, want ErrNotOwner", err)
		}
	})
	waitDone(t, th)
}

func TestWaitRestoresRecursion(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("cond")
	th := startThread(t, p, "w", func(th *Thread) {
		// Acquire three levels deep, wait, and verify all three exits
		// still succeed afterwards.
		for i := 0; i < 3; i++ {
			if err := o.Enter(th); err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := o.Wait(th, 10*time.Millisecond); err != nil {
			t.Errorf("Wait: %v", err)
		}
		for i := 0; i < 3; i++ {
			if err := o.Exit(th); err != nil {
				t.Errorf("Exit %d after wait: %v", i, err)
			}
		}
		if err := o.Exit(th); !errors.Is(err, ErrNotOwner) {
			t.Error("4th exit must fail: recursion must be restored exactly")
		}
	})
	waitDone(t, th)
}

func TestNotifyAllWakesEveryWaiter(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("cond")
	const waiters = 4
	woken := make(chan string, waiters)
	for i := 0; i < waiters; i++ {
		startThread(t, p, "waiter", func(th *Thread) {
			if err := o.Enter(th); err != nil {
				t.Error(err)
				return
			}
			notified, err := o.Wait(th, 0)
			if err != nil || !notified {
				t.Errorf("Wait: notified=%v err=%v", notified, err)
			}
			if err := o.Exit(th); err != nil {
				t.Error(err)
			}
			woken <- th.Name()
		})
	}
	pollUntil(t, "all parked", func() bool { return p.Stats().Waits == waiters })
	n := startThread(t, p, "notifier", func(th *Thread) {
		o.Synchronized(th, func() {
			if err := o.NotifyAll(th); err != nil {
				t.Error(err)
			}
		})
	})
	waitDone(t, n)
	for i := 0; i < waiters; i++ {
		select {
		case <-woken:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d waiters woke", i, waiters)
		}
	}
}

func TestNotifyWakesExactlyOne(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("cond")
	const waiters = 3
	var threads []*Thread
	for i := 0; i < waiters; i++ {
		threads = append(threads, startThread(t, p, "waiter", func(th *Thread) {
			if err := o.Enter(th); err != nil {
				t.Error(err)
				return
			}
			_, _ = o.Wait(th, 0) // woken either by notify or by kill
			_ = o.Exit(th)
		}))
	}
	pollUntil(t, "all parked", func() bool { return p.Stats().Waits == waiters })
	n := startThread(t, p, "notifier", func(th *Thread) {
		o.Synchronized(th, func() {
			if err := o.Notify(th); err != nil {
				t.Error(err)
			}
		})
	})
	waitDone(t, n)
	done := func() int {
		k := 0
		for _, th := range threads {
			select {
			case <-th.Done():
				k++
			default:
			}
		}
		return k
	}
	pollUntil(t, "the notified waiter finished", func() bool { return done() >= 1 })
	// The others are still parked: a notify removes its waiter from the
	// wait set, and nothing else wakes one.
	m := o.mon.Load()
	m.mu.Lock()
	parked := len(m.waitSet)
	m.mu.Unlock()
	if parked != waiters-1 || done() != 1 || p.Stats().Notifies != 1 {
		t.Errorf("after one notify: %d in the wait set, %d waiters done, %d notifies; want %d, 1, 1",
			parked, done(), p.Stats().Notifies, waiters-1)
	}
}

func TestWaitInterrupted(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("cond")
	th := startThread(t, p, "w", func(th *Thread) {
		if err := o.Enter(th); err != nil {
			t.Error(err)
			return
		}
		_, err := o.Wait(th, 0)
		if !errors.Is(err, ErrInterrupted) {
			t.Errorf("Wait = %v, want ErrInterrupted", err)
		}
		// Java semantics: the monitor is re-acquired before the exception.
		if err := o.Exit(th); err != nil {
			t.Errorf("Exit after interrupt: %v", err)
		}
	})
	pollUntil(t, "parked", func() bool { return p.Stats().Waits == 1 })
	th.Interrupt()
	waitDone(t, th)
}

func TestInterruptBeforeWait(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("cond")
	th := startThread(t, p, "w", func(th *Thread) {
		th.Interrupt() // pre-set flag
		if err := o.Enter(th); err != nil {
			t.Error(err)
			return
		}
		if _, err := o.Wait(th, 0); !errors.Is(err, ErrInterrupted) {
			t.Errorf("Wait with pending interrupt = %v, want ErrInterrupted", err)
		}
		_ = o.Exit(th)
	})
	waitDone(t, th)
	if st := p.Stats(); st.Waits != 0 {
		t.Errorf("Waits = %d, want 0 (never parked)", st.Waits)
	}
}

func TestKillDuringWait(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("cond")
	th := startThread(t, p, "w", func(th *Thread) {
		if err := o.Enter(th); err != nil {
			t.Error(err)
			return
		}
		if _, err := o.Wait(th, 0); !errors.Is(err, ErrProcessKilled) {
			t.Errorf("Wait on killed process = %v, want ErrProcessKilled", err)
		}
	})
	pollUntil(t, "parked", func() bool { return p.Stats().Waits == 1 })
	p.Kill()
	waitDone(t, th)
}

// abbaScenario runs the classic inversion on a process: t1 takes A then B,
// t2 takes B then A, and they meet at a gate while holding their first
// lock; t2 starts once t1 waits there. Without the signature the
// rendezvous makes the deadlock certain. With it armed, t2 yields before
// taking B, and that yield opens the gate for t1 (package comment,
// "Gates"). Each thread sends its Arrive result on met.
func abbaScenario(t *testing.T, p *Process) (t1, t2 *Thread, met <-chan bool) {
	a, b := p.NewObject("lockA"), p.NewObject("lockB")
	g := p.NewGate(2)
	results := make(chan bool, 2)

	t1 = startThread(t, p, "t1", func(th *Thread) {
		th.Call("com.app.Svc1", "methodA", 10, func() {
			a.Synchronized(th, func() {
				results <- g.Arrive()
				th.Call("com.app.Svc1", "innerB", 11, func() {
					b.Synchronized(th, func() {})
				})
			})
		})
	})
	pollUntil(t, "t1 at the gate", func() bool { return g.missing.Load() == 1 })
	t2 = startThread(t, p, "t2", func(th *Thread) {
		th.Call("com.app.Svc2", "methodB", 20, func() {
			b.Synchronized(th, func() {
				results <- g.Arrive()
				th.Call("com.app.Svc2", "innerA", 21, func() {
					a.Synchronized(th, func() {})
				})
			})
		})
	})
	return t1, t2, results
}

// TestVMDeadlockDetectionAndFreeze reproduces run 1 of the paper's
// scenario at VM level: the deadlock manifests (threads never finish), its
// signature is recorded and persisted, and Kill reaps the frozen threads.
func TestVMDeadlockDetectionAndFreeze(t *testing.T) {
	store := core.NewMemHistory()
	c, err := core.New(core.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess("run1", c)
	t1, t2, _ := abbaScenario(t, p)

	pollUntil(t, "deadlock detected", func() bool {
		return p.Dimmunix().Stats().DeadlocksDetected == 1
	})
	if p.Join(50 * time.Millisecond) {
		t.Fatal("process completed despite deadlock")
	}
	if store.Len() != 1 {
		t.Errorf("store has %d signatures, want 1", store.Len())
	}

	p.Kill() // reboot path: frozen threads must be reaped
	waitDone(t, t1)
	waitDone(t, t2)
}

// TestVMDeadlockImmunityAfterReboot is the headline end-to-end property at
// VM level: a second process sharing the history avoids the deadlock.
func TestVMDeadlockImmunityAfterReboot(t *testing.T) {
	store := core.NewMemHistory()

	// Run 1: detect and freeze.
	c1, err := core.New(core.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewProcess("run1", c1)
	abbaScenario(t, p1)
	pollUntil(t, "deadlock detected", func() bool {
		return p1.Dimmunix().Stats().DeadlocksDetected == 1
	})
	p1.Kill()

	// Run 2: fresh process, loaded history, the same interleaving.
	c2, err := core.New(core.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewProcess("run2", c2)
	t1, t2, _ := abbaScenario(t, p2)
	waitDone(t, t1)
	waitDone(t, t2)
	if err := t1.Err(); err != nil {
		t.Errorf("t1 err: %v", err)
	}
	if err := t2.Err(); err != nil {
		t.Errorf("t2 err: %v", err)
	}
	st := p2.Dimmunix().Stats()
	if st.DeadlocksDetected != 0 || st.DuplicateDeadlocks != 0 {
		t.Errorf("run 2 deadlocked: %+v", st)
	}
	if st.Yields == 0 {
		t.Error("run 2 must have engaged avoidance (yields > 0)")
	}
	p2.Kill()
}

// TestWaitInversionDeadlock reproduces §3.2's wait-induced lock inversion:
//
//	t1: synchronized(x){ synchronized(y){ x.wait() } }
//	t2: synchronized(x){ synchronized(y){} }
//
// When t1's wait re-acquires x while holding y, and t2 holds x wanting y,
// they deadlock. Only an implementation that intercepts the re-acquisition
// inside waitMonitor can see this cycle — which is why the paper modifies
// the Object.wait native method.
func TestWaitInversionDeadlock(t *testing.T) {
	store := core.NewMemHistory()

	// Run 1: detection.
	c1, err := core.New(core.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	p1 := NewProcess("run1", c1)
	runWaitInversion(t, p1)
	pollUntil(t, "wait-inversion deadlock detected", func() bool {
		return p1.Dimmunix().Stats().DeadlocksDetected == 1
	})
	p1.Kill()
	if store.Len() != 1 {
		t.Fatalf("store has %d signatures, want 1", store.Len())
	}

	// Run 2: avoidance. Both threads must complete.
	c2, err := core.New(core.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewProcess("run2", c2)
	t1, t2 := runWaitInversion(t, p2)
	waitDone(t, t1)
	waitDone(t, t2)
	st := p2.Dimmunix().Stats()
	if st.DeadlocksDetected != 0 || st.DuplicateDeadlocks != 0 {
		t.Errorf("run 2 deadlocked: %+v", st)
	}
	p2.Kill()
}

// runWaitInversion launches the two threads of the §3.2 example. t1 waits
// with a timeout (the paper's t1 simply "finishes waiting"); t2 enters
// once t1 is parked.
func runWaitInversion(t *testing.T, p *Process) (t1, t2 *Thread) {
	x, y := p.NewObject("x"), p.NewObject("y")
	t1 = startThread(t, p, "t1", func(th *Thread) {
		th.Call("com.app.W", "holder", 30, func() {
			x.Synchronized(th, func() {
				y.Synchronized(th, func() {
					_, _ = x.Wait(th, 100*time.Millisecond)
				})
			})
		})
	})
	t2 = startThread(t, p, "t2", func(th *Thread) {
		th.Call("com.app.W", "taker", 40, func() {
			// Wait (off the test goroutine) until t1 is parked in x.wait.
			pollSoft(func() bool { return p.Stats().Waits >= 1 })
			x.Synchronized(th, func() {
				y.Synchronized(th, func() {})
			})
		})
	})
	return t1, t2
}
