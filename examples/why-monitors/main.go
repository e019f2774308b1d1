// Why the VM owns its monitors: Go's native sync.Mutex is opaque.
//
// The paper argues (§3.1) that platform-wide deadlock immunity must live
// in the synchronization library, because that is the only layer that
// observes every lock/unlock. Go makes the same point sharply: a
// sync.Mutex cannot be intercepted, so a Dimmunix built "next to" native
// mutexes is blind to them. This demo builds the same inversion twice:
//
//  1. with VM monitors — detected, recorded, and avoided on the next run;
//
//  2. with native Go mutexes (stand-ins for NDK pthread locks) — the
//     deadlock forms, Dimmunix sees nothing, and only a timeout (the
//     user force-killing the app) dissolves it.
//
//     go run ./examples/why-monitors
package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	dimmunix "github.com/dimmunix/dimmunix"
)

func main() {
	fmt.Println("== intercepted monitors: deadlock detected and recorded ==")
	detected, err := monitorRun()
	if err != nil {
		fmt.Fprintln(os.Stderr, "why-monitors:", err)
		os.Exit(1)
	}
	fmt.Printf("  deadlocks detected: %d — signature recorded, future runs immune\n", detected)

	fmt.Println("\n== native locks: the same inversion is invisible (§4's NDK gap) ==")
	out, err := nativeRun()
	if err != nil {
		fmt.Fprintln(os.Stderr, "why-monitors:", err)
		os.Exit(1)
	}
	fmt.Printf("  %s gave up after its timeout (the deadlock really formed)\n", out.Victim)
	fmt.Printf("  deadlocks detected by Dimmunix: %d — native locks are invisible to the RAG\n", out.Detected)
	fmt.Println("  (this is why the VM implements its own monitors — and why §4 leaves NDK locks to future work)")
}

// monitorRun builds the ABBA inversion on VM monitors and returns how
// many deadlocks Dimmunix detected once it reports the first.
func monitorRun() (uint64, error) {
	rt := dimmunix.New()
	defer rt.Shutdown()
	proc, err := rt.Fork("monitored-app")
	if err != nil {
		return 0, err
	}
	a, b := proc.NewObject("A"), proc.NewObject("B")
	hasA, hasB := make(chan struct{}), make(chan struct{})

	if _, err := proc.Start("t1", func(t *dimmunix.Thread) {
		t.Call("app.Left", "run", 1, func() {
			a.Synchronized(t, func() {
				close(hasA)
				<-hasB
				b.Synchronized(t, func() {})
			})
		})
	}); err != nil {
		return 0, err
	}
	if _, err := proc.Start("t2", func(t *dimmunix.Thread) {
		t.Call("app.Right", "run", 2, func() {
			<-hasA
			b.Synchronized(t, func() {
				close(hasB)
				a.Synchronized(t, func() {})
			})
		})
	}); err != nil {
		return 0, err
	}

	bound := time.After(10 * time.Second)
	for {
		select {
		case ev := <-proc.Dimmunix().Events():
			if ev.Kind == dimmunix.EventDeadlockDetected {
				return proc.Dimmunix().Stats().DeadlocksDetected, nil
			}
		case <-bound:
			return 0, errors.New("the monitor inversion was never detected")
		}
	}
}

// nativeLock is an uninterceptable lock (what an NDK pthread mutex is to
// Android Dimmunix), with a timed acquire so the demo can end.
type nativeLock struct{ ch chan struct{} }

func newNativeLock() *nativeLock {
	l := &nativeLock{ch: make(chan struct{}, 1)}
	l.ch <- struct{}{}
	return l
}

func (l *nativeLock) lock(timeout time.Duration) bool {
	select {
	case <-l.ch:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (l *nativeLock) unlock() { l.ch <- struct{}{} }

// nativeOutcome is what the native-lock run observed: the thread whose
// timed acquire gave up (the deadlock formed) and Dimmunix's deadlock
// count for the process.
type nativeOutcome struct {
	Victim   string
	Detected uint64
}

// nativeRun builds the same inversion on native locks.
func nativeRun() (nativeOutcome, error) {
	rt := dimmunix.New()
	defer rt.Shutdown()
	proc, err := rt.Fork("native-app")
	if err != nil {
		return nativeOutcome{}, err
	}
	a, b := newNativeLock(), newNativeLock()
	hasA, hasB := make(chan struct{}), make(chan struct{})
	timedOut := make(chan string, 2)

	if _, err := proc.Start("t1", func(t *dimmunix.Thread) {
		if !a.lock(time.Second) {
			return
		}
		close(hasA)
		<-hasB
		if !b.lock(200 * time.Millisecond) {
			timedOut <- "t1"
			a.unlock()
			return
		}
		b.unlock()
		a.unlock()
	}); err != nil {
		return nativeOutcome{}, err
	}
	if _, err := proc.Start("t2", func(t *dimmunix.Thread) {
		<-hasA
		if !b.lock(time.Second) {
			return
		}
		close(hasB)
		if !a.lock(200 * time.Millisecond) {
			timedOut <- "t2"
			b.unlock()
			return
		}
		a.unlock()
		b.unlock()
	}); err != nil {
		return nativeOutcome{}, err
	}

	select {
	case victim := <-timedOut:
		return nativeOutcome{Victim: victim, Detected: proc.Dimmunix().Stats().DeadlocksDetected}, nil
	case <-time.After(10 * time.Second):
		return nativeOutcome{}, errors.New("no timeout observed")
	}
}
