// Wait inversion: the §3.2 deadlock caused by Object.wait re-acquisition.
//
//	Thread t1:                    Thread t2:
//	synchronized(x) {             synchronized(x) {
//	  synchronized(y) {             synchronized(y) {
//	    x.wait();                   }
//	  }                           }
//	}
//
// x.wait() releases only x (t1 keeps y). t2 then acquires x and blocks on
// y. When t1 finishes waiting it must RE-ACQUIRE x — while holding y, with
// t2 holding x and wanting y: deadlock. Only a runtime that intercepts the
// re-acquisition inside the wait implementation can see this cycle, which
// is why the paper changes Dalvik's Object.wait native method rather than
// instrumenting bytecode.
//
//	go run ./examples/wait-inversion
package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	dimmunix "github.com/dimmunix/dimmunix"
)

func main() {
	history := dimmunix.NewMemHistory()
	for _, title := range []string{
		"== run 1: the wait-inversion deadlock manifests ==",
		"\n== run 2: restarted runtime — the re-acquisition is immunized ==",
	} {
		fmt.Println(title)
		out, err := runOnce(history)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wait-inversion:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	}
}

// outcome is what one run observed: whether it ended on a detected
// deadlock, and the process's immunity counters and history at that
// point.
type outcome struct {
	Deadlocked bool
	Stats      dimmunix.CoreStats
	Antibodies []dimmunix.SignatureInfo
}

func (o outcome) String() string {
	if !o.Deadlocked {
		return fmt.Sprintf("  completed cleanly (avoidance yields: %d)\n", o.Stats.Yields)
	}
	s := "  DEADLOCK on x.wait() re-acquisition — detected and recorded:\n"
	for _, sig := range o.Antibodies {
		s += fmt.Sprintf("    %s\n", sig)
	}
	return s
}

// runOnce runs the inversion on a fresh runtime over history.
func runOnce(history dimmunix.HistoryStore) (outcome, error) {
	rt := dimmunix.New(dimmunix.WithHistory(history))
	defer rt.Shutdown()
	proc, err := rt.Fork("wait-inversion-app")
	if err != nil {
		return outcome{}, err
	}
	x := proc.NewObject("x")
	y := proc.NewObject("y")
	waiting := make(chan struct{})

	if _, err := proc.Start("holder", func(t *dimmunix.Thread) {
		t.Call("demo.Holder", "hold", 12, func() {
			x.Synchronized(t, func() {
				y.Synchronized(t, func() {
					// Waits briefly, then re-acquires x while holding y;
					// in run 1 the only error is the teardown unwinding
					// the frozen re-acquisition.
					close(waiting)
					_, _ = x.Wait(t, 120*time.Millisecond)
				})
			})
		})
	}); err != nil {
		return outcome{}, err
	}
	if _, err := proc.Start("taker", func(t *dimmunix.Thread) {
		t.Call("demo.Taker", "take", 34, func() {
			// Enter x once the holder is about to wait on it: x is free
			// as soon as the wait releases it.
			<-waiting
			x.Synchronized(t, func() {
				y.Synchronized(t, func() {})
			})
		})
	}); err != nil {
		return outcome{}, err
	}

	deadlocked, err := settle(proc)
	return outcome{Deadlocked: deadlocked, Stats: proc.Dimmunix().Stats(), Antibodies: proc.Dimmunix().History()}, err
}

// settle waits until every thread of proc has finished (false) or its
// Dimmunix reports a deadlock, new or already in the history (true).
func settle(proc *dimmunix.Process) (deadlocked bool, err error) {
	finished := make(chan bool, 1)
	go func() { finished <- proc.Join(0) }()
	bound := time.After(10 * time.Second)
	for {
		select {
		case <-finished:
			return false, nil
		case ev := <-proc.Dimmunix().Events():
			if ev.Kind == dimmunix.EventDeadlockDetected || ev.Kind == dimmunix.EventDuplicateDeadlock {
				return true, nil
			}
		case <-bound:
			return false, errors.New("threads neither finished nor deadlocked")
		}
	}
}
