// Quickstart: the smallest end-to-end demonstration of deadlock immunity.
//
// Two threads acquire two locks in opposite orders — the classic ABBA
// deadlock. On the first run the deadlock manifests (as it would on any
// unprotected runtime); Dimmunix detects it and saves its signature to a
// history file. The program then simulates a restart: a fresh runtime
// loads the history, the same threads run the same interleaving, and the
// deadlock is avoided — one thread is briefly suspended until the pattern
// is safe.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	dimmunix "github.com/dimmunix/dimmunix"
)

func main() {
	histPath := filepath.Join(os.TempDir(), "quickstart-deadlocks.hist")
	_ = os.Remove(histPath) // start this demo from a clean history

	for _, title := range []string{
		"== run 1: no antibodies yet — the deadlock will manifest ==",
		"\n== run 2: restarted runtime, history loaded — immune ==",
	} {
		fmt.Println(title)
		out, err := runOnce(histPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quickstart:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	}
}

// outcome is what one run observed: whether it ended on a detected
// deadlock (both threads frozen), and the process's immunity counters
// and history at that point.
type outcome struct {
	Deadlocked bool
	Stats      dimmunix.CoreStats
	Antibodies []dimmunix.SignatureInfo
}

func (o outcome) String() string {
	if !o.Deadlocked {
		return fmt.Sprintf("  both threads completed; avoidance yields: %d\n", o.Stats.Yields)
	}
	s := "  DEADLOCK: both threads are frozen (as the paper's phone froze)\n"
	for _, sig := range o.Antibodies {
		s += fmt.Sprintf("  antibody saved: %s\n", sig)
	}
	return s
}

// runOnce executes the ABBA scenario on a fresh runtime over histPath.
// Both runs are the same code: the threads meet at a gate while holding
// their first lock, which makes the deadlock certain — unless the history
// already holds its signature, in which case Dimmunix suspends one thread
// before its first lock, and that yield opens the gate for the other.
func runOnce(histPath string) (outcome, error) {
	rt := dimmunix.New(dimmunix.WithHistoryFile(histPath))
	defer rt.Shutdown()

	proc, err := rt.Fork("quickstart-app")
	if err != nil {
		return outcome{}, err
	}
	accounts := proc.NewObject("accounts")
	audit := proc.NewObject("audit")
	gate := proc.NewGate(2)

	if _, err := proc.Start("transfer", func(t *dimmunix.Thread) {
		t.Call("bank.TransferService", "transfer", 42, func() {
			accounts.Synchronized(t, func() {
				gate.Arrive() // wait until the other thread holds audit
				audit.Synchronized(t, func() {})
			})
		})
	}); err != nil {
		return outcome{}, err
	}
	if _, err := proc.Start("report", func(t *dimmunix.Thread) {
		t.Call("bank.ReportService", "monthly", 77, func() {
			audit.Synchronized(t, func() {
				gate.Arrive()
				accounts.Synchronized(t, func() {})
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
