package dimmunix_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	dimmunix "github.com/dimmunix/dimmunix"
)

// abba runs the classic two-lock inversion on a process forked from rt:
// the threads meet at a gate while holding their first lock. Without
// immunity the deadlock is certain; with it armed, one thread yields
// before its first lock, and the yield opens the gate for the other.
func abba(t *testing.T, rt *dimmunix.Runtime, name string) (*dimmunix.Process, []*dimmunix.Thread) {
	t.Helper()
	proc, err := rt.Fork(name)
	if err != nil {
		t.Fatal(err)
	}
	a, b := proc.NewObject("A"), proc.NewObject("B")
	gate := proc.NewGate(2)

	t1, err := proc.Start("t1", func(th *dimmunix.Thread) {
		th.Call("com.example.Svc1", "transfer", 10, func() {
			a.Synchronized(th, func() {
				gate.Arrive()
				b.Synchronized(th, func() {})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := proc.Start("t2", func(th *dimmunix.Thread) {
		th.Call("com.example.Svc2", "audit", 20, func() {
			b.Synchronized(th, func() {
				gate.Arrive()
				a.Synchronized(th, func() {})
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return proc, []*dimmunix.Thread{t1, t2}
}

// TestRuntimeImmunityAcrossRestart drives the full public-API flow the
// README promises: run 1 deadlocks and persists a signature to the history
// file; a fresh Runtime over the same file is immune.
func TestRuntimeImmunityAcrossRestart(t *testing.T) {
	histPath := filepath.Join(t.TempDir(), "deadlocks.hist")

	// Run 1: detect and freeze.
	rt1 := dimmunix.New(dimmunix.WithHistoryFile(histPath))
	proc1, _ := abba(t, rt1, "run1")
	select {
	case ev := <-proc1.Dimmunix().Events():
		if ev.Kind != dimmunix.EventDeadlockDetected {
			t.Fatalf("run 1's first event is %v, want the detection", ev.Kind)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run 1 did not detect the deadlock")
	}
	if proc1.Dimmunix().Stats().DeadlocksDetected != 1 {
		t.Fatal("run 1 did not detect the deadlock")
	}
	rt1.Shutdown() // reaps the frozen threads

	// Run 2: a new runtime (restarted platform) over the same history.
	rt2 := dimmunix.New(dimmunix.WithHistoryFile(histPath))
	defer rt2.Shutdown()
	proc2, threads := abba(t, rt2, "run2")
	if proc2.Dimmunix().HistorySize() != 1 {
		t.Fatalf("run 2 loaded %d signatures, want 1", proc2.Dimmunix().HistorySize())
	}
	for _, th := range threads {
		select {
		case <-th.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("run 2 thread %s hung", th.Name())
		}
		if th.Err() != nil {
			t.Errorf("thread %s: %v", th.Name(), th.Err())
		}
	}
	st := proc2.Dimmunix().Stats()
	if st.DeadlocksDetected != 0 || st.DuplicateDeadlocks != 0 {
		t.Errorf("run 2 deadlocked: %+v", st)
	}
}

// TestVanillaRuntimeHasNoImmunity: the baseline configuration must fork
// processes without cores.
func TestVanillaRuntimeHasNoImmunity(t *testing.T) {
	rt := dimmunix.New(dimmunix.WithImmunity(false))
	defer rt.Shutdown()
	proc, err := rt.Fork("vanilla-app")
	if err != nil {
		t.Fatal(err)
	}
	if proc.Dimmunix() != nil {
		t.Error("vanilla runtime must not attach cores")
	}
}

// TestWaitNotifyThroughFacade exercises Object.wait/notify via the public
// API.
func TestWaitNotifyThroughFacade(t *testing.T) {
	rt := dimmunix.New()
	defer rt.Shutdown()
	proc, err := rt.Fork("app")
	if err != nil {
		t.Fatal(err)
	}
	cond := proc.NewObject("cond")
	got := make(chan bool, 1)
	waiter, err := proc.Start("waiter", func(th *dimmunix.Thread) {
		if err := cond.Enter(th); err != nil {
			t.Error(err)
			return
		}
		notified, err := cond.Wait(th, 0)
		if err != nil {
			t.Error(err)
		}
		got <- notified
		_ = cond.Exit(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && proc.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	_, err = proc.Start("notifier", func(th *dimmunix.Thread) {
		cond.Synchronized(th, func() {
			if err := cond.Notify(th); err != nil {
				t.Error(err)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case notified := <-got:
		if !notified {
			t.Error("waiter not notified")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung")
	}
	<-waiter.Done()
}

// TestPhoneE1ThroughFacade runs the paper's headline scenario through the
// public phone API.
func TestPhoneE1ThroughFacade(t *testing.T) {
	cfg := dimmunix.DefaultPhoneConfig()
	cfg.History = dimmunix.NewMemHistory()
	cfg.WatchdogInterval = 20 * time.Millisecond
	cfg.WatchdogThreshold = 25 * time.Millisecond
	ph := dimmunix.NewPhone(cfg)
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()

	out, err := ph.RunNotificationScenario(30 * time.Second)
	if err != nil || out != dimmunix.OutcomeFroze {
		t.Fatalf("run 1: out=%v err=%v, want froze", out, err)
	}
	if err := ph.Reboot(); err != nil {
		t.Fatal(err)
	}
	out, err = ph.RunNotificationScenario(30 * time.Second)
	if err != nil || out != dimmunix.OutcomeCompleted {
		t.Fatalf("run 2: out=%v err=%v, want completed", out, err)
	}
}

// TestSyncSiteCensus is experiment E6: the §3.2 static census.
func TestSyncSiteCensus(t *testing.T) {
	census, err := dimmunix.FrameworkCensus()
	if err != nil {
		t.Fatal(err)
	}
	counts := census.Counts()
	if counts.TotalSyncSites != dimmunix.TargetSyncSites {
		t.Errorf("synchronized sites = %d, want %d", counts.TotalSyncSites, dimmunix.TargetSyncSites)
	}
	if counts.ExplicitLocks != dimmunix.TargetExplicitSites {
		t.Errorf("explicit sites = %d, want %d", counts.ExplicitLocks, dimmunix.TargetExplicitSites)
	}
	// The ratio is the paper's argument: explicit locking is rare enough
	// that handling only synchronized blocks/methods is not a major
	// shortcoming.
	ratio := float64(counts.TotalSyncSites) / float64(counts.ExplicitLocks)
	if ratio < 50 {
		t.Errorf("sync/explicit ratio = %.0f, want the synchronized style to dominate", ratio)
	}
}

// TestErrorsMatchable checks the exported errors work with errors.Is.
func TestErrorsMatchable(t *testing.T) {
	rt := dimmunix.New()
	proc, err := rt.Fork("app")
	if err != nil {
		t.Fatal(err)
	}
	o := proc.NewObject("o")
	th, err := proc.Start("w", func(th *dimmunix.Thread) {
		if err := o.Exit(th); !errors.Is(err, dimmunix.ErrNotOwner) {
			t.Errorf("Exit = %v, want ErrNotOwner", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-th.Done()
	rt.Shutdown()
}
