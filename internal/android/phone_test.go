package android

import (
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// testPhoneConfig returns a fast-reacting phone for tests.
func testPhoneConfig(dimmunix bool, store core.HistoryStore) PhoneConfig {
	return PhoneConfig{
		Dimmunix:          dimmunix,
		History:           store,
		WatchdogInterval:  20 * time.Millisecond,
		WatchdogThreshold: 25 * time.Millisecond,
	}
}

const scenarioTimeout = 30 * time.Second

// TestPhoneNormalNotificationFlow checks the services work when the race
// window is not forced: a notification lands and the panel expands.
func TestPhoneNormalNotificationFlow(t *testing.T) {
	ph := NewPhone(testPhoneConfig(true, core.NewMemHistory()))
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()
	ss := ph.System()

	user, err := ss.Proc.Start("user", func(th *vm.Thread) {
		ss.NMS.EnqueueNotificationWithTag(th, "com.example", "hello", 1)
		ss.StatusBar.ExpandNotificationsPanel(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-user.Done()
	if user.Err() != nil {
		t.Fatal(user.Err())
	}

	select {
	case <-ss.StatusBar.ExpansionsDone():
	case <-time.After(10 * time.Second):
		t.Fatal("panel never expanded")
	}

	check, err := ss.Proc.Start("check", func(th *vm.Thread) {
		if n := ss.NMS.Count(th); n != 1 {
			t.Errorf("notification count = %d, want 1", n)
		}
		if n := ss.StatusBar.IconCount(th); n != 1 {
			t.Errorf("icon count = %d, want 1", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-check.Done()
}

// TestPhoneDeadlockImmunity is experiment E1 end to end, exactly the
// paper's §5 narrative: the forced race freezes the phone's interface
// once; Dimmunix detects the deadlock and saves its signature; after a
// reboot the same race is avoided with no user intervention.
func TestPhoneDeadlockImmunity(t *testing.T) {
	store := core.NewMemHistory()
	ph := NewPhone(testPhoneConfig(true, store))
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()

	// Run 1: the phone freezes; the watchdog notices.
	out, err := ph.RunNotificationScenario(scenarioTimeout)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if out != OutcomeFroze {
		t.Fatalf("run 1 outcome = %v, want froze", out)
	}
	sys1 := ph.System()
	if got := sys1.Proc.Dimmunix().Stats().DeadlocksDetected; got != 1 {
		t.Fatalf("run 1 detected %d deadlocks, want 1", got)
	}
	if store.Len() != 1 {
		t.Fatalf("history has %d signatures after run 1, want 1", store.Len())
	}

	// Reboot: fresh processes reload the history.
	if err := ph.Reboot(); err != nil {
		t.Fatal(err)
	}
	if ph.Boots() != 2 {
		t.Fatalf("boots = %d, want 2", ph.Boots())
	}
	sys2 := ph.System()
	if got := sys2.Proc.Dimmunix().HistorySize(); got != 1 {
		t.Fatalf("rebooted system loaded %d signatures, want 1", got)
	}

	// Run 2: same forced race — now avoided.
	out, err = ph.RunNotificationScenario(scenarioTimeout)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if out != OutcomeCompleted {
		t.Fatalf("run 2 outcome = %v, want completed", out)
	}
	st := sys2.Proc.Dimmunix().Stats()
	if st.DeadlocksDetected != 0 || st.DuplicateDeadlocks != 0 {
		t.Errorf("run 2 deadlocked: %+v", st)
	}
	if st.Yields == 0 {
		t.Error("run 2 must have engaged avoidance")
	}
}

// TestVanillaPhoneKeepsFreezing is the baseline: without Dimmunix the
// phone freezes on every encounter of the race — "without deadlock
// immunity, the phone may freeze whenever the user expands the status bar
// while notifications are sent".
func TestVanillaPhoneKeepsFreezing(t *testing.T) {
	ph := NewPhone(testPhoneConfig(false, nil))
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()

	for run := 1; run <= 2; run++ {
		out, err := ph.RunNotificationScenario(scenarioTimeout)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if out != OutcomeFroze {
			t.Fatalf("run %d outcome = %v, want froze (vanilla has no immunity)", run, out)
		}
		if err := ph.Reboot(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPhoneImmunityFromFirstBoot: with the signature already on flash
// (from a previous life), even the first boot is immune.
func TestPhoneImmunityFromFirstBoot(t *testing.T) {
	store := core.NewMemHistory()
	// Life 1 discovers the deadlock.
	ph1 := NewPhone(testPhoneConfig(true, store))
	if err := ph1.Boot(); err != nil {
		t.Fatal(err)
	}
	if out, err := ph1.RunNotificationScenario(scenarioTimeout); err != nil || out != OutcomeFroze {
		t.Fatalf("life 1: out=%v err=%v", out, err)
	}
	ph1.Shutdown()

	// Life 2 boots already immune.
	ph2 := NewPhone(testPhoneConfig(true, store))
	if err := ph2.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph2.Shutdown()
	if out, err := ph2.RunNotificationScenario(scenarioTimeout); err != nil || out != OutcomeCompleted {
		t.Fatalf("life 2: out=%v err=%v", out, err)
	}
}

func TestPhoneForkApp(t *testing.T) {
	ph := NewPhone(testPhoneConfig(true, core.NewMemHistory()))
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()
	app, err := ph.ForkApp("com.example.app")
	if err != nil {
		t.Fatal(err)
	}
	if app.Dimmunix() == nil {
		t.Error("forked app must run with immunity")
	}
	if app.Dimmunix() == ph.System().Proc.Dimmunix() {
		t.Error("app must have its own per-process core")
	}
}

func TestPhoneLifecycleErrors(t *testing.T) {
	ph := NewPhone(testPhoneConfig(true, core.NewMemHistory()))
	if _, err := ph.ForkApp("x"); err == nil {
		t.Error("ForkApp before Boot must fail")
	}
	if _, err := ph.RunNotificationScenario(time.Second); err == nil {
		t.Error("scenario before Boot must fail")
	}
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := ph.Boot(); err == nil {
		t.Error("double Boot must fail")
	}
	ph.Shutdown()
	ph.Shutdown() // idempotent
}
