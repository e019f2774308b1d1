package dimmunix_test

import (
	"testing"
	"time"

	dimmunix "github.com/dimmunix/dimmunix"
	"github.com/dimmunix/dimmunix/internal/apps"
	"github.com/dimmunix/dimmunix/internal/core"
)

// TestPlatformIsolationDuringFreeze is the platform-wide story under
// load: two applications keep synchronizing at full rate while
// system_server is frozen by the notification deadlock — per-process
// immunity means one process's deadlock never impedes another — and after
// the reboot the platform is immune.
func TestPlatformIsolationDuringFreeze(t *testing.T) {
	store := core.NewMemHistory()
	cfg := dimmunix.DefaultPhoneConfig()
	cfg.History = store
	cfg.WatchdogInterval = 20 * time.Millisecond
	cfg.WatchdogThreshold = 25 * time.Millisecond
	ph := dimmunix.NewPhone(cfg)
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()

	// Launch two small app workloads on phone processes.
	profile := apps.Profile{
		Name: "LoadApp", Package: "com.test.load",
		Threads: 4, SyncsPerSec: 800, VanillaMB: 8,
		Locks: 64, Sites: 10,
		Classes: []string{"com.test.load.Main", "com.test.load.Worker"},
	}
	var replays []*apps.Replay
	for _, name := range []string{"com.test.load.a", "com.test.load.b"} {
		proc, err := ph.ForkApp(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := apps.AttachReplay(proc, profile, apps.DefaultReplayConfig())
		if err != nil {
			t.Fatal(err)
		}
		replays = append(replays, r)
	}

	// Freeze system_server.
	out, err := ph.RunNotificationScenario(30 * time.Second)
	if err != nil || out != dimmunix.OutcomeFroze {
		t.Fatalf("freeze run: out=%v err=%v", out, err)
	}

	// While the system is frozen, the apps must keep making progress.
	type snapshot struct{ before, after uint64 }
	snaps := make([]snapshot, len(replays))
	for i, r := range replays {
		snaps[i].before = r.Proc.SyncCount()
	}
	time.Sleep(300 * time.Millisecond)
	for i, r := range replays {
		snaps[i].after = r.Proc.SyncCount()
		if snaps[i].after <= snaps[i].before {
			t.Errorf("app %d made no progress during the system freeze", i)
		}
	}
	for _, r := range replays {
		res := r.Stop(100 * time.Millisecond)
		if res.Stats.SyncOps == 0 {
			t.Error("replay recorded no syncs")
		}
	}

	// Reboot: the whole platform (system + apps) restarts immune.
	if err := ph.Reboot(); err != nil {
		t.Fatal(err)
	}
	out, err = ph.RunNotificationScenario(30 * time.Second)
	if err != nil || out != dimmunix.OutcomeCompleted {
		t.Fatalf("immunized run: out=%v err=%v", out, err)
	}
	// A fresh app forked post-reboot is born immune (loads the history).
	app, err := ph.ForkApp("com.test.late")
	if err != nil {
		t.Fatal(err)
	}
	if app.Dimmunix().HistorySize() != 1 {
		t.Errorf("late app loaded %d signatures, want 1", app.Dimmunix().HistorySize())
	}
}
