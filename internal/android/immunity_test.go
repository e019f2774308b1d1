package android

import (
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// immunityPhoneConfig is testPhoneConfig with the live-propagation hub.
func immunityPhoneConfig(hub *immunity.Service) PhoneConfig {
	cfg := testPhoneConfig(true, nil)
	cfg.Immunity = hub
	return cfg
}

// TestPhoneLivePropagationNoRestart is the platform-level tentpole check:
// the issue-7986 freeze in system_server immunizes an application process
// that has been running since before the deadlock, with no reboot and no
// app restart.
func TestPhoneLivePropagationNoRestart(t *testing.T) {
	hub, err := immunity.NewService("phone0", core.NewMemHistory())
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ph := NewPhone(immunityPhoneConfig(hub))
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()

	// The app is already running when the platform deadlock happens.
	app, err := ph.ForkApp("com.example.bystander")
	if err != nil {
		t.Fatal(err)
	}
	if app.Dimmunix().HistorySize() != 0 {
		t.Fatal("bystander app armed before any detection")
	}

	outcome, err := ph.RunNotificationScenario(scenarioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeFroze {
		t.Fatalf("run 1 outcome = %v, want froze", outcome)
	}

	// The signature reaches the live app process without any restart.
	timeout := time.After(5 * time.Second)
	for installed := false; !installed; {
		select {
		case ev, ok := <-app.Dimmunix().Events():
			if !ok {
				t.Fatal("bystander core closed before the antibody arrived")
			}
			installed = ev.Kind == core.EventSignatureInstalled
		case <-timeout:
			t.Fatal("bystander app never hot-installed the antibody")
		}
	}
	if got := app.Dimmunix().Stats().SignaturesInstalled; got == 0 {
		t.Error("antibody arrived by some path other than hot-install")
	}

	// The watchdog stamped the freeze with the hub epoch.
	sys := ph.System()
	if sys.Immunity == nil {
		t.Fatal("immunity service not wired into system_server")
	}
	notes := sys.Immunity.Freezes()
	if len(notes) == 0 {
		t.Fatal("watchdog freeze not noted on the immunity service")
	}
	if notes[0].Epoch == 0 {
		t.Errorf("freeze note epoch = 0, want >= 1 (detection precedes the watchdog threshold)")
	}

	// The service is discoverable like any system service.
	lookup, err := sys.Proc.Start("lookup", func(th *vm.Thread) {
		if svc := sys.SM.GetService(th, "dimmunix"); svc == nil {
			t.Error(`GetService("dimmunix") = nil`)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-lookup.Done()

	// Reboot against the same hub: the scenario is avoided (the paper's
	// run 2), proving the hub carried the history across the boot.
	if err := ph.Reboot(); err != nil {
		t.Fatal(err)
	}
	outcome, err = ph.RunNotificationScenario(scenarioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeCompleted {
		t.Fatalf("run 2 outcome = %v, want completed", outcome)
	}
}
