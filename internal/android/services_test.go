package android

import (
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// TestNotificationCancelFlow exercises the cancel path: enqueue installs
// an icon, cancel retracts it.
func TestNotificationCancelFlow(t *testing.T) {
	ph := NewPhone(testPhoneConfig(true, core.NewMemHistory()))
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()
	ss := ph.System()

	user, err := ss.Proc.Start("user", func(th *vm.Thread) {
		ss.NMS.EnqueueNotificationWithTag(th, "com.app", "chat", 7)
		ss.NMS.EnqueueNotificationWithTag(th, "com.app", "mail", 8)
		if n := ss.NMS.Count(th); n != 2 {
			t.Errorf("count after enqueue = %d, want 2", n)
		}
		if n := ss.StatusBar.IconCount(th); n != 2 {
			t.Errorf("icons after enqueue = %d, want 2", n)
		}
		ss.NMS.CancelNotificationWithTag(th, "com.app", "chat", 7)
		if n := ss.NMS.Count(th); n != 1 {
			t.Errorf("count after cancel = %d, want 1", n)
		}
		if n := ss.StatusBar.IconCount(th); n != 1 {
			t.Errorf("icons after cancel = %d, want 1", n)
		}
		icons := ss.StatusBar.Icons(th)
		if len(icons) != 1 || icons[0] != "com.app/mail#8" {
			t.Errorf("icons = %v", icons)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-user.Done()
	if user.Err() != nil {
		t.Fatal(user.Err())
	}
}

// TestNotificationClickAndCollapse exercises the callback interface's
// click path and the expand and collapse messages.
func TestNotificationClickAndCollapse(t *testing.T) {
	ph := NewPhone(testPhoneConfig(true, core.NewMemHistory()))
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()
	ss := ph.System()

	user, err := ss.Proc.Start("user", func(th *vm.Thread) {
		ss.NMS.EnqueueNotificationWithTag(th, "com.app", "chat", 7)
		ss.NMS.OnNotificationClick(th, "com.app", "chat", 7)
		ss.StatusBar.ExpandNotificationsPanel(th)
		ss.StatusBar.CollapseNotificationsPanel(th)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-user.Done()
	if user.Err() != nil {
		t.Fatal(user.Err())
	}
	// The expand and collapse messages land on the UI looper, in order: a
	// sentinel posted after them finds the panel collapsed again.
	var expanded bool
	sentinel, err := ss.Proc.Start("sentinel", func(th *vm.Thread) {
		runOnLooper(th, ss.StatusBar.Handler(), func(*vm.Thread) { expanded = ss.StatusBar.expandedVisible })
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sentinel.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("UI looper never reached the sentinel")
	}
	if expanded || len(ss.StatusBar.ExpansionsDone()) != 1 {
		t.Errorf("expanded=%v expansions=%d after expand+collapse, want false and 1", expanded, len(ss.StatusBar.ExpansionsDone()))
	}
}

func TestDefaultPhoneConfig(t *testing.T) {
	cfg := DefaultPhoneConfig()
	if !cfg.Dimmunix {
		t.Error("default phone must have immunity on")
	}
	if cfg.History == nil {
		t.Error("default phone must carry a history store")
	}
}

func TestScenarioOutcomeStrings(t *testing.T) {
	if OutcomeCompleted.String() != "completed" || OutcomeFroze.String() != "froze" {
		t.Error("outcome strings wrong")
	}
	if ScenarioOutcome(9).String() == "" {
		t.Error("unknown outcome must render")
	}
}

func TestFreezeEventsExposed(t *testing.T) {
	ph := NewPhone(testPhoneConfig(true, core.NewMemHistory()))
	if err := ph.Boot(); err != nil {
		t.Fatal(err)
	}
	defer ph.Shutdown()
	done, err := ph.System().NotificationRace()
	if err != nil {
		t.Fatal(err)
	}
	_ = done
	select {
	case name := <-ph.FreezeEvents():
		if name != "android.ui" {
			t.Errorf("freeze event = %q", name)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no freeze event")
	}
}

func TestMessageQueueLen(t *testing.T) {
	p := testProc(t)
	q := newMessageQueue(p, "q")
	th, err := p.Start("w", func(th *vm.Thread) {
		q.Enqueue(th, Message{What: 1})
		q.Enqueue(th, Message{What: 2})
		if n := q.Len(th); n != 2 {
			t.Errorf("Len = %d, want 2", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-th.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("thread hung")
	}
}

func TestLooperName(t *testing.T) {
	p := testProc(t)
	l, err := StartLooper(p, "named")
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "named" {
		t.Errorf("Name = %q", l.Name())
	}
	if h := NewHandler(l, "h", nil); h.Looper() != l || h.Name() != "h" {
		t.Error("handler accessors wrong")
	}
}
