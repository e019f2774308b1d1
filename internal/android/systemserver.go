package android

import (
	"fmt"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// SystemServer models Android's system_server process: the UI looper, the
// service registry, the notification manager and status bar services, and
// the watchdog. It is the process that freezes when issue 7986 fires —
// "this deadlock made the whole phone's interface hang".
type SystemServer struct {
	Proc      *vm.Process
	SM        *ServiceManager
	NMS       *NotificationManagerService
	StatusBar *StatusBarService
	AMS       *ActivityManagerService
	WMS       *WindowManagerService
	UILooper  *Looper
	Watchdog  *Watchdog
	Census    *vm.Census
	// Immunity is the registered platform immunity service, nil when the
	// phone runs without the live-propagation tier.
	Immunity *ImmunityService
}

// BootSystemServer forks system_server from the Zygote, starts the UI
// looper, wires the services, registers them, builds the platform census,
// and arms the watchdog. When hub is non-nil the immunity service is
// registered alongside the framework services and every watchdog freeze
// is noted on it with the hub epoch. onFreeze is invoked from the
// watchdog thread when a monitored handler stops processing messages for
// longer than watchdogThreshold.
func BootSystemServer(z *vm.Zygote, hub *immunity.Service, watchdogInterval, watchdogThreshold time.Duration, onFreeze func(string)) (*SystemServer, error) {
	proc, err := z.Fork("system_server")
	if err != nil {
		return nil, fmt.Errorf("boot system_server: %w", err)
	}
	ui, err := StartLooper(proc, "android.ui")
	if err != nil {
		return nil, fmt.Errorf("boot system_server: %w", err)
	}

	ss := &SystemServer{
		Proc:     proc,
		SM:       NewServiceManager(proc),
		UILooper: ui,
	}
	ss.StatusBar = NewStatusBarService(proc, ui)
	ss.NMS = NewNotificationManagerService(proc)
	ss.NMS.SetStatusBar(ss.StatusBar)
	ss.StatusBar.SetNotificationCallbacks(ss.NMS)
	ss.WMS = NewWindowManagerService(proc, ui)
	ss.AMS = NewActivityManagerService(proc)
	ss.AMS.SetWindowManager(ss.WMS)
	ss.WMS.SetActivityManager(ss.AMS)
	if hub != nil {
		ss.Immunity = NewImmunityService(hub)
	}

	// Register the services from a bootstrap thread (registry access
	// synchronizes on a VM monitor, so it needs a VM thread).
	boot, err := proc.Start("system-boot", func(t *vm.Thread) {
		t.Call("com.android.server.SystemServer", "run", 489, func() {
			ss.SM.AddService(t, ss.NMS)
			ss.SM.AddService(t, ss.StatusBar)
			ss.SM.AddService(t, ss.AMS)
			ss.SM.AddService(t, ss.WMS)
			if ss.Immunity != nil {
				ss.SM.AddService(t, ss.Immunity)
			}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("boot system_server: %w", err)
	}
	select {
	case <-boot.Done():
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("boot system_server: service registration hung")
	}
	if err := boot.Err(); err != nil {
		return nil, fmt.Errorf("boot system_server: registration: %w", err)
	}

	census, err := FrameworkCensus(
		ss.NMS.censusSites(),
		ss.StatusBar.censusSites(),
		ss.AMS.censusSites(),
		ss.WMS.censusSites(),
	)
	if err != nil {
		return nil, fmt.Errorf("boot system_server: %w", err)
	}
	ss.Census = census

	monitored := []*Handler{ss.StatusBar.Handler(), ss.WMS.Handler()}
	freeze := onFreeze
	if ss.Immunity != nil {
		// Watchdog integration: every freeze is stamped with the immunity
		// epoch before the platform's own report runs.
		freeze = func(looper string) {
			ss.Immunity.NoteFreeze(looper)
			if onFreeze != nil {
				onFreeze(looper)
			}
		}
	}
	wd, err := StartWatchdog(proc, monitored, watchdogInterval, watchdogThreshold, freeze)
	if err != nil {
		return nil, fmt.Errorf("boot system_server: %w", err)
	}
	ss.Watchdog = wd
	return ss, nil
}

// Shutdown kills the system_server process, reaping all of its threads
// (including deadlocked ones).
func (ss *SystemServer) Shutdown() {
	ss.Proc.Kill()
}

// NotificationRace drives the paper's reproduction: one thread issues a
// notification while another expands the status bar, with a two-party gate
// holding each thread inside its first critical section until both arrive
// (or the gate times out — which is what happens when Dimmunix suspends
// one of them first). The returned channel closes if both operations
// complete; on a deadlock it never closes and the watchdog reports the
// freeze instead.
func (ss *SystemServer) NotificationRace(gateTimeout time.Duration) (<-chan struct{}, error) {
	gate := NewGate(2, gateTimeout)
	ss.NMS.SetRaceHook(func() { gate.Sync() })
	ss.StatusBar.SetRaceHook(func() { gate.Sync() })

	// Only an expansion this race causes counts.
	for len(ss.StatusBar.expansionsDone) > 0 {
		<-ss.StatusBar.expansionsDone
	}

	// The notifying thread: an app's binder call executing in
	// system_server, as binder transactions do.
	notifier, err := ss.Proc.Start("Binder-1", func(t *vm.Thread) {
		t.Call("android.os.Binder", "execTransact", 287, func() {
			ss.NMS.EnqueueNotificationWithTag(t, "com.example.messenger", "new-message", 1)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("notification race: %w", err)
	}
	// The expanding thread: the input path posting the expand to the $H
	// handler (the expansion itself runs on the UI looper).
	expander, err := ss.Proc.Start("InputDispatcher", func(t *vm.Thread) {
		t.Call("com.android.server.InputDispatcher", "notifyMotion", 166, func() {
			ss.StatusBar.ExpandNotificationsPanel(t)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("notification race: %w", err)
	}

	done := make(chan struct{})
	go func() {
		// Both the binder call and the UI expansion must complete.
		if raceCompleted(ss.Proc, notifier, ss.StatusBar.ExpansionsDone(), gateTimeout) {
			// Clear the race hooks for subsequent normal operation.
			ss.NMS.SetRaceHook(nil)
			ss.StatusBar.SetRaceHook(nil)
			close(done)
		}
	}()
	_ = expander
	return done, nil
}

// WindowRace drives the second platform deadlock: an app start (AMS lock →
// WMS lock) racing a window animation step (WMS lock → AMS lock), with the
// same gate scheme as NotificationRace. The returned channel closes if
// both operations complete.
func (ss *SystemServer) WindowRace(gateTimeout time.Duration) (<-chan struct{}, error) {
	gate := NewGate(2, gateTimeout)
	ss.AMS.SetRaceHook(func() { gate.Sync() })
	ss.WMS.SetRaceHook(func() { gate.Sync() })

	const component = "com.example.messenger/.ComposeActivity"
	// Seed a visible window so the animation step has a callback to make,
	// then race the app start against the animation.
	seed, err := ss.Proc.Start("wm-seed", func(t *vm.Thread) {
		ss.WMS.SetAppVisibility(t, "com.example.launcher/.Home", true)
	})
	if err != nil {
		return nil, fmt.Errorf("window race: %w", err)
	}
	select {
	case <-seed.Done():
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("window race: seeding hung")
	}

	starter, err := ss.Proc.Start("Binder-2", func(t *vm.Thread) {
		t.Call("android.os.Binder", "execTransact", 287, func() {
			ss.AMS.StartActivity(t, component)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("window race: %w", err)
	}
	animator, err := ss.Proc.Start("AnimationThread", func(t *vm.Thread) {
		ss.WMS.ScheduleAnimation(t)
	})
	if err != nil {
		return nil, fmt.Errorf("window race: %w", err)
	}

	done := make(chan struct{})
	go func() {
		if raceCompleted(ss.Proc, starter, ss.WMS.AnimationsDone(), gateTimeout) {
			ss.AMS.SetRaceHook(nil)
			ss.WMS.SetRaceHook(nil)
			close(done)
		}
	}()
	_ = animator
	return done, nil
}

// raceCompleted waits for both sides of a scenario race: the binder thread
// returning without error and the UI side signalling completion on uiDone.
// It gives up (false) when the binder thread fails, when the process starts
// dying (a frozen phone is rebooted), or after gateTimeout plus 30 s.
func raceCompleted[T any](proc *vm.Process, binder *vm.Thread, uiDone <-chan T, gateTimeout time.Duration) bool {
	timeout := time.NewTimer(gateTimeout + 30*time.Second)
	defer timeout.Stop()
	binderDone := binder.Done()
	for binderDone != nil || uiDone != nil {
		select {
		case <-binderDone:
			if binder.Err() != nil {
				return false
			}
			binderDone = nil
		case <-uiDone:
			uiDone = nil
		case <-proc.Dying():
			return false
		case <-timeout.C:
			return false
		}
	}
	return true
}
