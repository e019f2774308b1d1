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
// notification while another expands the status bar, and a two-party gate
// (vm.Gate) holds each inside its first critical section until both
// arrive, or until Dimmunix suspends one of them first. The returned
// channel closes if both operations complete; on a deadlock it never
// closes and the watchdog reports the freeze instead.
func (ss *SystemServer) NotificationRace() (<-chan struct{}, error) {
	// Only an expansion this race causes counts.
	for len(ss.StatusBar.expansionsDone) > 0 {
		<-ss.StatusBar.expansionsDone
	}
	return startRace(ss, [2]racer{ss.NMS, ss.StatusBar}, ss.StatusBar.ExpansionsDone(),
		// The notifying thread: an app's binder call executing in
		// system_server, as binder transactions do.
		raceThread{"Binder-1", func(t *vm.Thread) {
			t.Call("android.os.Binder", "execTransact", 287, func() {
				ss.NMS.EnqueueNotificationWithTag(t, "com.example.messenger", "new-message", 1)
			})
		}},
		// The expanding thread: the input path posting the expand to the
		// $H handler (the expansion itself runs on the UI looper).
		raceThread{"InputDispatcher", func(t *vm.Thread) {
			t.Call("com.android.server.InputDispatcher", "notifyMotion", 166, func() {
				ss.StatusBar.ExpandNotificationsPanel(t)
			})
		}})
}

// WindowRace drives the second platform deadlock: an app start (AMS lock →
// WMS lock) racing a window animation step (WMS lock → AMS lock), with the
// same gate as NotificationRace. The returned channel closes if both
// operations complete.
func (ss *SystemServer) WindowRace() (<-chan struct{}, error) {
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
	return startRace(ss, [2]racer{ss.AMS, ss.WMS}, ss.WMS.AnimationsDone(),
		raceThread{"Binder-2", func(t *vm.Thread) {
			t.Call("android.os.Binder", "execTransact", 287, func() {
				ss.AMS.StartActivity(t, component)
			})
		}},
		raceThread{"AnimationThread", ss.WMS.ScheduleAnimation})
}

// racer is a service with a race window: its race hook runs inside its
// first critical section.
type racer interface{ SetRaceHook(func()) }

// raceThread is one side of a race: a thread name and its body.
type raceThread struct {
	name string
	body func(*vm.Thread)
}

// startRace runs one forced race in system_server: both services' race
// hooks arrive at one gate, then the binder thread and the other side
// start. The returned channel closes, and the hooks are cleared, once the
// binder call has returned without error and uiDone has delivered. It
// never closes when the binder thread fails or the process starts dying
// first (a frozen phone is rebooted).
func startRace[T any](ss *SystemServer, hooks [2]racer, uiDone <-chan T, binder, other raceThread) (<-chan struct{}, error) {
	gate := ss.Proc.NewGate(2)
	for _, h := range hooks {
		h.SetRaceHook(func() { gate.Arrive() })
	}
	b, err := ss.Proc.Start(binder.name, binder.body)
	if err != nil {
		return nil, fmt.Errorf("race %s: %w", binder.name, err)
	}
	if _, err := ss.Proc.Start(other.name, other.body); err != nil {
		return nil, fmt.Errorf("race %s: %w", other.name, err)
	}
	done := make(chan struct{})
	go func() {
		binderDone := b.Done()
		for binderDone != nil || uiDone != nil {
			select {
			case <-binderDone:
				if b.Err() != nil {
					return
				}
				binderDone = nil
			case <-uiDone:
				uiDone = nil
			case <-ss.Proc.Dying():
				return
			}
		}
		for _, h := range hooks {
			h.SetRaceHook(nil)
		}
		close(done)
	}()
	return done, nil
}
