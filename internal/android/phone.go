package android

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// PhoneConfig configures a simulated phone.
type PhoneConfig struct {
	// Dimmunix enables platform-wide deadlock immunity (the Android
	// Dimmunix build); false is the vanilla Android baseline.
	Dimmunix bool
	// History is the persistent deadlock history shared by every process
	// across reboots (the on-flash history file). Required when Dimmunix
	// is on and immunity should survive reboots.
	History core.HistoryStore
	// Immunity, when non-nil, is the device's live-propagation hub: it
	// supersedes History as the processes' store (give the hub the
	// on-flash store instead), every forked process subscribes for
	// hot-installs, and the system server registers the "dimmunix"
	// service. The hub outlives reboots — a rebooted phone's processes
	// resubscribe to the same hub, like the system re-binding a service.
	Immunity *immunity.Service
	// WatchdogInterval is the handler heartbeat period.
	WatchdogInterval time.Duration
	// WatchdogThreshold is how long a heartbeat may stay unprocessed
	// before the handler is declared frozen. An avoidance yield lasts only
	// until the thread it waits for releases its lock, so the threshold
	// need only exceed the longest message a healthy looper handles, plus
	// scheduling noise; the real Android watchdog uses 60 seconds.
	// Non-positive means 3 seconds.
	WatchdogThreshold time.Duration
}

// defaultWatchdogThreshold is the freeze threshold when none is set.
const defaultWatchdogThreshold = 3 * time.Second

// DefaultPhoneConfig returns a Dimmunix-enabled phone with an in-memory
// history.
func DefaultPhoneConfig() PhoneConfig {
	return PhoneConfig{
		Dimmunix:          true,
		History:           core.NewMemHistory(),
		WatchdogInterval:  50 * time.Millisecond,
		WatchdogThreshold: defaultWatchdogThreshold,
	}
}

// ScenarioOutcome is the result of driving a scenario on the phone.
type ScenarioOutcome int

// Scenario outcomes.
const (
	// OutcomeCompleted: both operations finished; no freeze.
	OutcomeCompleted ScenarioOutcome = iota + 1
	// OutcomeFroze: the watchdog reported a frozen handler (deadlock).
	OutcomeFroze
)

// String returns a readable outcome.
func (o ScenarioOutcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeFroze:
		return "froze"
	default:
		return fmt.Sprintf("ScenarioOutcome(%d)", int(o))
	}
}

// ErrScenarioTimeout reports that a scenario neither completed nor froze
// within its deadline.
var ErrScenarioTimeout = errors.New("android: scenario timed out")

// Phone is the simulated device: a Zygote, a system server, and
// (optionally) application processes, with boot/freeze/reboot lifecycle.
type Phone struct {
	cfg PhoneConfig

	mu     sync.Mutex
	zygote *vm.Zygote
	system *SystemServer
	boots  int

	freezeCh chan string
	anrs     anrLog
}

// NewPhone creates a phone; call Boot to start it.
func NewPhone(cfg PhoneConfig) *Phone {
	if cfg.WatchdogInterval <= 0 {
		cfg.WatchdogInterval = 50 * time.Millisecond
	}
	if cfg.WatchdogThreshold <= 0 {
		cfg.WatchdogThreshold = defaultWatchdogThreshold
	}
	return &Phone{cfg: cfg, freezeCh: make(chan string, 16)}
}

// Boot starts the platform: a fresh Zygote (whose forked processes load
// the persistent history) and the system server.
func (ph *Phone) Boot() error {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if ph.system != nil {
		return errors.New("android: phone already booted")
	}
	zopts := []vm.ZygoteOption{vm.WithDimmunix(ph.cfg.Dimmunix)}
	if ph.cfg.Immunity != nil {
		zopts = append(zopts, vm.WithSignatureBus(ph.cfg.Immunity))
	} else if ph.cfg.History != nil {
		zopts = append(zopts, vm.WithHistory(ph.cfg.History))
	}
	ph.zygote = vm.NewZygote(zopts...)
	ss, err := BootSystemServer(ph.zygote, ph.cfg.Immunity, ph.cfg.WatchdogInterval, ph.cfg.WatchdogThreshold, ph.reportFreeze)
	if err != nil {
		return fmt.Errorf("phone boot: %w", err)
	}
	ph.system = ss
	ph.boots++
	return nil
}

// reportFreeze captures the ANR diagnostics and forwards the watchdog
// freeze report without ever blocking the watchdog thread.
func (ph *Phone) reportFreeze(looper string) {
	if sys := ph.System(); sys != nil {
		ph.anrs.add(&ANRReport{
			Looper:  looper,
			Process: sys.Proc.Name(),
			When:    time.Now(),
			Threads: sys.Proc.DumpThreads(),
		})
	}
	select {
	case ph.freezeCh <- looper:
	default:
	}
}

// LastANR returns the most recent freeze's thread-dump report, or nil.
func (ph *Phone) LastANR() *ANRReport { return ph.anrs.last() }

// ANRs returns all freeze reports captured since the phone was created
// (they survive reboots, like files in /data/anr).
func (ph *Phone) ANRs() []*ANRReport { return ph.anrs.all() }

// Shutdown powers the phone off: every process is killed and all threads
// (including frozen ones) are reaped.
func (ph *Phone) Shutdown() {
	ph.mu.Lock()
	zyg := ph.zygote
	ph.zygote = nil
	ph.system = nil
	ph.mu.Unlock()
	if zyg != nil {
		zyg.KillAll()
	}
	ph.drainFreezes()
}

// Reboot is Shutdown followed by Boot: processes restart with fresh cores
// that reload the (now larger) persistent history — the paper's "after
// rebooting the phone, Dimmunix successfully avoided any reoccurrence".
func (ph *Phone) Reboot() error {
	ph.Shutdown()
	return ph.Boot()
}

// drainFreezes clears stale freeze reports across reboots.
func (ph *Phone) drainFreezes() {
	for {
		select {
		case <-ph.freezeCh:
		default:
			return
		}
	}
}

// System returns the current system server (nil before Boot).
func (ph *Phone) System() *SystemServer {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.system
}

// Boots returns how many times the phone has booted.
func (ph *Phone) Boots() int {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.boots
}

// FreezeEvents exposes watchdog freeze reports (handler names).
func (ph *Phone) FreezeEvents() <-chan string { return ph.freezeCh }

// ForkApp launches an application process from the Zygote.
func (ph *Phone) ForkApp(name string) (*vm.Process, error) {
	ph.mu.Lock()
	zyg := ph.zygote
	ph.mu.Unlock()
	if zyg == nil {
		return nil, errors.New("android: phone not booted")
	}
	return zyg.Fork(name)
}

// RunNotificationScenario triggers the issue-7986 interleaving and waits
// until it completes, the watchdog reports a freeze, or the timeout
// passes.
func (ph *Phone) RunNotificationScenario(timeout time.Duration) (ScenarioOutcome, error) {
	return ph.runScenario(timeout, (*SystemServer).NotificationRace)
}

// RunWindowScenario triggers the ActivityManager/WindowManager inversion
// (the platform's second immunizable deadlock) and waits for the outcome.
func (ph *Phone) RunWindowScenario(timeout time.Duration) (ScenarioOutcome, error) {
	return ph.runScenario(timeout, (*SystemServer).WindowRace)
}

// runScenario starts a race scenario and resolves its outcome.
func (ph *Phone) runScenario(timeout time.Duration, start func(*SystemServer) (<-chan struct{}, error)) (ScenarioOutcome, error) {
	ss := ph.System()
	if ss == nil {
		return 0, errors.New("android: phone not booted")
	}
	done, err := start(ss)
	if err != nil {
		return 0, err
	}
	select {
	case <-done:
		return OutcomeCompleted, nil
	case <-ph.freezeCh:
		return OutcomeFroze, nil
	case <-time.After(timeout):
		return 0, ErrScenarioTimeout
	}
}
