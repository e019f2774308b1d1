package android

import (
	"sync"

	"github.com/dimmunix/dimmunix/internal/vm"
)

// Status bar handler message codes (StatusBarService$H in Android 2.2).
const (
	msgAnimateExpand   = 1000
	msgAnimateCollapse = 1001
)

// StatusBarService models com.android.server.status.StatusBarService: the
// status bar state guarded by its own monitor, manipulated both by binder
// calls from other services (AddNotification) and by its $H handler on the
// UI thread (panel expansion). Expanding the panel calls back into the
// notification manager while the status-bar lock is held — with
// NotificationManagerService.enqueueNotificationWithTag holding its list
// lock and calling in the opposite direction, this is Android issue 7986:
// the two services deadlock and the whole interface freezes.
type StatusBarService struct {
	proc *vm.Process
	// mStatusBarLock guards icons and expansion state (the monitor the $H
	// handler holds during expansion).
	mStatusBarLock *vm.Object
	callbacks      NotificationCallbacks
	h              *Handler

	icons           []string
	expandedVisible bool
	// expansionsDone signals each completed panel expansion, so scenario
	// drivers outside the VM can wait on it without a VM thread. The send
	// never blocks the UI looper: the buffer (64, like the window
	// manager's animationsDone) holds far more expansions than a scenario
	// makes between reads, and a signal beyond it is dropped.
	expansionsDone chan struct{}

	// raceHook runs while mStatusBarLock is held during expansion, before
	// the callback into the notification manager. Guarded by hookMu: it is
	// written by scenario drivers outside the VM.
	hookMu   sync.Mutex
	raceHook func()
}

var _ Service = (*StatusBarService)(nil)

const (
	sbsClass  = "com.android.server.status.StatusBarService"
	sbsHClass = "com.android.server.status.StatusBarService$H"
)

// NewStatusBarService creates the service; its $H handler runs on the
// given looper (the system UI thread).
func NewStatusBarService(p *vm.Process, uiLooper *Looper) *StatusBarService {
	s := &StatusBarService{
		proc:           p,
		mStatusBarLock: p.NewObject("SBS.mStatusBarLock"),
		expansionsDone: make(chan struct{}, 64),
	}
	s.h = NewHandler(uiLooper, "StatusBarService$H", s.handleMessage)
	return s
}

// ServiceName implements Service.
func (s *StatusBarService) ServiceName() string { return "statusbar" }

// SetNotificationCallbacks wires the callback interface (implemented by
// the notification manager).
func (s *StatusBarService) SetNotificationCallbacks(cb NotificationCallbacks) {
	s.callbacks = cb
}

// SetRaceHook installs the scenario race window. nil disables it.
func (s *StatusBarService) SetRaceHook(fn func()) {
	s.hookMu.Lock()
	s.raceHook = fn
	s.hookMu.Unlock()
}

// runRaceHook invokes the installed hook, if any.
func (s *StatusBarService) runRaceHook() {
	s.hookMu.Lock()
	fn := s.raceHook
	s.hookMu.Unlock()
	if fn != nil {
		fn()
	}
}

// Handler returns the service's $H handler (monitored by the watchdog).
func (s *StatusBarService) Handler() *Handler { return s.h }

// AddNotification installs a status bar icon for a notification. Called by
// the notification manager while it holds mNotificationList.
func (s *StatusBarService) AddNotification(t *vm.Thread, key string) {
	t.Call(sbsClass, "addNotification", 392, func() {
		s.mStatusBarLock.Synchronized(t, func() {
			s.icons = append(s.icons, key)
		})
	})
}

// RemoveNotification retracts an icon.
func (s *StatusBarService) RemoveNotification(t *vm.Thread, key string) {
	t.Call(sbsClass, "removeNotification", 421, func() {
		s.mStatusBarLock.Synchronized(t, func() {
			for i, k := range s.icons {
				if k == key {
					s.icons = append(s.icons[:i], s.icons[i+1:]...)
					return
				}
			}
		})
	})
}

// ExpandNotificationsPanel posts the expansion animation to the $H
// handler, as the real service does when the user drags the bar down.
func (s *StatusBarService) ExpandNotificationsPanel(t *vm.Thread) {
	t.Call(sbsClass, "expandNotificationsPanel", 508, func() {
		s.h.Send(t, Message{What: msgAnimateExpand})
	})
}

// CollapseNotificationsPanel posts the collapse animation.
func (s *StatusBarService) CollapseNotificationsPanel(t *vm.Thread) {
	t.Call(sbsClass, "collapseNotificationsPanel", 519, func() {
		s.h.Send(t, Message{What: msgAnimateCollapse})
	})
}

// handleMessage is StatusBarService$H.handleMessage, running on the UI
// looper thread. Expansion takes the status-bar lock and calls back into
// the notification manager — the paper's second deadlocked call path.
func (s *StatusBarService) handleMessage(t *vm.Thread, msg Message) {
	t.Call(sbsHClass, "handleMessage", 123, func() {
		switch msg.What {
		case msgAnimateExpand:
			s.mStatusBarLock.Synchronized(t, func() {
				s.expandedVisible = true
				s.runRaceHook()
				// Still holding the status-bar lock: call back into the
				// notification manager.
				if s.callbacks != nil {
					s.callbacks.OnPanelRevealed(t)
				}
				select {
				case s.expansionsDone <- struct{}{}:
				default:
				}
			})
		case msgAnimateCollapse:
			s.mStatusBarLock.Synchronized(t, func() {
				s.expandedVisible = false
			})
		}
	})
}

// ExpansionsDone exposes completed expansion signals (lock-free; scenario
// drivers select on it).
func (s *StatusBarService) ExpansionsDone() <-chan struct{} { return s.expansionsDone }

// IconCount returns the number of installed icons.
func (s *StatusBarService) IconCount(t *vm.Thread) int {
	n := 0
	t.Call(sbsClass, "getIconCount", 612, func() {
		s.mStatusBarLock.Synchronized(t, func() { n = len(s.icons) })
	})
	return n
}

// Icons returns a copy of the installed icon keys.
func (s *StatusBarService) Icons(t *vm.Thread) []string {
	var out []string
	t.Call(sbsClass, "getIcons", 623, func() {
		s.mStatusBarLock.Synchronized(t, func() {
			out = make([]string, len(s.icons))
			copy(out, s.icons)
		})
	})
	return out
}

// censusSites lists this service's static synchronization sites.
func (s *StatusBarService) censusSites() []*vm.Site {
	return []*vm.Site{
		vm.NewSite(sbsClass, "addNotification", 392),
		vm.NewSite(sbsClass, "removeNotification", 421),
		vm.NewSite(sbsHClass, "handleMessage", 123),
		vm.NewSite(sbsHClass, "handleMessage", 141),
		vm.NewSite(sbsClass, "getIconCount", 612),
		vm.NewSite(sbsClass, "getIcons", 623),
	}
}
