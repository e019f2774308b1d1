package android

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/vm"
)

// Watchdog models com.android.server.Watchdog's HandlerChecker scheme: it
// keeps one outstanding heartbeat message per monitored handler and
// declares the platform frozen when a heartbeat has not executed within
// the freeze threshold — which is what happens when a looper thread is
// party to a deadlock. The threshold is deliberately much larger than the
// check interval (the real watchdog uses 60s) so that transient blocking —
// including Dimmunix avoidance yields — is never misread as a freeze. On a
// real phone the watchdog kills system_server; here it reports the freeze
// so the Phone controller can reboot.
type Watchdog struct {
	proc      *vm.Process
	interval  time.Duration
	threshold time.Duration
	onFreeze  func(handlerName string)
	checks    []*handlerCheck
	thread    *vm.Thread
}

// handlerCheck is one monitored looper thread's heartbeat state. Like
// Android's per-thread HandlerChecker, handlers sharing a looper share a
// check: a frozen looper is one freeze, however many services it hosts.
type handlerCheck struct {
	looper  *Looper
	handler *Handler
	// completed is set by the heartbeat executing on the looper.
	completed atomic.Bool
	// postedAt is when the outstanding heartbeat was posted.
	postedAt time.Time
	// outstanding reports whether a heartbeat is in flight.
	outstanding bool
	// reported suppresses duplicate freeze reports per episode.
	reported bool
}

// StartWatchdog launches the watchdog thread in p monitoring the given
// handlers' looper threads. A looper is declared frozen when its heartbeat
// stays unprocessed for longer than threshold. onFreeze is invoked (from
// the watchdog's VM thread) with the looper name, once per looper per
// freeze episode; it must not block.
func StartWatchdog(p *vm.Process, handlers []*Handler, interval, threshold time.Duration, onFreeze func(string)) (*Watchdog, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("watchdog: non-positive interval %v", interval)
	}
	if threshold < interval {
		return nil, fmt.Errorf("watchdog: threshold %v below interval %v", threshold, interval)
	}
	w := &Watchdog{proc: p, interval: interval, threshold: threshold, onFreeze: onFreeze}
	seen := make(map[*Looper]bool, len(handlers))
	for _, h := range handlers {
		if seen[h.Looper()] {
			continue
		}
		seen[h.Looper()] = true
		w.checks = append(w.checks, &handlerCheck{looper: h.Looper(), handler: h})
	}
	th, err := p.Start("watchdog", w.run)
	if err != nil {
		return nil, fmt.Errorf("watchdog: %w", err)
	}
	w.thread = th
	return w, nil
}

// run is the watchdog loop: keep a heartbeat outstanding per handler and
// flag the ones that exceed the threshold.
func (w *Watchdog) run(t *vm.Thread) {
	t.Call("com.android.server.Watchdog", "run", 351, func() {
		for w.sleep() {
			now := time.Now()
			for _, c := range w.checks {
				w.checkOne(t, c, now)
			}
		}
	})
}

// checkOne advances one handler's heartbeat state machine.
func (w *Watchdog) checkOne(t *vm.Thread, c *handlerCheck, now time.Time) {
	if c.outstanding {
		if c.completed.Load() {
			// Heartbeat landed: the handler is healthy again.
			c.outstanding = false
			c.reported = false
		} else if now.Sub(c.postedAt) >= w.threshold {
			if !c.reported {
				c.reported = true
				if w.onFreeze != nil {
					w.onFreeze(c.looper.Name())
				}
			}
			return // keep the episode open until the heartbeat lands
		} else {
			return // still within threshold: wait
		}
	}
	c.completed.Store(false)
	c.postedAt = now
	c.outstanding = true
	check := c
	c.handler.Post(t, func(*vm.Thread) { check.completed.Store(true) })
}

// sleep waits one interval, or until the process starts dying, so
// teardown is prompt. It reports false when the process died meanwhile.
func (w *Watchdog) sleep() bool {
	timer := time.NewTimer(w.interval)
	defer timer.Stop()
	select {
	case <-w.proc.Dying():
		return false
	case <-timer.C:
		return !w.proc.Killed()
	}
}
