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
// party to a deadlock. The threshold must exceed the longest message a
// healthy looper handles (the real watchdog uses 60s). On a real phone the
// watchdog kills system_server; here it reports the freeze so the Phone
// controller can reboot. step is the rule; run is its timer shell.
type Watchdog struct {
	proc      *vm.Process
	interval  time.Duration
	threshold time.Duration
	onFreeze  func(handlerName string)
	checks    []*handlerCheck
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
	w, err := newWatchdog(p, handlers, interval, threshold, onFreeze)
	if err != nil {
		return nil, err
	}
	if _, err := p.Start("watchdog", w.run); err != nil {
		return nil, fmt.Errorf("watchdog: %w", err)
	}
	return w, nil
}

// newWatchdog builds a watchdog without starting its thread; tests drive
// its rule with step.
func newWatchdog(p *vm.Process, handlers []*Handler, interval, threshold time.Duration, onFreeze func(string)) (*Watchdog, error) {
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
	return w, nil
}

// run is the watchdog's timer shell: one step per interval, at the tick's
// time, until the process starts dying.
func (w *Watchdog) run(t *vm.Thread) {
	t.Call("com.android.server.Watchdog", "run", 351, func() {
		tick := time.NewTicker(w.interval)
		defer tick.Stop()
		for {
			select {
			case <-w.proc.Dying():
				return
			case now := <-tick.C:
				if w.proc.Killed() {
					return
				}
				w.step(t, now)
			}
		}
	})
}

// step is the watchdog's rule at time now, for every monitored looper: a
// heartbeat that landed closes the episode and a new one is posted; one
// outstanding for threshold or longer is reported, once per episode; one
// outstanding for less is left alone. It reads no clock.
func (w *Watchdog) step(t *vm.Thread, now time.Time) {
	for _, c := range w.checks {
		if c.outstanding {
			if !c.completed.Load() {
				if now.Sub(c.postedAt) >= w.threshold && !c.reported {
					c.reported = true
					if w.onFreeze != nil {
						w.onFreeze(c.looper.Name())
					}
				}
				continue // the episode stays open until the heartbeat lands
			}
			// Heartbeat landed: the handler is healthy again.
			c.outstanding = false
			c.reported = false
		}
		c.completed.Store(false)
		c.postedAt = now
		c.outstanding = true
		check := c
		c.handler.Post(t, func(*vm.Thread) { check.completed.Store(true) })
	}
}
