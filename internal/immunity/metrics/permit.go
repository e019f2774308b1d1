package metrics

import (
	"runtime"
	"sync"
	"time"
)

// The AIMD controller's shape. No caller tunes it: a pool starts at
// initialCapacity and Bind moves it within [minCapacity, maxCapacity].
const (
	initialCapacity = 8
	minCapacity     = 1
	maxCapacity     = 64
	aimdStep        = 1
	aimdBackoff     = 0.5
)

// Pool is a bounded permit pool: the admission-control primitive the
// Exchange puts in front of report ingest. A caller must Acquire a
// permit before doing admitted work and release it after; when all
// permits are taken the caller waits up to the pool's max wait (bounded
// delay — on the hub this blocks the session's transport read
// goroutine, which the device sees as a slow ack and TCP sees as
// backpressure), and is shed if the wait expires. A max wait <= 0 sheds
// immediately on a full pool — no waiter is queued and no timer is
// allocated. Every verdict is counted on the pool's registry
// instruments:
//
//	<name>_admitted_total         permits granted without waiting
//	<name>_delayed_total          permits granted after a bounded wait
//	<name>_shed_total             acquisitions abandoned at max wait
//	<name>_in_use                 permits currently held
//	<name>_capacity               the pool size (live: Resize updates it)
//	<name>_aimd_increases_total   controller steps up
//	<name>_aimd_decreases_total   controller steps down
//
// The capacity is dynamic. Resize grows or shrinks the pool at runtime.
// Waiters queue FIFO, and a released permit is handed to the oldest
// waiter directly, so a resize down never strands an already-queued
// caller and a resize up admits queued waiters immediately.
//
// Bind makes the capacity an additive-increase/multiplicative-decrease
// control loop over an SLO evaluator's verdicts; once per evaluation
// tick:
//
//   - the watched objectives read ok and the pool granted or refused
//     any permit since the last tick → capacity grows (no demand, no
//     probe — an idle pool must not creep up);
//   - any watched objective is in breach, or any acquisition was shed →
//     capacity = max(1, capacity/2);
//   - warn holds capacity (hysteresis, no flapping).
//
// The latency objective is measured with the admission wait included,
// so sustained overload reads as a breach and the pool retreats toward
// one permit — brownout semantics: protect the hub's processing latency
// and push the queueing onto TCP backpressure, where the senders feel
// it. When the storm drains, the windowed quantile recovers, the SLO
// walks breach→ok, and demand grows the pool back: in slow-start below
// the capacity held when the breach began (each tick doubles, capped
// there), then additively, one permit per tick. A pool that is never
// bound keeps its capacity, which is what unit tests want for
// deterministic contention.
//
// A nil *Pool admits everything immediately (admission disabled).
type Pool struct {
	maxWait time.Duration

	admitted  *Counter
	delayed   *Counter
	shed      *Counter
	inUse     *Gauge
	capGauge  *Gauge
	increases *Counter
	decreases *Counter

	mu       sync.Mutex
	capacity int
	held     int // permits out (granted or being handed to a waiter)
	waiters  []*permitWaiter

	// The controller's memory between ticks. Only the evaluator's tick
	// goroutine touches it (Bind once).
	lastVerdicts uint64
	lastShed     uint64
	// lastGood is the capacity held when the current or most recent
	// breach episode began: the slow-start ceiling. backingOff is true
	// from an episode's first decrease until a tick that does not cut.
	lastGood   int
	backingOff bool
}

// permitWaiter is one blocked Acquire. The grantor sets granted and
// closes ch under Pool.mu; the timeout path re-checks granted under the
// same lock, so a permit handed over concurrently with the deadline is
// always either accepted or still countable — never leaked.
type permitWaiter struct {
	ch      chan struct{}
	granted bool
}

// NewPool creates a pool of initialCapacity (8) permits with the given
// bounded wait, registering its instruments under the name prefix.
func NewPool(reg *Registry, name string, maxWait time.Duration) *Pool {
	p := &Pool{
		maxWait:  maxWait,
		capacity: initialCapacity,
		admitted: reg.Counter(name+"_admitted_total", "Permits granted without waiting."),
		delayed:  reg.Counter(name+"_delayed_total", "Permits granted after a bounded wait."),
		shed:     reg.Counter(name+"_shed_total", "Acquisitions abandoned at the max wait."),
		inUse:    reg.Gauge(name+"_in_use", "Permits currently held."),
		capGauge: reg.Gauge(name+"_capacity", "Size of the permit pool."),
		increases: reg.Counter(name+"_aimd_increases_total",
			"Additive capacity increases by the AIMD admission controller."),
		decreases: reg.Counter(name+"_aimd_decreases_total",
			"Multiplicative capacity decreases by the AIMD admission controller."),
	}
	p.capGauge.Set(initialCapacity)
	return p
}

// Acquire obtains a permit, waiting up to the pool's max wait. It
// returns a release func and true on admission, or nil and false when
// the acquisition was shed. The release func must be called exactly
// once; it is never nil when ok is true.
//
// A successful acquire yields the processor once before returning, with
// the permit held. The pool serializes its callers, and a caller that
// re-acquires in a tight loop — one hot session flooding reports —
// would otherwise monopolize the permits for a whole preemption slice
// on a saturated box, starving every other session: the yield is the
// fairness point that lets concurrent callers reach the pool and queue
// behind the holder.
func (p *Pool) Acquire() (release func(), ok bool) {
	if p == nil {
		return func() {}, true
	}
	p.mu.Lock()
	if p.held < p.capacity {
		p.held++
		p.mu.Unlock()
		p.admitted.Inc()
		p.inUse.Add(1)
		runtime.Gosched()
		return p.release, true
	}
	if p.maxWait <= 0 {
		p.mu.Unlock()
		p.shed.Inc()
		return nil, false
	}
	w := &permitWaiter{ch: make(chan struct{})}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	t := time.NewTimer(p.maxWait)
	defer t.Stop()
	select {
	case <-w.ch:
	case <-t.C:
		p.mu.Lock()
		if !w.granted {
			for i, q := range p.waiters {
				if q == w {
					p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
					break
				}
			}
			p.mu.Unlock()
			p.shed.Inc()
			return nil, false
		}
		// A grant raced the deadline: the permit is already ours.
		p.mu.Unlock()
	}
	p.delayed.Inc()
	p.inUse.Add(1)
	runtime.Gosched()
	return p.release, true
}

func (p *Pool) release() {
	p.inUse.Add(-1)
	p.mu.Lock()
	// Hand the permit straight to the oldest waiter — unless a resize
	// shrank the pool below what is out, in which case the permit
	// retires instead.
	if len(p.waiters) > 0 && p.held <= p.capacity {
		w := p.waiters[0]
		p.waiters = p.waiters[1:]
		w.granted = true
		close(w.ch)
	} else {
		p.held--
	}
	p.mu.Unlock()
}

// Resize sets the pool capacity (clamped to >= 1) and immediately
// grants queued waiters any new headroom. Permits already out are never
// revoked: a resize below the in-use count just stops back-filling
// until enough holders release.
func (p *Pool) Resize(capacity int) {
	if p == nil {
		return
	}
	capacity = max(capacity, 1)
	p.mu.Lock()
	p.capacity = capacity
	for p.held < p.capacity && len(p.waiters) > 0 {
		w := p.waiters[0]
		p.waiters = p.waiters[1:]
		p.held++
		w.granted = true
		close(w.ch)
	}
	p.mu.Unlock()
	p.capGauge.Set(int64(capacity))
}

// Bind makes the capacity follow e's verdicts: one AIMD step per
// evaluation tick, reacting to the worst state among the named
// objectives. Bind once — the step's bookkeeping assumes a single
// driving tick loop.
func (p *Pool) Bind(e *Evaluator, slos ...string) {
	if p == nil || e == nil {
		return
	}
	e.OnVerdict(func() { p.step(e, slos) })
}

func (p *Pool) step(e *Evaluator, slos []string) {
	shedNow := p.Shed()
	verdicts := p.Admitted() + p.Delayed() + shedNow
	demand := verdicts > p.lastVerdicts
	shed := shedNow > p.lastShed
	p.lastVerdicts, p.lastShed = verdicts, shedNow

	// No watched objective known yet holds capacity, as warn does.
	worst, known := SLOWarn, false
	for _, name := range slos {
		if st, ok := e.State(name); ok {
			if !known || st > worst {
				worst = st
			}
			known = true
		}
	}
	p.stepVerdict(shed, demand, worst)
}

// stepVerdict applies one control decision to the capacity — split
// from step so tests can drive the recovery slope without an evaluator
// and real clock behind it.
func (p *Pool) stepVerdict(shed, demand bool, state SLOState) {
	capNow := p.Capacity()
	if shed || state == SLOBreach {
		next := max(int(float64(capNow)*aimdBackoff), minCapacity)
		if next < capNow {
			// A breach lasts several ticks and cuts on each; the ceiling
			// to recover to is what held before the first cut.
			if !p.backingOff {
				p.lastGood = capNow
			}
			p.backingOff = true
			p.Resize(next)
			p.decreases.Inc()
		}
		return
	}
	p.backingOff = false
	if state != SLOOK || !demand {
		return
	}
	next := capNow + aimdStep
	if capNow < p.lastGood {
		// Slow-start: double back toward the capacity that held before
		// the breach rather than crawl one permit per tick.
		next = min(capNow*2, p.lastGood)
	}
	if next = min(next, maxCapacity); next > capNow {
		p.Resize(next)
		p.increases.Inc()
	}
}

// Capacity returns the current pool size (0 for a nil pool).
func (p *Pool) Capacity() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity
}

// Admitted returns the admitted-without-wait count.
func (p *Pool) Admitted() uint64 {
	if p == nil {
		return 0
	}
	return p.admitted.Value()
}

// Delayed returns the admitted-after-wait count.
func (p *Pool) Delayed() uint64 {
	if p == nil {
		return 0
	}
	return p.delayed.Value()
}

// Shed returns the shed count.
func (p *Pool) Shed() uint64 {
	if p == nil {
		return 0
	}
	return p.shed.Value()
}

// Increases and Decreases return the controller's step counts.
func (p *Pool) Increases() uint64 {
	if p == nil {
		return 0
	}
	return p.increases.Value()
}

func (p *Pool) Decreases() uint64 {
	if p == nil {
		return 0
	}
	return p.decreases.Value()
}
