package metrics

import (
	"sync"
	"time"
)

// SLOState is an objective's position in the ok/warn/breach machine.
type SLOState int

const (
	// SLOOK: the objective holds.
	SLOOK SLOState = iota
	// SLOWarn: violating, but not for long enough to page.
	SLOWarn
	// SLOBreach: violated for breachAfter consecutive ticks.
	SLOBreach
)

// The state machine's hysteresis: breachAfter consecutive violating
// ticks escalate to breach, clearAfter consecutive holding ticks return
// any violation state to ok.
const (
	breachAfter = 2
	clearAfter  = 3
)

// evalWindow is the trailing window windowed objectives are judged
// over. A tick longer than it widens the window to one tick, so every
// objective still spans at least one sample step.
const evalWindow = 10 * time.Second

func (s SLOState) String() string {
	switch s {
	case SLOWarn:
		return "warn"
	case SLOBreach:
		return "breach"
	default:
		return "ok"
	}
}

// SLO declares one objective: a windowed histogram quantile (p99 report
// latency < target seconds), a windowed counter rate (shed rate == 0),
// or an instantaneous gauge reading (push backlog < target frames). The
// objective holds while the observed value is <= Target; a window with
// no data holds trivially — an idle system breaches nothing.
type SLO struct {
	// Name identifies the objective (the slo label of its state gauge
	// and its entry on /slo).
	Name string

	// QuantileOf names an unlabeled histogram family; the observed value
	// is its p99 over the window. Takes precedence over RateOf.
	QuantileOf string

	// RateOf names an unlabeled counter family; the observed value is
	// its per-second rate over the window.
	RateOf string

	// GaugeOf names a gauge family; the observed value is the sum across
	// every series at tick time — no windowing (a backlog family summed
	// across peers). Evaluated only when QuantileOf and RateOf are empty.
	GaugeOf string

	// Target is the inclusive ceiling the observed value must stay at
	// or under (seconds for quantile objectives, per-second for rates).
	Target float64
}

// SLOTransition records one state change.
type SLOTransition struct {
	From string    `json:"from"`
	To   string    `json:"to"`
	At   time.Time `json:"at"`
}

// SLOStatus is one objective's evaluation snapshot (the /slo payload).
type SLOStatus struct {
	Name     string  `json:"name"`
	State    string  `json:"state"`
	Observed float64 `json:"observed"`
	Target   float64 `json:"target"`
	Window   string  `json:"window"`
	// HasData reports whether the window held any observation at the
	// last tick; Observed is 0, not meaningful, without it.
	HasData bool `json:"has_data"`
	// Breaches counts ok/warn→breach escalations since start.
	Breaches       uint64         `json:"breaches_total"`
	LastTransition *SLOTransition `json:"last_transition,omitempty"`
}

// Evaluator samples the declared SLOs' sources and judges them, once per
// tick: it snapshots each windowed objective's source into a ring,
// computes every objective's observed value, advances the ok/warn/breach
// machine, and exports the verdicts as
//
//	immunity_slo_state{slo="report-latency"}    0 ok / 1 warn / 2 breach
//	immunity_slo_breaches_total{slo="..."}      escalations to breach
//
// A windowed objective keeps one ring of bucket-count snapshots spanning
// the window; a counter is sampled as a one-bucket snapshot, so rates and
// quantiles share it. The window is what makes recovery possible: a
// cumulative histogram never forgets a storm, but the p99 over the last
// window's bucket deltas drains once the storm does. Sources are resolved
// by name on each tick until their family exists, so the evaluator may be
// built before the subsystem that registers them.
//
// The hysteresis is deliberate: one bad tick is warn (noise-tolerant),
// two consecutive bad ticks breach (pageable), three consecutive good
// ticks recover — so the breach→ok transition after a storm is a real
// drain signal, not a flap. Controllers registered with OnVerdict (the
// admission pool's Bind) run after every tick, outside the evaluator
// lock. All methods are nil-receiver safe.
type Evaluator struct {
	reg      *Registry
	interval time.Duration
	window   time.Duration // max(evalWindow, interval)

	mu       sync.Mutex
	slos     []*sloEval
	verdicts []func()
	started  bool

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

type sloEval struct {
	cfg        SLO
	ring       *sampleRing // nil for gauge objectives
	counts     func() []uint64
	upper      []float64 // the histogram's bucket bounds
	state      SLOState
	badStreak  int
	goodStreak int
	observed   float64
	hasData    bool
	breaches   uint64
	last       *SLOTransition
	stateGauge *Gauge
	breachCtr  *Counter
}

// NewEvaluator declares the objectives, sampled and judged every
// interval (default 1s) once Start runs the ticker, or on each Tick. A
// nil registry returns nil (evaluation disabled; nil-safe).
func NewEvaluator(reg *Registry, interval time.Duration, slos []SLO) *Evaluator {
	if reg == nil {
		return nil
	}
	if interval <= 0 {
		interval = time.Second
	}
	e := &Evaluator{reg: reg, interval: interval, window: max(evalWindow, interval),
		stopCh: make(chan struct{}), done: make(chan struct{})}
	steps := int(e.window / interval)
	stateVec := reg.GaugeVec("immunity_slo_state",
		"SLO state machine position per objective: 0 ok, 1 warn, 2 breach.", "slo")
	breachVec := reg.CounterVec("immunity_slo_breaches_total",
		"Escalations to breach per objective.", "slo")
	for _, cfg := range slos {
		s := &sloEval{cfg: cfg,
			stateGauge: stateVec.With(cfg.Name),
			breachCtr:  breachVec.With(cfg.Name)}
		if cfg.QuantileOf != "" || cfg.RateOf != "" {
			s.ring = &sampleRing{vals: make([][]uint64, steps+1)}
		}
		s.stateGauge.Set(int64(SLOOK))
		e.slos = append(e.slos, s)
	}
	return e
}

// OnVerdict registers fn to run after every tick, outside the evaluator
// lock (fn may call State/Snapshot freely).
func (e *Evaluator) OnVerdict(fn func()) {
	if e == nil || fn == nil {
		return
	}
	e.mu.Lock()
	e.verdicts = append(e.verdicts, fn)
	e.mu.Unlock()
}

// Start runs the ticker in a goroutine until Stop. Idempotent.
func (e *Evaluator) Start() {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()
	go func() {
		defer close(e.done)
		t := time.NewTicker(e.interval)
		defer t.Stop()
		for {
			select {
			case <-e.stopCh:
				return
			case <-t.C:
				e.Tick()
			}
		}
	}()
}

// Stop halts the ticker. Idempotent; safe before Start.
func (e *Evaluator) Stop() {
	if e == nil {
		return
	}
	e.stopOnce.Do(func() { close(e.stopCh) })
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if started {
		<-e.done
	}
}

// Tick runs one pass: sample every windowed source, judge every
// objective, then run the OnVerdict hooks. Exported so tests can drive
// the evaluator deterministically.
func (e *Evaluator) Tick() {
	if e == nil {
		return
	}
	e.mu.Lock()
	now := time.Now()
	for _, s := range e.slos {
		e.sample(s)
		s.observed, s.hasData = e.observe(s)
		bad := s.hasData && s.observed > s.cfg.Target
		prev := s.state
		if bad {
			s.badStreak++
			s.goodStreak = 0
			if s.badStreak >= breachAfter {
				s.state = SLOBreach
			} else if s.state == SLOOK {
				s.state = SLOWarn
			}
		} else {
			s.goodStreak++
			s.badStreak = 0
			if s.state != SLOOK && s.goodStreak >= clearAfter {
				s.state = SLOOK
			}
		}
		if s.state != prev {
			s.last = &SLOTransition{From: prev.String(), To: s.state.String(), At: now}
			if s.state == SLOBreach {
				s.breaches++
				s.breachCtr.Inc()
			}
		}
		s.stateGauge.Set(int64(s.state))
	}
	fns := append([]func(){}, e.verdicts...)
	e.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// sample pushes a windowed objective's source counts onto its ring,
// first resolving the source if its family has appeared.
func (e *Evaluator) sample(s *sloEval) {
	if s.ring == nil {
		return
	}
	if s.counts == nil {
		if s.cfg.QuantileOf != "" {
			if h, ok := e.reg.unlabeled(s.cfg.QuantileOf, typeHistogram).(*Histogram); ok {
				s.upper, s.counts = h.upper, h.bucketCounts
			}
		} else if c, ok := e.reg.unlabeled(s.cfg.RateOf, typeCounter).(*Counter); ok {
			s.counts = func() []uint64 { return []uint64{c.Value()} }
		}
		if s.counts == nil {
			return
		}
	}
	s.ring.push(s.counts())
}

func (e *Evaluator) observe(s *sloEval) (float64, bool) {
	if s.ring == nil {
		return e.reg.GaugeValue(s.cfg.GaugeOf)
	}
	delta, steps := s.ring.delta()
	if steps == 0 {
		return 0, false
	}
	if s.cfg.QuantileOf == "" {
		return float64(delta[0]) / (float64(steps) * e.interval.Seconds()), true
	}
	var total uint64
	for _, c := range delta {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	return quantileFromCounts(s.upper, delta, 0.99), true
}

// sampleRing holds a source's last len(vals) bucket-count snapshots.
type sampleRing struct {
	vals [][]uint64
	n    int // total pushes
}

func (r *sampleRing) push(counts []uint64) {
	r.vals[r.n%len(r.vals)] = counts
	r.n++
}

// delta returns the per-bucket counts added between the oldest snapshot
// held and the newest, and how many ticks apart they are (0: fewer than
// two snapshots, no data yet).
func (r *sampleRing) delta() ([]uint64, int) {
	steps := min(r.n, len(r.vals)) - 1
	if steps <= 0 {
		return nil, 0
	}
	cur := r.vals[(r.n-1)%len(r.vals)]
	old := r.vals[(r.n-1-steps)%len(r.vals)]
	delta := make([]uint64, len(cur))
	for i := range cur {
		if i < len(old) && cur[i] > old[i] {
			delta[i] = cur[i] - old[i]
		}
	}
	return delta, steps
}

// State returns the named objective's current state.
func (e *Evaluator) State(name string) (SLOState, bool) {
	if e == nil {
		return SLOOK, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.slos {
		if s.cfg.Name == name {
			return s.state, true
		}
	}
	return SLOOK, false
}

// Snapshot returns every objective's status in declaration order.
func (e *Evaluator) Snapshot() []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.slos))
	for _, s := range e.slos {
		st := SLOStatus{
			Name:     s.cfg.Name,
			State:    s.state.String(),
			Observed: s.observed,
			Target:   s.cfg.Target,
			Window:   e.window.String(),
			HasData:  s.hasData,
			Breaches: s.breaches,
		}
		if s.last != nil {
			t := *s.last
			st.LastTransition = &t
		}
		out = append(out, st)
	}
	return out
}
