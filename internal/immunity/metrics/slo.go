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

// SLO declares one objective over the Rates sampler: a windowed
// histogram quantile (p99 report latency < target seconds), a windowed
// counter rate (shed rate == 0), or an instantaneous gauge reading
// (push backlog < target frames). The window is the sampler's shortest.
// The objective holds while the observed value is <= Target; a window
// with no data holds trivially — an idle system breaches nothing.
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

// Evaluator drives declared SLOs off the Rates ticker: every tick it
// computes each objective's observed value, advances the ok/warn/breach
// machine, and exports the verdicts as
//
//	immunity_slo_state{slo="report-latency"}    0 ok / 1 warn / 2 breach
//	immunity_slo_breaches_total{slo="..."}      escalations to breach
//
// The hysteresis is deliberate: one bad tick is warn (noise-tolerant),
// two consecutive bad ticks breach (pageable), three consecutive good
// ticks recover — so the breach→ok transition after a storm is a real
// drain signal, not a flap. Controllers registered with OnVerdict (the
// admission pool's Bind) run after every evaluation tick, outside the
// evaluator lock.
type Evaluator struct {
	reg    *Registry
	rates  *Rates
	window time.Duration // the sampler's shortest

	mu       sync.Mutex
	slos     []*sloEval
	verdicts []func()
}

type sloEval struct {
	cfg        SLO
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

// NewEvaluator declares the objectives and registers the evaluator on
// the sampler's tick. Source families are auto-tracked on rates. A nil
// registry or sampler returns nil (evaluation disabled; nil-safe).
func NewEvaluator(reg *Registry, rates *Rates, slos []SLO) *Evaluator {
	if reg == nil || rates == nil {
		return nil
	}
	e := &Evaluator{reg: reg, rates: rates, window: rates.windows[0]}
	stateVec := reg.GaugeVec("immunity_slo_state",
		"SLO state machine position per objective: 0 ok, 1 warn, 2 breach.", "slo")
	breachVec := reg.CounterVec("immunity_slo_breaches_total",
		"Escalations to breach per objective.", "slo")
	for _, cfg := range slos {
		if cfg.QuantileOf != "" {
			rates.TrackHistogram(cfg.QuantileOf)
		} else if cfg.RateOf != "" {
			rates.TrackCounter(cfg.RateOf)
		}
		s := &sloEval{cfg: cfg,
			stateGauge: stateVec.With(cfg.Name),
			breachCtr:  breachVec.With(cfg.Name)}
		s.stateGauge.Set(int64(SLOOK))
		e.slos = append(e.slos, s)
	}
	rates.OnTick(e.tick)
	return e
}

// OnVerdict registers fn to run after every evaluation tick, outside
// the evaluator lock (fn may call State/Snapshot freely).
func (e *Evaluator) OnVerdict(fn func()) {
	if e == nil || fn == nil {
		return
	}
	e.mu.Lock()
	e.verdicts = append(e.verdicts, fn)
	e.mu.Unlock()
}

func (e *Evaluator) tick() {
	e.mu.Lock()
	now := time.Now()
	for _, s := range e.slos {
		s.observed, s.hasData = e.observe(s.cfg)
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

func (e *Evaluator) observe(cfg SLO) (float64, bool) {
	if cfg.QuantileOf != "" {
		return e.rates.WindowQuantile(cfg.QuantileOf, "", 0.99, e.window)
	}
	if cfg.RateOf != "" {
		return e.rates.Rate(cfg.RateOf, "", e.window)
	}
	if cfg.GaugeOf != "" {
		return e.reg.GaugeValue(cfg.GaugeOf, "")
	}
	return 0, false
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
			Window:   windowLabel(e.window),
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
