package metrics

import (
	"strings"
	"testing"
	"time"
)

// sloFixture wires a histogram-backed latency SLO onto a manually ticked
// sampler: drive h.Observe between Tick calls to steer the verdict.
func sloFixture(t *testing.T, slo SLO) (*Registry, *Histogram, *Rates, *Evaluator) {
	t.Helper()
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	r := NewRates(reg, RatesConfig{Interval: time.Second, Windows: []time.Duration{2 * time.Second}})
	e := NewEvaluator(reg, r, []SLO{slo})
	if e == nil {
		t.Fatal("evaluator should construct")
	}
	return reg, h, r, e
}

func TestSLOStateMachine(t *testing.T) {
	reg, h, r, e := sloFixture(t, SLO{
		Name:       "report-latency",
		QuantileOf: "lat_seconds",
		Target:     0.01, // breached by observations above 10ms
		// breach after 2 bad ticks, clear after 3 good, window 2s
	})

	mustState := func(want SLOState) {
		t.Helper()
		got, ok := e.State("report-latency")
		if !ok || got != want {
			t.Fatalf("state = %v ok=%v, want %v", got, ok, want)
		}
	}

	r.Tick() // empty window holds trivially
	mustState(SLOOK)

	h.Observe(0.5) // p99 → bucket bound 1 > 0.01
	r.Tick()
	mustState(SLOWarn) // one bad tick: warn, not breach

	h.Observe(0.5)
	r.Tick()
	mustState(SLOBreach) // second consecutive bad tick escalates

	// Quiet ticks drain the window; three good ticks recover.
	r.Tick() // breach-era observations still inside the 2s window: bad
	r.Tick()
	r.Tick()
	mustState(SLOBreach) // hysteresis: two good ticks are not enough
	r.Tick()
	mustState(SLOOK)

	snap := e.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d objectives, want 1", len(snap))
	}
	s := snap[0]
	if s.Name != "report-latency" || s.State != "ok" || s.Breaches != 1 {
		t.Fatalf("snapshot = %+v, want ok with 1 breach", s)
	}
	if s.LastTransition == nil || s.LastTransition.From != "breach" || s.LastTransition.To != "ok" {
		t.Fatalf("last transition = %+v, want breach→ok", s.LastTransition)
	}
	if s.Window != "2s" || s.Target != 0.01 {
		t.Fatalf("snapshot carries window %q target %v, want 2s / 0.01", s.Window, s.Target)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`immunity_slo_state{slo="report-latency"} 0`,
		`immunity_slo_breaches_total{slo="report-latency"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSLOWarnRecoversWithoutBreach(t *testing.T) {
	// A 1s window over a 1s tick forgets each tick's observations on the
	// next one — a single bad tick can then clear without breaching.
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	r := NewRates(reg, RatesConfig{Interval: time.Second, Windows: []time.Duration{time.Second}})
	e := NewEvaluator(reg, r, []SLO{{
		Name:       "lat",
		QuantileOf: "lat_seconds",
		Target:     0.01,
	}})
	r.Tick() // baseline
	h.Observe(0.5)
	r.Tick() // warn
	if st, _ := e.State("lat"); st != SLOWarn {
		t.Fatalf("state = %v, want warn after one bad tick", st)
	}
	r.Tick()
	r.Tick()
	if st, _ := e.State("lat"); st != SLOWarn {
		t.Fatalf("state = %v, want warn held until the third good tick", st)
	}
	r.Tick() // third good tick → straight back to ok
	if st, _ := e.State("lat"); st != SLOOK {
		t.Fatalf("state = %v, want ok (warn cleared without breaching)", st)
	}
	if e.Snapshot()[0].Breaches != 0 {
		t.Fatal("a cleared warn must not count as a breach")
	}
}

func TestSLORateObjective(t *testing.T) {
	reg := NewRegistry()
	shed := reg.Counter("shed_total", "Sheds.")
	r := NewRates(reg, RatesConfig{Interval: time.Second, Windows: []time.Duration{2 * time.Second}})
	e := NewEvaluator(reg, r, []SLO{{
		Name:   "shed-zero",
		RateOf: "shed_total",
		Target: 0, // any shedding at all violates
	}})
	r.Tick()
	r.Tick()
	if st, _ := e.State("shed-zero"); st != SLOOK {
		t.Fatalf("state = %v, want ok while nothing sheds", st)
	}
	shed.Inc()
	r.Tick()
	if st, _ := e.State("shed-zero"); st != SLOWarn {
		t.Fatalf("state = %v, want warn after one shedding tick", st)
	}
	r.Tick() // the shed is still inside the 2s window
	if st, _ := e.State("shed-zero"); st != SLOBreach {
		t.Fatalf("state = %v, want breach after two", st)
	}
}

func TestEvaluatorNilSafety(t *testing.T) {
	var e *Evaluator
	e.OnVerdict(func() {})
	if _, ok := e.State("x"); ok {
		t.Fatal("nil evaluator should know no SLOs")
	}
	if e.Snapshot() != nil {
		t.Fatal("nil evaluator snapshot should be nil")
	}
	if NewEvaluator(nil, nil, nil) != nil {
		t.Fatal("nil registry/rates should disable evaluation")
	}
}

// boundPool binds a 0-wait admission pool (over-capacity acquires shed
// instantly, which the decrease-on-shed test needs) at the given
// capacity to a latency SLO over a manually ticked sampler.
func boundPool(t *testing.T, capacity int) (*Histogram, *Rates, *Pool) {
	t.Helper()
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	r := NewRates(reg, RatesConfig{Interval: time.Second, Windows: []time.Duration{2 * time.Second}})
	e := NewEvaluator(reg, r, []SLO{{
		Name:       "lat",
		QuantileOf: "lat_seconds",
		Target:     0.01,
	}})
	p := NewPool(reg, "adm", 0)
	p.Resize(capacity)
	p.Bind(e, "lat")
	return h, r, p
}

func TestAIMDIncreasesOnDemand(t *testing.T) {
	h, r, p := boundPool(t, 62)
	r.Tick()
	if p.Capacity() != 62 {
		t.Fatalf("capacity = %d, want 62", p.Capacity())
	}

	// Idle ok ticks must not grow the pool.
	r.Tick()
	r.Tick()
	if p.Capacity() != 62 || p.Increases() != 0 {
		t.Fatalf("idle pool crept: capacity=%d increases=%d", p.Capacity(), p.Increases())
	}

	// Demand + fast latency → additive growth, one step per tick. Any
	// admission since the last tick is demand; nobody had to queue.
	admit := func() {
		release, ok := p.Acquire()
		if !ok {
			t.Fatal("acquire under capacity should admit")
		}
		h.Observe(0.0005) // under target
		release()
	}
	admit()
	r.Tick()
	if p.Capacity() != 63 || p.Increases() != 1 {
		t.Fatalf("capacity=%d increases=%d, want 63/1", p.Capacity(), p.Increases())
	}
	admit()
	r.Tick()
	if p.Capacity() != 64 {
		t.Fatalf("capacity = %d, want 64", p.Capacity())
	}
	admit()
	r.Tick() // already at the maximum: hold
	if p.Capacity() != 64 || p.Increases() != 2 {
		t.Fatalf("capacity=%d increases=%d, want a clamp at 64", p.Capacity(), p.Increases())
	}
}

func TestAIMDBacksOffOnBreach(t *testing.T) {
	h, r, p := boundPool(t, 8)
	slow := func() {
		release, ok := p.Acquire()
		if !ok {
			t.Fatal("acquire under capacity should admit")
		}
		h.Observe(0.5) // way over target
		release()
	}
	r.Tick()
	slow()
	r.Tick() // warn: hold
	if p.Capacity() != 8 {
		t.Fatalf("warn must hold capacity, got %d", p.Capacity())
	}
	slow()
	r.Tick() // breach: 8 → 4
	if p.Capacity() != 4 || p.Decreases() != 1 {
		t.Fatalf("capacity=%d decreases=%d, want 4/1", p.Capacity(), p.Decreases())
	}
	slow()
	r.Tick() // still breached: 4 → 2
	slow()
	r.Tick() // 2 → 1
	slow()
	r.Tick() // clamped at the minimum: capacity holds, no phantom decrease
	if p.Capacity() != 1 {
		t.Fatalf("capacity = %d, want convergence to 1", p.Capacity())
	}
	if p.Decreases() != 3 {
		t.Fatalf("decreases = %d, want 3 (no count when already at 1)", p.Decreases())
	}
}

func TestAIMDBacksOffOnShed(t *testing.T) {
	_, r, p := boundPool(t, 2)
	r.Tick()
	// Saturate and shed without any latency signal: the shed alone must
	// trigger the multiplicative retreat.
	r1, _ := p.Acquire()
	r2, _ := p.Acquire()
	if _, ok := p.Acquire(); ok {
		t.Fatal("third acquire at capacity 2 with zero wait must shed")
	}
	r.Tick()
	if p.Capacity() != 1 || p.Decreases() != 1 {
		t.Fatalf("capacity=%d decreases=%d, want 1/1 after shed", p.Capacity(), p.Decreases())
	}
	r1()
	r2()
}

// TestAIMDWorstOfMultipleSLOs: a breach on a secondary (backlog)
// objective must force the multiplicative retreat even while the
// primary latency objective reads ok.
func TestAIMDWorstOfMultipleSLOs(t *testing.T) {
	reg := NewRegistry()
	r := NewRates(reg, RatesConfig{Interval: time.Second, Windows: []time.Duration{2 * time.Second}})
	reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	e := NewEvaluator(reg, r, []SLO{
		{Name: "report-latency", QuantileOf: "lat_seconds", Target: 0.01},
		{Name: "push-backlog", GaugeOf: "immunity_hub_push_pending", Target: 100},
	})

	pool := NewPool(reg, "adm", time.Millisecond)
	pool.Resize(16)
	pool.Bind(e, "report-latency", "push-backlog")

	backlog := reg.Gauge("immunity_hub_push_pending", "Backlog.")
	r.Tick() // both ok
	if got := pool.Capacity(); got != 16 {
		t.Fatalf("capacity after healthy tick = %d, want 16 (no demand, no probe)", got)
	}

	backlog.Set(500) // secondary objective violates; latency stays ok
	r.Tick()         // warn: hold
	if got := pool.Capacity(); got != 16 {
		t.Fatalf("capacity after one backlog tick = %d, want 16 (warn holds)", got)
	}
	r.Tick() // breach
	if got := pool.Capacity(); got != 8 {
		t.Fatalf("capacity after backlog breach = %d, want 8 (halved)", got)
	}
	if pool.Decreases() != 1 {
		t.Fatalf("decreases = %d, want 1", pool.Decreases())
	}
}

// TestSLOGaugeObjective: a GaugeOf objective reads the instantaneous
// sum across a labeled gauge family — the forward-outbox shape, one
// series per peer — and breaches when the backlog exceeds the target.
func TestSLOGaugeObjective(t *testing.T) {
	reg := NewRegistry()
	depth := reg.GaugeVec("outbox_pending", "Backlog.", "peer")
	r := NewRates(reg, RatesConfig{Interval: time.Second, Windows: []time.Duration{2 * time.Second}})
	e := NewEvaluator(reg, r, []SLO{{
		Name:    "outbox-backlog",
		GaugeOf: "outbox_pending",
		Target:  10,
	}})

	r.Tick() // family empty: no data, holds trivially
	if st, ok := e.State("outbox-backlog"); !ok || st != SLOOK {
		t.Fatalf("empty gauge family: state=%v ok=%v, want ok/SLOOK", st, ok)
	}

	depth.With("hub-b").Set(6)
	depth.With("hub-c").Set(3)
	r.Tick() // sum 9 <= 10 holds
	if st, _ := e.State("outbox-backlog"); st != SLOOK {
		t.Fatalf("backlog 9: state=%v, want SLOOK", st)
	}

	depth.With("hub-c").Set(7)
	r.Tick() // sum 13 > 10: warn, then breach on the second tick
	r.Tick()
	if st, _ := e.State("outbox-backlog"); st != SLOBreach {
		t.Fatalf("backlog 13: state=%v, want SLOBreach", st)
	}
	snap := e.Snapshot()
	if len(snap) != 1 || !snap[0].HasData || snap[0].Observed != 13 {
		t.Fatalf("snapshot = %+v, want observed 13 with data", snap)
	}
}

// TestGaugeValueLabelAndMissing: label selection, missing families, and
// wrong-typed families.
func TestGaugeValueLabelAndMissing(t *testing.T) {
	reg := NewRegistry()
	depth := reg.GaugeVec("pending", "Backlog.", "peer")
	depth.With("a").Set(4)
	depth.With("b").Set(5)
	reg.Counter("hits_total", "Hits.").Inc()

	if v, ok := reg.GaugeValue("pending", "a"); !ok || v != 4 {
		t.Fatalf("labeled read = %v/%v, want 4/true", v, ok)
	}
	if v, ok := reg.GaugeValue("pending", ""); !ok || v != 9 {
		t.Fatalf("summed read = %v/%v, want 9/true", v, ok)
	}
	if _, ok := reg.GaugeValue("pending", "zzz"); ok {
		t.Fatal("unknown label reported data")
	}
	if _, ok := reg.GaugeValue("absent", ""); ok {
		t.Fatal("missing family reported data")
	}
	if _, ok := reg.GaugeValue("hits_total", ""); ok {
		t.Fatal("counter family reported as gauge")
	}
	var nilReg *Registry
	if _, ok := nilReg.GaugeValue("pending", ""); ok {
		t.Fatal("nil registry reported data")
	}
}
