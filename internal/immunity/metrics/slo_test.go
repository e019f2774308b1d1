package metrics

import (
	"strings"
	"testing"
	"time"
)

// sloFixture wires a histogram-backed latency SLO onto a manually ticked
// evaluator whose 10s window spans two 5s ticks: drive h.Observe between
// Tick calls to steer the verdict.
func sloFixture(t *testing.T, slo SLO) (*Registry, *Histogram, *Evaluator) {
	t.Helper()
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	e := NewEvaluator(reg, 5*time.Second, []SLO{slo})
	if e == nil {
		t.Fatal("evaluator should construct")
	}
	return reg, h, e
}

func TestSLOStateMachine(t *testing.T) {
	reg, h, e := sloFixture(t, SLO{
		Name:       "report-latency",
		QuantileOf: "lat_seconds",
		Target:     0.01, // breached by observations above 10ms
		// breach after 2 bad ticks, clear after 3 good, window 2 ticks
	})

	mustState := func(want SLOState) {
		t.Helper()
		got, ok := e.State("report-latency")
		if !ok || got != want {
			t.Fatalf("state = %v ok=%v, want %v", got, ok, want)
		}
	}

	e.Tick() // empty window holds trivially
	mustState(SLOOK)

	h.Observe(0.5) // p99 → bucket bound 1 > 0.01
	e.Tick()
	mustState(SLOWarn) // one bad tick: warn, not breach

	h.Observe(0.5)
	e.Tick()
	mustState(SLOBreach) // second consecutive bad tick escalates

	// Quiet ticks drain the window; three good ticks recover.
	e.Tick() // breach-era observations still inside the window: bad
	e.Tick()
	e.Tick()
	mustState(SLOBreach) // hysteresis: two good ticks are not enough
	e.Tick()
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
	if s.Window != "10s" || s.Target != 0.01 {
		t.Fatalf("snapshot carries window %q target %v, want 10s / 0.01", s.Window, s.Target)
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
	// A 10s window over a 10s tick forgets each tick's observations on
	// the next one — a single bad tick can then clear without breaching.
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	e := NewEvaluator(reg, 10*time.Second, []SLO{{
		Name:       "lat",
		QuantileOf: "lat_seconds",
		Target:     0.01,
	}})
	e.Tick() // baseline
	h.Observe(0.5)
	e.Tick() // warn
	if st, _ := e.State("lat"); st != SLOWarn {
		t.Fatalf("state = %v, want warn after one bad tick", st)
	}
	e.Tick()
	e.Tick()
	if st, _ := e.State("lat"); st != SLOWarn {
		t.Fatalf("state = %v, want warn held until the third good tick", st)
	}
	e.Tick() // third good tick → straight back to ok
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
	e := NewEvaluator(reg, 5*time.Second, []SLO{{
		Name:   "shed-zero",
		RateOf: "shed_total",
		Target: 0, // any shedding at all violates
	}})
	e.Tick()
	e.Tick()
	if st, _ := e.State("shed-zero"); st != SLOOK {
		t.Fatalf("state = %v, want ok while nothing sheds", st)
	}
	shed.Inc()
	e.Tick()
	if st, _ := e.State("shed-zero"); st != SLOWarn {
		t.Fatalf("state = %v, want warn after one shedding tick", st)
	}
	e.Tick() // the shed is still inside the window
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
	if NewEvaluator(nil, time.Second, nil) != nil {
		t.Fatal("nil registry should disable evaluation")
	}
}

// boundPool binds a 0-wait admission pool (over-capacity acquires shed
// instantly, which the decrease-on-shed test needs) at the given
// capacity to a latency SLO over a manually ticked evaluator.
func boundPool(t *testing.T, capacity int) (*Histogram, *Evaluator, *Pool) {
	t.Helper()
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	e := NewEvaluator(reg, 5*time.Second, []SLO{{
		Name:       "lat",
		QuantileOf: "lat_seconds",
		Target:     0.01,
	}})
	p := NewPool(reg, "adm", 0)
	p.Resize(capacity)
	p.Bind(e, "lat")
	return h, e, p
}

func TestAIMDIncreasesOnDemand(t *testing.T) {
	h, e, p := boundPool(t, 62)
	e.Tick()
	if p.Capacity() != 62 {
		t.Fatalf("capacity = %d, want 62", p.Capacity())
	}

	// Idle ok ticks must not grow the pool.
	e.Tick()
	e.Tick()
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
	e.Tick()
	if p.Capacity() != 63 || p.Increases() != 1 {
		t.Fatalf("capacity=%d increases=%d, want 63/1", p.Capacity(), p.Increases())
	}
	admit()
	e.Tick()
	if p.Capacity() != 64 {
		t.Fatalf("capacity = %d, want 64", p.Capacity())
	}
	admit()
	e.Tick() // already at the maximum: hold
	if p.Capacity() != 64 || p.Increases() != 2 {
		t.Fatalf("capacity=%d increases=%d, want a clamp at 64", p.Capacity(), p.Increases())
	}
}

func TestAIMDBacksOffOnBreach(t *testing.T) {
	h, e, p := boundPool(t, 8)
	slow := func() {
		release, ok := p.Acquire()
		if !ok {
			t.Fatal("acquire under capacity should admit")
		}
		h.Observe(0.5) // way over target
		release()
	}
	e.Tick()
	slow()
	e.Tick() // warn: hold
	if p.Capacity() != 8 {
		t.Fatalf("warn must hold capacity, got %d", p.Capacity())
	}
	slow()
	e.Tick() // breach: 8 → 4
	if p.Capacity() != 4 || p.Decreases() != 1 {
		t.Fatalf("capacity=%d decreases=%d, want 4/1", p.Capacity(), p.Decreases())
	}
	slow()
	e.Tick() // still breached: 4 → 2
	slow()
	e.Tick() // 2 → 1
	slow()
	e.Tick() // clamped at the minimum: capacity holds, no phantom decrease
	if p.Capacity() != 1 {
		t.Fatalf("capacity = %d, want convergence to 1", p.Capacity())
	}
	if p.Decreases() != 3 {
		t.Fatalf("decreases = %d, want 3 (no count when already at 1)", p.Decreases())
	}
}

func TestAIMDBacksOffOnShed(t *testing.T) {
	_, e, p := boundPool(t, 2)
	e.Tick()
	// Saturate and shed without any latency signal: the shed alone must
	// trigger the multiplicative retreat.
	r1, _ := p.Acquire()
	r2, _ := p.Acquire()
	if _, ok := p.Acquire(); ok {
		t.Fatal("third acquire at capacity 2 with zero wait must shed")
	}
	e.Tick()
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
	reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	e := NewEvaluator(reg, 5*time.Second, []SLO{
		{Name: "report-latency", QuantileOf: "lat_seconds", Target: 0.01},
		{Name: "push-backlog", GaugeOf: "immunity_hub_push_pending", Target: 100},
	})

	pool := NewPool(reg, "adm", time.Millisecond)
	pool.Resize(16)
	pool.Bind(e, "report-latency", "push-backlog")

	backlog := reg.Gauge("immunity_hub_push_pending", "Backlog.")
	e.Tick() // both ok
	if got := pool.Capacity(); got != 16 {
		t.Fatalf("capacity after healthy tick = %d, want 16 (no demand, no probe)", got)
	}

	backlog.Set(500) // secondary objective violates; latency stays ok
	e.Tick()         // warn: hold
	if got := pool.Capacity(); got != 16 {
		t.Fatalf("capacity after one backlog tick = %d, want 16 (warn holds)", got)
	}
	e.Tick() // breach
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
	e := NewEvaluator(reg, 5*time.Second, []SLO{{
		Name:    "outbox-backlog",
		GaugeOf: "outbox_pending",
		Target:  10,
	}})

	e.Tick() // family empty: no data, holds trivially
	if st, ok := e.State("outbox-backlog"); !ok || st != SLOOK {
		t.Fatalf("empty gauge family: state=%v ok=%v, want ok/SLOOK", st, ok)
	}

	depth.With("hub-b").Set(6)
	depth.With("hub-c").Set(3)
	e.Tick() // sum 9 <= 10 holds
	if st, _ := e.State("outbox-backlog"); st != SLOOK {
		t.Fatalf("backlog 9: state=%v, want SLOOK", st)
	}

	depth.With("hub-c").Set(7)
	e.Tick() // sum 13 > 10: warn, then breach on the second tick
	e.Tick()
	if st, _ := e.State("outbox-backlog"); st != SLOBreach {
		t.Fatalf("backlog 13: state=%v, want SLOBreach", st)
	}
	snap := e.Snapshot()
	if len(snap) != 1 || !snap[0].HasData || snap[0].Observed != 13 {
		t.Fatalf("snapshot = %+v, want observed 13 with data", snap)
	}
}

// TestGaugeValueLabelAndMissing: a labeled family sums across its
// series; missing and wrong-typed families report no data.
func TestGaugeValueLabelAndMissing(t *testing.T) {
	reg := NewRegistry()
	depth := reg.GaugeVec("pending", "Backlog.", "peer")
	depth.With("a").Set(4)
	depth.With("b").Set(5)
	reg.Counter("hits_total", "Hits.").Inc()

	if v, ok := reg.GaugeValue("pending"); !ok || v != 9 {
		t.Fatalf("summed read = %v/%v, want 9/true", v, ok)
	}
	if _, ok := reg.GaugeValue("absent"); ok {
		t.Fatal("missing family reported data")
	}
	if _, ok := reg.GaugeValue("hits_total"); ok {
		t.Fatal("counter family reported as gauge")
	}
	var nilReg *Registry
	if _, ok := nilReg.GaugeValue("pending"); ok {
		t.Fatal("nil registry reported data")
	}
}

// TestSLORateObservedWindow: a rate objective reads its counter's
// per-second rate over the window — clamped to the history held while
// the ring fills — and returns to ok once the source goes quiet.
func TestSLORateObservedWindow(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reports_total", "Reports.")
	e := NewEvaluator(reg, 5*time.Second, []SLO{{Name: "rate", RateOf: "reports_total", Target: 5}})
	observed := func(want float64, state SLOState) {
		t.Helper()
		s := e.Snapshot()[0]
		if !s.HasData || s.Observed != want || s.State != state.String() {
			t.Fatalf("snapshot = %+v, want observed %v in %v", s, want, state)
		}
	}

	e.Tick() // baseline sample
	if e.Snapshot()[0].HasData {
		t.Fatal("one sample is no rate")
	}
	c.Add(50)
	e.Tick()
	observed(10, SLOWarn) // 50 over one 5s step
	c.Add(10)
	e.Tick()
	observed(6, SLOBreach) // 60 over the 10s window
	for i := 0; i < 3; i++ {
		e.Tick()
	}
	observed(0, SLOOK) // quiet: the rate decays to zero and the objective recovers
}

// TestSLOQuantileWindowDrains: the cumulative histogram remembers a burst
// forever; the window forgets it once enough quiet ticks pass — the
// property that lets a latency objective recover after a storm.
func TestSLOQuantileWindowDrains(t *testing.T) {
	_, h, e := sloFixture(t, SLO{Name: "lat", QuantileOf: "lat_seconds", Target: 10})
	if e.Snapshot()[0].HasData {
		t.Fatal("no tick yet, yet the window has data")
	}
	e.Tick()
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // lands in the (0.1, 1] bucket
	}
	e.Tick()
	if s := e.Snapshot()[0]; !s.HasData || s.Observed != 1 {
		t.Fatalf("window p99 = %+v, want 1 with data", s)
	}
	e.Tick()
	e.Tick()
	e.Tick()
	if s := e.Snapshot()[0]; s.HasData {
		t.Fatalf("drained window still has data: %+v", s)
	}
	if q := h.Quantile(0.99); q != 1 {
		t.Fatalf("cumulative p99 = %v, still 1 by design", q)
	}
}

// TestSLOSourceRegisteredLate: the evaluator exists before the families
// it watches (the daemon builds it before the hub registers them); each
// source is picked up on the first tick after it appears.
func TestSLOSourceRegisteredLate(t *testing.T) {
	reg := NewRegistry()
	e := NewEvaluator(reg, 5*time.Second, []SLO{
		{Name: "lat", QuantileOf: "lat_seconds", Target: 0.01},
		{Name: "shed", RateOf: "shed_total", Target: 0},
	})
	e.Tick()
	e.Tick()
	for _, s := range e.Snapshot() {
		if s.HasData || s.State != "ok" {
			t.Fatalf("%s before its source exists: %+v, want ok without data", s.Name, s)
		}
	}

	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	shed := reg.Counter("shed_total", "Sheds.")
	e.Tick() // first sample of both
	h.Observe(0.5)
	shed.Inc()
	e.Tick()
	for _, s := range e.Snapshot() {
		if !s.HasData || s.State != "warn" {
			t.Fatalf("%s after its source appeared: %+v, want warn with data", s.Name, s)
		}
	}
}

// TestSLONilSafety: a nil evaluator ticks, starts and stops as no-ops,
// and a nil registry builds none.
func TestSLONilSafety(t *testing.T) {
	var e *Evaluator
	e.Tick()
	e.Start()
	e.Stop()
	if NewEvaluator(nil, time.Second, []SLO{{Name: "x", RateOf: "x_total"}}) != nil {
		t.Fatal("nil registry should disable the evaluator")
	}
}

// TestSLOStartStop: the ticker fires OnVerdict, and Start and Stop are
// idempotent.
func TestSLOStartStop(t *testing.T) {
	reg := NewRegistry()
	NewEvaluator(reg, time.Second, nil).Stop() // before Start: returns at once

	e := NewEvaluator(reg, 5*time.Millisecond, nil)
	fired := make(chan struct{}, 1)
	e.OnVerdict(func() {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	e.Start()
	e.Start() // idempotent
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("ticker never fired")
	}
	e.Stop()
	e.Stop() // idempotent
}

// TestSLOLongIntervalKeepsWindow: a tick longer than the 10s window
// widens the window to one tick instead of leaving it zero ticks wide,
// so the latency and shed objectives still see data and a bound pool
// still backs off. /slo reports the window actually used.
func TestSLOLongIntervalKeepsWindow(t *testing.T) {
	for _, tc := range []struct {
		interval time.Duration
		window   string
	}{
		{time.Second, "10s"},
		{10 * time.Second, "10s"},
		{11 * time.Second, "11s"},
		{20 * time.Second, "20s"},
	} {
		t.Run(tc.interval.String(), func(t *testing.T) {
			reg := NewRegistry()
			h := reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
			shed := reg.Counter("shed_total", "Sheds.")
			e := NewEvaluator(reg, tc.interval, []SLO{
				{Name: "lat", QuantileOf: "lat_seconds", Target: 0.01},
				{Name: "shed", RateOf: "shed_total", Target: 0},
			})
			p := NewPool(reg, "adm", 0)
			p.Bind(e, "lat")
			e.Tick()
			for i := 0; i < 2; i++ {
				h.Observe(0.5)
				shed.Inc()
				e.Tick()
			}
			for _, s := range e.Snapshot() {
				if s.State != "breach" || !s.HasData || s.Window != tc.window {
					t.Errorf("%s = %+v, want breach with data over window %s", s.Name, s, tc.window)
				}
			}
			if p.Capacity() >= 8 || p.Decreases() == 0 {
				t.Errorf("capacity = %d after a latency breach, want a back-off below 8", p.Capacity())
			}
		})
	}
}
