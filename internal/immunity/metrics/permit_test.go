package metrics

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// newPoolAt is a pool resized to capacity: never bound, so it keeps
// that size for deterministic contention.
func newPoolAt(reg *Registry, capacity int, maxWait time.Duration) *Pool {
	p := NewPool(reg, "adm", maxWait)
	p.Resize(capacity)
	return p
}

// awaitWaiters reports whether n acquirers queue on p within a few
// seconds. It spins on Gosched, not a sleep: the acquirers it waits for
// only need the processor.
func awaitWaiters(p *Pool, n int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		p.mu.Lock()
		queued := len(p.waiters)
		p.mu.Unlock()
		if queued == n {
			return true
		}
	}
	return false
}

func TestPoolZeroWaitShedsImmediately(t *testing.T) {
	p := newPoolAt(NewRegistry(), 1, 0)
	release, ok := p.Acquire()
	if !ok {
		t.Fatal("first acquire should admit")
	}
	start := time.Now()
	if _, ok := p.Acquire(); ok {
		t.Fatal("over-capacity acquire with zero wait must shed")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("zero-wait shed took %v, want immediate", d)
	}
	if p.Shed() != 1 || p.Delayed() != 0 {
		t.Fatalf("shed=%d delayed=%d, want 1/0", p.Shed(), p.Delayed())
	}
	release()
}

func TestPoolResizeGrantsWaiters(t *testing.T) {
	p := newPoolAt(NewRegistry(), 1, 5*time.Second)
	release, ok := p.Acquire()
	if !ok {
		t.Fatal("first acquire should admit")
	}
	got := make(chan func(), 1)
	go func() {
		r, ok := p.Acquire()
		if !ok {
			t.Error("queued acquire should be granted by Resize")
			got <- nil
			return
		}
		got <- r
	}()
	// Wait for the waiter to queue, then grow the pool: the headroom
	// must reach the queued caller without any release.
	if !awaitWaiters(p, 1) {
		t.Fatal("acquire never queued")
	}
	p.Resize(2)
	select {
	case r := <-got:
		if r != nil {
			r()
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Resize(2) did not grant the queued waiter")
	}
	if p.Capacity() != 2 {
		t.Fatalf("capacity = %d, want 2", p.Capacity())
	}
	if p.Delayed() != 1 {
		t.Fatalf("delayed = %d, want 1 (the resize-granted waiter)", p.Delayed())
	}
	release()
}

func TestPoolResizeDownNeverRevokes(t *testing.T) {
	reg := NewRegistry()
	p := newPoolAt(reg, 2, 0)
	r1, ok1 := p.Acquire()
	r2, ok2 := p.Acquire()
	if !ok1 || !ok2 {
		t.Fatal("both permits should admit at capacity 2")
	}
	p.Resize(1)
	if p.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", p.Capacity())
	}
	// Outstanding permits survive the shrink; new demand sheds.
	if _, ok := p.Acquire(); ok {
		t.Fatal("acquire above the shrunk capacity must shed")
	}
	r1()
	r2()
	// After both release, the pool backfills to exactly the new size.
	r3, ok := p.Acquire()
	if !ok {
		t.Fatal("acquire after releases should admit")
	}
	if _, ok := p.Acquire(); ok {
		t.Fatal("second acquire must shed at capacity 1")
	}
	r3()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "adm_capacity 1") {
		t.Fatalf("capacity gauge should follow Resize:\n%s", b.String())
	}
}

func TestPoolResizeClampsToOne(t *testing.T) {
	p := newPoolAt(NewRegistry(), 4, 0)
	p.Resize(-3)
	if p.Capacity() != 1 {
		t.Fatalf("capacity = %d, want clamp to 1", p.Capacity())
	}
	var nilPool *Pool
	nilPool.Resize(5) // no-op, no panic
	if nilPool.Capacity() != 0 {
		t.Fatal("nil pool capacity should be 0")
	}
}

// TestPoolDefaults: a new pool starts at 8 permits with the gauge
// saying so, and a nil pool admits everything, binds to nothing and
// counts nothing.
func TestPoolDefaults(t *testing.T) {
	reg := NewRegistry()
	p := NewPool(reg, "adm", 0)
	if p.Capacity() != 8 {
		t.Fatalf("capacity = %d, want the initial 8", p.Capacity())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adm_capacity 8", "adm_aimd_increases_total 0", "adm_aimd_decreases_total 0"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, b.String())
		}
	}

	var nilPool *Pool
	nilPool.Bind(nil)
	nilPool.Bind(NewEvaluator(reg, time.Second, nil), "lat")
	release, ok := nilPool.Acquire()
	if !ok || release == nil {
		t.Fatal("a nil pool must admit")
	}
	release()
	if nilPool.Increases() != 0 || nilPool.Decreases() != 0 || nilPool.Admitted() != 0 {
		t.Fatal("nil pool counters should read 0")
	}
}

// TestAIMDSlowStartRecoverySlope: after a breach cuts capacity, the
// recovery under an ok SLO with demand doubles per tick up to the
// last-known-good capacity, then falls back to additive +1 probing —
// the slope is 1→2→4→8→16→32, then 33, 34, ... instead of half a
// minute of +1 ticks.
func TestAIMDSlowStartRecoverySlope(t *testing.T) {
	p := newPoolAt(NewRegistry(), 32, time.Second)

	// A breach episode at capacity 32: halve per tick down to the floor,
	// then hold there without counting phantom decreases.
	for i := 0; i < 6; i++ {
		p.stepVerdict(false, true, SLOBreach)
	}
	if got := p.Capacity(); got != 1 {
		t.Fatalf("capacity after breach = %d, want 1", got)
	}
	if p.Decreases() != 5 {
		t.Fatalf("decreases = %d, want 5 (32→16→8→4→2→1)", p.Decreases())
	}

	// Recovery: each ok-with-demand tick doubles toward 32, then +1.
	want := []int{2, 4, 8, 16, 32, 33, 34}
	for i, w := range want {
		p.stepVerdict(false, true, SLOOK)
		if got := p.Capacity(); got != w {
			t.Fatalf("recovery tick %d: capacity = %d, want %d (slope %v)", i+1, got, w, want)
		}
	}
	if got := p.Increases(); got != uint64(len(want)) {
		t.Fatalf("increases = %d, want %d", got, len(want))
	}

	// A second episode from 34.
	for i := 0; i < 6; i++ {
		p.stepVerdict(false, true, SLOBreach)
	}
	if got := p.Capacity(); got != 1 {
		t.Fatalf("capacity after second breach = %d, want 1", got)
	}
	// No demand, no probe — slow-start must not creep an idle pool up.
	p.stepVerdict(false, false, SLOOK)
	if got := p.Capacity(); got != 1 {
		t.Fatalf("capacity grew without demand: %d", got)
	}
	// Warn holds capacity even with demand (hysteresis).
	p.stepVerdict(false, true, SLOWarn)
	if got := p.Capacity(); got != 1 {
		t.Fatalf("capacity moved on warn: %d", got)
	}
	// And the new last-known-good is 34: doubling caps there.
	for i := 0; i < 10; i++ {
		p.stepVerdict(false, true, SLOOK)
	}
	// 1→2→4→8→16→32→34 (capped), then +1 per tick: 10 ticks land on 38.
	if got := p.Capacity(); got != 38 {
		t.Fatalf("capacity after 10 recovery ticks = %d, want 38", got)
	}
}

// TestAIMDBreachEpisodeKeepsCeiling: a breach stays breach for several
// evaluation ticks and the controller cuts on each, but the slow-start
// ceiling is the capacity before the episode's first cut — not the one
// before its last, which would leave recovery crawling 2, 3, 4, ...
func TestAIMDBreachEpisodeKeepsCeiling(t *testing.T) {
	p := newPoolAt(NewRegistry(), 32, time.Second)
	for i := 0; i < 5; i++ {
		p.stepVerdict(false, true, SLOBreach) // 32→16→8→4→2→1
	}
	if got := p.Capacity(); got != 1 {
		t.Fatalf("capacity after five breach ticks = %d, want 1", got)
	}
	var slope []int
	for i := 0; i < 6; i++ {
		p.stepVerdict(false, true, SLOOK)
		slope = append(slope, p.Capacity())
	}
	want := []int{2, 4, 8, 16, 32, 33}
	for i := range want {
		if slope[i] != want[i] {
			t.Fatalf("recovery = %v, want %v (the ceiling is the pre-breach 32)", slope, want)
		}
	}

	// A shed tick is a cut too, and a tick without one ends the episode:
	// the next episode's ceiling is what held when it began.
	p.stepVerdict(true, true, SLOOK)    // 33→16, ceiling 33
	p.stepVerdict(false, true, SLOWarn) // holds, ends the episode
	p.stepVerdict(true, true, SLOOK)    // 16→8, ceiling 16
	p.stepVerdict(false, true, SLOOK)   // 8→16
	p.stepVerdict(false, true, SLOOK)   // 16→17
	if got := p.Capacity(); got != 17 {
		t.Fatalf("capacity = %d, want 17 (second episode's ceiling 16, then +1)", got)
	}
}

// TestAIMDConcurrentAcquireAndTick: session goroutines acquire and
// release while the evaluator's tick runs the AIMD step on the same
// pool — the sharing the daemon has. Run it with -race: every verdict is
// counted once, no permit leaks, and the capacity stays in bounds.
func TestAIMDConcurrentAcquireAndTick(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1, 1})
	e := NewEvaluator(reg, 5*time.Second, []SLO{{Name: "lat", QuantileOf: "lat_seconds", Target: 0.01}})
	p := NewPool(reg, "adm", 10*time.Second)
	p.Bind(e, "lat")

	const sessions, each = 4, 200
	done := make(chan struct{})
	for s := 0; s < sessions; s++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				release, ok := p.Acquire()
				if !ok {
					t.Error("acquire shed under a 10s wait")
					return
				}
				if i%50 < 25 {
					h.Observe(0.0005)
				} else {
					h.Observe(0.5)
				}
				release()
			}
		}()
	}
	for finished := 0; finished < sessions; {
		select {
		case <-done:
			finished++
		default:
			e.Tick()
			if c := p.Capacity(); c < 1 || c > 64 {
				t.Fatalf("capacity %d outside [1, 64]", c)
			}
		}
	}
	if got := p.Admitted() + p.Delayed(); got != sessions*each {
		t.Fatalf("admitted+delayed = %d, want %d", got, sessions*each)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "adm_in_use 0") {
		t.Fatalf("permits leaked:\n%s", b.String())
	}
}
