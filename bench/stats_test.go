package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {90, 46}, {100, 50}, {-5, 10}, {120, 50},
	} {
		if got := percentile(vals, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if vals[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// One slow round must not move a rate the way it moves a mean.
func TestRatesAreMediansOverRounds(t *testing.T) {
	m := newMeasurement(1)
	for _, wall := range []time.Duration{100, 100, 100, 100, 900} {
		m.add(roundResult{ops: 1000, wall: wall * time.Millisecond, cpu: wall * time.Millisecond,
			heap: 8 << 20, lats: []time.Duration{wall * time.Microsecond}}, 1, nil)
	}
	e2e := m.endToEnd(2)
	if got := e2e["ops_per_s"].Value; got != 10000 {
		t.Errorf("ops_per_s = %v, want the median round's 10000", got)
	}
	if got := e2e["cpu_us_per_op"].Value; got != 100 {
		t.Errorf("cpu_us_per_op = %v, want the median round's 100", got)
	}
	if got := e2e["op_p50_us"].Value; got != 100 {
		t.Errorf("op_p50_us = %v, want 100 (pooled over rounds)", got)
	}
	if got := e2e["heap_mb"].Value; got != 8 {
		t.Errorf("heap_mb = %v, want 8", got)
	}
	if m.attempted != 5000 || m.failed != 0 || m.rounds != 5 {
		t.Errorf("attempted %d failed %d rounds %d, want 5000 0 5", m.attempted, m.failed, m.rounds)
	}
}

func TestFailedOpsAreCountedAndKeptOutOfTheRates(t *testing.T) {
	m := newMeasurement(1)
	m.add(roundResult{ops: 10, failed: 10}, 1, errTest)
	m.add(roundResult{ops: 10, wall: time.Second, lats: []time.Duration{time.Millisecond}}, 1, nil)
	if m.attempted != 20 || m.failed != 10 || len(m.errs) != 1 || len(m.rates) != 1 {
		t.Errorf("attempted %d failed %d errs %d rates %d, want 20 10 1 1", m.attempted, m.failed, len(m.errs), len(m.rates))
	}
}

var errTest = errorString("round failed its check")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestLatencyPoolStaysBounded(t *testing.T) {
	p := newLatencyPool(1)
	batch := make([]time.Duration, 1000)
	for i := range batch {
		batch[i] = time.Duration(i+1) * time.Microsecond
	}
	for n := 0; n < 2*latencyPoolCap/len(batch); n++ {
		p.add(batch)
	}
	if len(p.ns) != latencyPoolCap || cap(p.ns) != latencyPoolCap {
		t.Fatalf("pool holds %d (cap %d), want exactly %d", len(p.ns), cap(p.ns), latencyPoolCap)
	}
	// A uniform sample of a uniform stream keeps its median.
	if got := p.us(50); got < 480 || got > 520 {
		t.Errorf("p50 of the sampled stream = %v us, want about 500", got)
	}
}
