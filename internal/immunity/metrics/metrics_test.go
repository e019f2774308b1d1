package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reports_total", "Total reports.")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter value = %d, want 4", got)
	}
	g := reg.Gauge("sessions", "Live sessions.")
	g.Add(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge value = %d, want 3", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE reports_total counter",
		"reports_total 4",
		"# TYPE sessions gauge",
		"sessions 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryIdempotentByName(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "")
	b := reg.Counter("x_total", "")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("idempotent counter not shared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch on re-register should panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if s := h.Sum(); s < 5.56 || s > 5.57 {
		t.Fatalf("sum = %v, want ~5.565", s)
	}
	if q := h.Quantile(0.5); q != 0.1 {
		t.Fatalf("p50 = %v, want 0.1 (bucket upper bound)", q)
	}
	if q := h.Quantile(0.99); q != 1 {
		t.Fatalf("p99 = %v, want 1 (largest finite bound for +Inf sample)", q)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestVecSeries(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("peer_dials_total", "Dial attempts per peer.", "peer")
	v.With("hub1").Add(2)
	v.With("hub2").Inc()
	if v.With("hub1").Value() != 2 {
		t.Fatal("labeled counter not stable across With calls")
	}
	g := reg.GaugeVec("outbox_pending", "Forward outbox depth.", "peer")
	g.With("hub1").Add(7)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`peer_dials_total{peer="hub1"} 2`,
		`peer_dials_total{peer="hub2"} 1`,
		`outbox_pending{peer="hub1"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var reg *Registry
	reg.Counter("a", "").Add(1)
	reg.Gauge("b", "").Set(2)
	reg.Histogram("c", "", DurationBuckets()).Observe(1)
	reg.CounterVec("d", "", "k").With("v").Inc()
	reg.GaugeVec("e", "", "k").With("v").Add(1)
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DurationBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if s := h.Sum(); s < 7.99 || s > 8.01 {
		t.Fatalf("sum = %v, want ~8", s)
	}
}
