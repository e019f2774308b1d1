// Package metrics is the immunity tier's dependency-free observability
// registry: counters, gauges, and fixed-bucket histograms, rendered in
// the Prometheus text exposition format (served by cmd/immunityd at
// /metrics, next to /status).
//
// The design goal is that instruments are safe to touch from any hot
// path, under any subsystem lock. Two rules make that hold:
//
//   - Instrument operations (Counter.Add, Gauge.Set, Histogram.Observe,
//     Vec.With on a warmed label) are lock-free atomics. They never take
//     the registry lock, so callers may invoke them while holding
//     Exchange.mu, cluster link locks, or Queue locks.
//   - The registry mutexes (Registry.mu and each Vec's series lock) are
//     leaves in the global lock order: no registry or instrument method
//     calls back into caller code, so registering or rendering can never
//     deadlock against a subsystem lock. Registration normally happens
//     once at construction; WritePrometheus takes the registry locks
//     only to snapshot atomic values.
//
// Every constructor is idempotent by metric name: asking the same
// registry for the same name returns the existing instrument (and
// panics on a type mismatch — a programming error). That lets the parts
// of one hub — its sessions' push queues, its cluster node's links, its
// provenance store — register without coordinating, and lets a reader
// look an instrument up by name. One registry serves one hub and its
// node: their instruments are their only counts (the hub's
// ExchangeStats and the node's PeerStatus read them), so two hubs on
// one registry would each read the sum. Gauges support relative updates
// (Add) and whole-owner updates (Set) — use Add(±n) deltas when an
// instrument is shared across owners, as the per-session push queues
// share their depth gauges.
//
// All methods are nil-receiver safe: a nil *Registry hands out nil
// instruments and every operation on a nil instrument is a no-op, so
// subsystems thread an optional registry without guarding call sites.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a signed instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Set replaces the gauge value. Only use when this owner is the sole
// writer; shared gauges must use Add deltas.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a float-valued instantaneous value (uptime seconds). It
// only supports whole-owner Set: the writers are single-owner samplers,
// never shared hot paths.
type FloatGauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	upper  []float64 // ascending bucket upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile returns an upper-bound estimate for quantile q (0..1) from
// the bucket counts: the upper bound of the first bucket whose
// cumulative count covers q. +Inf observations report the largest
// finite bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(h.upper) {
				return h.upper[i]
			}
			if len(h.upper) > 0 {
				return h.upper[len(h.upper)-1]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// DurationBuckets are histogram bounds (seconds) spanning 100µs..10s,
// sized for push-path latencies.
func DurationBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// SizeBuckets are histogram bounds for batch sizes (items).
func SizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// RatioBuckets are histogram bounds for coalesce ratios (raw items per
// delivered item; 1 means no coalescing happened).
func RatioBuckets() []float64 {
	return []float64{1, 1.5, 2, 3, 5, 8, 16, 32, 64}
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one registered metric name: its metadata plus either a
// single unlabeled instrument or a set of labeled series.
type family struct {
	name     string
	help     string
	typ      string
	labelKey string // "" for unlabeled families
	raw      bool   // series keys are pre-rendered label blocks ({a="x",b="y"})
	buckets  []float64

	mu     sync.Mutex
	series map[string]any // label value -> *Counter/*Gauge/*FloatGauge/*Histogram
	order  []string       // label values in first-seen order
}

func (f *family) get(label string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[label]; ok {
		return m
	}
	m := mk()
	f.series[label] = m
	f.order = append(f.order, label)
	return m
}

// Registry holds a process's metric families in registration order.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ, labelKey string, buckets []float64) *family {
	return r.familyRaw(name, help, typ, labelKey, buckets, false)
}

func (r *Registry) familyRaw(name, help, typ, labelKey string, buckets []float64, raw bool) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || f.labelKey != labelKey || f.raw != raw {
			panic(fmt.Sprintf("metrics: %q re-registered as %s/%q (was %s/%q)",
				name, typ, labelKey, f.typ, f.labelKey))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labelKey: labelKey, raw: raw,
		buckets: buckets, series: make(map[string]any)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter returns the counter registered under name, creating it on
// first use. Nil-safe: a nil registry returns a nil counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeCounter, "", nil)
	return f.get("", func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeGauge, "", nil)
	return f.get("", func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the histogram registered under name. The buckets
// of the first registration win; bounds must be ascending.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeHistogram, "", buckets)
	return f.get("", func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// FloatGauge returns the float gauge registered under name.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeGauge, "", nil)
	return f.get("", func() any { return new(FloatGauge) }).(*FloatGauge)
}

// Info registers the Prometheus info-metric idiom: a constant 1-valued
// gauge whose label pairs carry identity (build version, wire range) a
// plain sample can't — scrapes join it against counters to tell a
// restart from a counter reset. Pairs render in the given order.
func (r *Registry) Info(name, help string, pairs ...[2]string) {
	if r == nil {
		return
	}
	f := r.familyRaw(name, help, typeGauge, "", nil, true)
	f.get(renderLabels(pairs), func() any { return new(Gauge) }).(*Gauge).Set(1)
}

func newHistogram(buckets []float64) *Histogram {
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// CounterVec is a family of counters distinguished by one label.
type CounterVec struct {
	f *family
}

// CounterVec returns the labeled counter family registered under name.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, typeCounter, labelKey, nil)}
}

// With returns the counter for one label value, creating it on first
// use.
func (v *CounterVec) With(label string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(label, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a family of gauges distinguished by one label.
type GaugeVec struct {
	f *family
}

// GaugeVec returns the labeled gauge family registered under name.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, typeGauge, labelKey, nil)}
}

// With returns the gauge for one label value.
func (v *GaugeVec) With(label string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(label, func() any { return new(Gauge) }).(*Gauge)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range families {
		f.mu.Lock()
		labels := make([]string, len(f.order))
		copy(labels, f.order)
		series := make(map[string]any, len(f.series))
		for k, v := range f.series {
			series[k] = v
		}
		f.mu.Unlock()
		if len(labels) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, label := range labels {
			writeSeries(&b, f, label, series[label])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, f *family, label string, m any) {
	suffix := labelSuffix(f.labelKey, label)
	if f.raw {
		suffix = label // the series key is the rendered label block
	}
	switch inst := m.(type) {
	case *Counter:
		fmt.Fprintf(b, "%s%s %d\n", f.name, suffix, inst.Value())
	case *Gauge:
		fmt.Fprintf(b, "%s%s %d\n", f.name, suffix, inst.Value())
	case *FloatGauge:
		fmt.Fprintf(b, "%s%s %s\n", f.name, suffix, formatFloat(inst.Value()))
	case *Histogram:
		var cum uint64
		for i, upper := range inst.upper {
			cum += inst.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				bucketSuffix(f.labelKey, label, formatFloat(upper)), cum)
		}
		cum += inst.counts[len(inst.upper)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
			bucketSuffix(f.labelKey, label, "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, suffix, formatFloat(inst.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, suffix, cum)
	}
}

// labelSuffix renders the one-label selector; %q matches Prometheus
// label escaping (backslash, quote, newline).
func labelSuffix(key, value string) string {
	if key == "" {
		return ""
	}
	return fmt.Sprintf("{%s=%q}", key, value)
}

// renderLabels renders ordered label pairs as one {k="v",...} block —
// the series key of a raw family (Info).
func renderLabels(pairs [][2]string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[0], kv[1])
	}
	b.WriteByte('}')
	return b.String()
}

func bucketSuffix(key, value, le string) string {
	if key == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("{%s=%q,le=%q}", key, value, le)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
