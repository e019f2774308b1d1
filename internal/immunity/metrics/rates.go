package metrics

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultRateWindows are the trailing windows the daemon's rate gauges
// cover: short enough to see a storm start, long enough to see it end.
func DefaultRateWindows() []time.Duration {
	return []time.Duration{10 * time.Second, time.Minute, 5 * time.Minute}
}

// RatesConfig shapes one Rates sampler.
type RatesConfig struct {
	// Interval is the sampling tick (default 1s). Every tracked family
	// is snapshotted once per tick.
	Interval time.Duration
	// Windows are the trailing windows the derived per-second gauges
	// report (default DefaultRateWindows). Sorted ascending; the
	// shortest window is the default for SLO evaluation.
	Windows []time.Duration
}

// Rates turns the registry's monotone counters into windowed per-second
// rate gauges — the series an operator actually watches. On every tick
// it snapshots each tracked counter family into a small ring and
// republishes, for every window W, a raw-labeled float gauge
//
//	<base>_per_second{window="10s"}             (unlabeled source)
//	<base>_per_second{peer="hub1",window="1m"}  (labeled source)
//
// where <base> is the source name with a trailing _total stripped. The
// gauges live on the same registry, so /metrics and /status carry the
// rates next to the totals, and they decay to zero when the source goes
// quiet — a counter can only prove something happened, a rate shows it
// stopped.
//
// Tracked histograms are snapshotted the same way (per-bucket counts in
// the ring), which is what makes windowed quantiles possible at all: a
// cumulative histogram never forgets a storm, but WindowQuantile over
// the last W of bucket deltas recovers once the storm drains — the
// property the SLO evaluator's breach→ok transition depends on.
//
// Tick-driven hooks (OnTick) run after each sample pass with no Rates
// lock held; the SLO Evaluator and uptime gauge ride on them. All
// methods are nil-receiver safe.
type Rates struct {
	reg      *Registry
	interval time.Duration
	windows  []time.Duration
	ringCap  int

	mu       sync.Mutex
	counters []*counterTrack
	hists    []*histTrack
	hooks    []func()
	started  bool

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// NewRates creates a sampler over reg. Nothing is sampled until
// counters/histograms are tracked and either Start runs the ticker or
// Tick is driven manually (tests).
func NewRates(reg *Registry, cfg RatesConfig) *Rates {
	if reg == nil {
		return nil
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = time.Second
	}
	windows := append([]time.Duration(nil), cfg.Windows...)
	if len(windows) == 0 {
		windows = DefaultRateWindows()
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	ringCap := int(windows[len(windows)-1]/interval) + 1
	if ringCap < 2 {
		ringCap = 2
	}
	return &Rates{
		reg:      reg,
		interval: interval,
		windows:  windows,
		ringCap:  ringCap,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// counterTrack follows one counter family (resolved lazily by name, so
// tracking may precede registration) and owns its derived rate gauges.
type counterTrack struct {
	name    string
	outName string
	rings   map[string]*sampleRing // source label -> value ring
}

// histTrack follows one histogram family for windowed quantiles.
type histTrack struct {
	name  string
	upper []float64
	rings map[string]*bucketRing // source label -> bucket-count ring
}

// TrackCounter samples the counter family registered under name on
// every tick and publishes its per-window rate gauges. Labeled families
// get one rate series per (source label, window) pair; series appearing
// after tracking starts are picked up on their first tick.
func (r *Rates) TrackCounter(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.counters {
		if t.name == name {
			return
		}
	}
	base := strings.TrimSuffix(name, "_total")
	r.counters = append(r.counters, &counterTrack{
		name:    name,
		outName: base + "_per_second",
		rings:   make(map[string]*sampleRing),
	})
}

// TrackHistogram samples the histogram family registered under name on
// every tick, enabling WindowQuantile over it.
func (r *Rates) TrackHistogram(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.hists {
		if t.name == name {
			return
		}
	}
	r.hists = append(r.hists, &histTrack{name: name, rings: make(map[string]*bucketRing)})
}

// OnTick registers fn to run after every sample pass, outside the Rates
// lock (fn may call Rate/WindowQuantile/Snapshot freely).
func (r *Rates) OnTick(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// Start runs the sampling ticker in a goroutine until Stop.
func (r *Rates) Start() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-r.stopCh:
				return
			case <-t.C:
				r.Tick()
			}
		}
	}()
}

// Stop halts the ticker. Idempotent; safe before Start.
func (r *Rates) Stop() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

// Tick runs one sample pass: snapshot every tracked family, refresh the
// rate gauges, then run the hooks. Exported so tests can drive the
// sampler deterministically.
func (r *Rates) Tick() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, t := range r.counters {
		r.sampleCounter(t)
	}
	for _, t := range r.hists {
		r.sampleHist(t)
	}
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

func (r *Rates) sampleCounter(t *counterTrack) {
	f := r.reg.lookupFamily(t.name)
	if f == nil || f.typ != typeCounter {
		return
	}
	f.mu.Lock()
	labels := append([]string(nil), f.order...)
	vals := make([]uint64, len(labels))
	for i, lb := range labels {
		if c, ok := f.series[lb].(*Counter); ok {
			vals[i] = c.Value()
		}
	}
	key := f.labelKey
	f.mu.Unlock()
	for i, lb := range labels {
		ring := t.rings[lb]
		if ring == nil {
			ring = &sampleRing{vals: make([]uint64, r.ringCap)}
			t.rings[lb] = ring
		}
		ring.push(vals[i])
	}
	out := r.reg.familyRaw(t.outName,
		"Per-second rate of "+t.name+" over the trailing window.", typeGauge, "", nil, true)
	for lb, ring := range t.rings {
		for _, w := range r.windows {
			g := out.get(rateSeriesKey(key, lb, w), func() any { return new(FloatGauge) }).(*FloatGauge)
			g.Set(ring.rate(w, r.interval))
		}
	}
}

func (r *Rates) sampleHist(t *histTrack) {
	f := r.reg.lookupFamily(t.name)
	if f == nil || f.typ != typeHistogram {
		return
	}
	f.mu.Lock()
	labels := append([]string(nil), f.order...)
	snaps := make([][]uint64, len(labels))
	for i, lb := range labels {
		if h, ok := f.series[lb].(*Histogram); ok {
			snaps[i] = h.bucketCounts()
			if t.upper == nil {
				t.upper = append([]float64(nil), h.upper...)
			}
		}
	}
	f.mu.Unlock()
	for i, lb := range labels {
		if snaps[i] == nil {
			continue
		}
		ring := t.rings[lb]
		if ring == nil {
			ring = &bucketRing{vals: make([][]uint64, r.ringCap)}
			t.rings[lb] = ring
		}
		ring.push(snaps[i])
	}
}

// Rate returns the per-second rate of tracked counter family name over
// the trailing window (label selects a series of a labeled family, ""
// the unlabeled one). ok is false while the ring holds fewer than two
// samples — before the first full tick there is no rate to report.
func (r *Rates) Rate(name, label string, window time.Duration) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.counters {
		if t.name != name {
			continue
		}
		ring := t.rings[label]
		if ring == nil || ring.n < 2 {
			return 0, false
		}
		return ring.rate(window, r.interval), true
	}
	return 0, false
}

// WindowQuantile estimates quantile q of tracked histogram family name
// (label as in Rate) over the observations of the trailing window. ok
// is false when the window holds no observation — an idle system has no
// latency, not a zero latency.
func (r *Rates) WindowQuantile(name, label string, q float64, window time.Duration) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.hists {
		if t.name != name {
			continue
		}
		ring := t.rings[label]
		if ring == nil {
			return 0, false
		}
		delta, ok := ring.windowDelta(window, r.interval)
		if !ok {
			return 0, false
		}
		var total uint64
		for _, c := range delta {
			total += c
		}
		if total == 0 {
			return 0, false
		}
		return quantileFromCounts(t.upper, delta, q), true
	}
	return 0, false
}

// Snapshot returns every derived rate, keyed by output series name
// (source label included, e.g. `immunity_cluster_peer_forwards_per_second{peer="hub1"}`)
// and then by window label ("10s", "1m"). The /status payload embeds it.
func (r *Rates) Snapshot() map[string]map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]map[string]float64)
	for _, t := range r.counters {
		f := r.reg.lookupFamily(t.name)
		var key string
		if f != nil {
			key = f.labelKey
		}
		for lb, ring := range t.rings {
			name := t.outName
			if key != "" {
				name += renderLabels([][2]string{{key, lb}})
			}
			byWindow := make(map[string]float64, len(r.windows))
			for _, w := range r.windows {
				byWindow[windowLabel(w)] = ring.rate(w, r.interval)
			}
			out[name] = byWindow
		}
	}
	return out
}

// sampleRing is a fixed ring of counter snapshots.
type sampleRing struct {
	vals []uint64
	n    int // total pushes
}

func (s *sampleRing) push(v uint64) {
	s.vals[s.n%len(s.vals)] = v
	s.n++
}

// at returns the sample k ticks back (0 = newest).
func (s *sampleRing) at(k int) uint64 {
	return s.vals[(s.n-1-k)%len(s.vals)]
}

// span clamps a window to the ticks of history actually held.
func (s *sampleRing) span(window, interval time.Duration) int {
	steps := int(window / interval)
	if m := s.n - 1; steps > m {
		steps = m
	}
	if m := len(s.vals) - 1; steps > m {
		steps = m
	}
	return steps
}

func (s *sampleRing) rate(window, interval time.Duration) float64 {
	steps := s.span(window, interval)
	if steps <= 0 {
		return 0
	}
	cur, old := s.at(0), s.at(steps)
	if cur <= old {
		return 0
	}
	return float64(cur-old) / (float64(steps) * interval.Seconds())
}

// bucketRing is a fixed ring of histogram bucket-count snapshots.
type bucketRing struct {
	vals [][]uint64
	n    int
}

func (b *bucketRing) push(counts []uint64) {
	b.vals[b.n%len(b.vals)] = counts
	b.n++
}

// windowDelta returns per-bucket observation counts over the trailing
// window (newest snapshot minus the one window ticks back).
func (b *bucketRing) windowDelta(window, interval time.Duration) ([]uint64, bool) {
	steps := int(window / interval)
	if m := b.n - 1; steps > m {
		steps = m
	}
	if m := len(b.vals) - 1; steps > m {
		steps = m
	}
	if steps <= 0 {
		return nil, false
	}
	cur := b.vals[(b.n-1)%len(b.vals)]
	old := b.vals[(b.n-1-steps)%len(b.vals)]
	delta := make([]uint64, len(cur))
	for i := range cur {
		if i < len(old) && cur[i] > old[i] {
			delta[i] = cur[i] - old[i]
		}
	}
	return delta, true
}

// rateSeriesKey renders the raw label block of one derived rate series.
func rateSeriesKey(labelKey, label string, window time.Duration) string {
	if labelKey == "" {
		return renderLabels([][2]string{{"window", windowLabel(window)}})
	}
	return renderLabels([][2]string{{labelKey, label}, {"window", windowLabel(window)}})
}

// windowLabel renders a window compactly: 10s, 1m, 5m, 1h.
func windowLabel(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return strconv.Itoa(int(d/time.Hour)) + "h"
	case d >= time.Minute && d%time.Minute == 0:
		return strconv.Itoa(int(d/time.Minute)) + "m"
	case d >= time.Second && d%time.Second == 0:
		return strconv.Itoa(int(d/time.Second)) + "s"
	default:
		return d.String()
	}
}
