// Package metrics provides the measurement substrate for the evaluation:
// windowed synchronization-throughput meters (Table 1's syncs/sec; the §5
// microbenchmark, workload.Run, counts its own operations over one
// window), memory accounting (the 4% platform overhead), and a battery
// power model (the 14% attribution claim).
package metrics

import (
	"fmt"
	"sync"
	"time"
)

// Sample is one observation of a cumulative counter.
type Sample struct {
	At    time.Time
	Count uint64
}

// Meter samples a monotonically non-decreasing counter (e.g. a process's
// completed synchronizations) and answers rate queries over windows. The
// paper profiles each application for several minutes and then selects
// "the 30 seconds interval with the highest average synchronization
// throughput"; PeakWindow implements exactly that selection.
type Meter struct {
	source func() uint64

	mu      sync.Mutex
	samples []Sample

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewMeter creates a meter over the given cumulative counter.
func NewMeter(source func() uint64) *Meter {
	return &Meter{source: source}
}

// Observe records one sample now.
func (m *Meter) Observe() {
	m.observeAt(time.Now())
}

func (m *Meter) observeAt(at time.Time) {
	c := m.source()
	m.mu.Lock()
	m.samples = append(m.samples, Sample{At: at, Count: c})
	m.mu.Unlock()
}

// Start begins background sampling with the given period; Stop ends it.
// Start must not be called twice without an intervening Stop.
func (m *Meter) Start(period time.Duration) {
	m.stop = make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		m.Observe()
		for {
			select {
			case <-m.stop:
				m.Observe()
				return
			case <-ticker.C:
				m.Observe()
			}
		}
	}()
}

// Stop halts background sampling, recording one final sample.
func (m *Meter) Stop() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	m.wg.Wait()
	m.stop = nil
}

// Samples returns a copy of the recorded samples.
func (m *Meter) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// Rate returns the overall average rate (events/sec) across all samples,
// or 0 with fewer than two samples.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.samples)
	if n < 2 {
		return 0
	}
	first, last := m.samples[0], m.samples[n-1]
	dt := last.At.Sub(first.At).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(last.Count-first.Count) / dt
}

// PeakWindow returns the highest average rate over any sample interval at
// least `width` long, and that interval's bounds. It returns ok=false when
// no interval of the required width exists.
func (m *Meter) PeakWindow(width time.Duration) (rate float64, start, end time.Time, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.samples)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dt := m.samples[j].At.Sub(m.samples[i].At)
			if dt < width {
				continue
			}
			r := float64(m.samples[j].Count-m.samples[i].Count) / dt.Seconds()
			if !ok || r > rate {
				rate, start, end, ok = r, m.samples[i].At, m.samples[j].At, true
			}
			break // longer windows from i only dilute the average
		}
	}
	return rate, start, end, ok
}

// FormatRate renders a rate the way the paper's tables do (integer
// syncs/sec with thousands separator).
func FormatRate(r float64) string {
	n := int64(r + 0.5)
	if n < 1000 {
		return fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("%d,%03d", n/1000, n%1000)
}
