package main

import (
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks. vals need not be sorted and is
// not modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// latencyPoolCap bounds the pooled op-latency samples. The pool is
// allocated once, before the first round, so that it adds a constant to
// heap_mb instead of growing with the round count.
const latencyPoolCap = 1 << 18

// latencyPool keeps a uniform sample of every latency offered to it:
// all of them while they fit, a reservoir sample after that.
type latencyPool struct {
	ns   []float64
	seen int
	rng  *rand.Rand
}

func newLatencyPool(seed int64) *latencyPool {
	return &latencyPool{ns: make([]float64, 0, latencyPoolCap), rng: rand.New(rand.NewSource(seed))}
}

func (p *latencyPool) add(lats []time.Duration) {
	for _, d := range lats {
		p.seen++
		if len(p.ns) < cap(p.ns) {
			p.ns = append(p.ns, float64(d))
		} else if j := p.rng.Intn(p.seen); j < len(p.ns) {
			p.ns[j] = float64(d)
		}
	}
}

// us returns the p-th percentile in microseconds.
func (p *latencyPool) us(pct float64) float64 { return percentile(p.ns, pct) / 1e3 }
