package apps

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/metrics"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// ReplayConfig tunes a profile replay.
type ReplayConfig struct {
	// InsideWork is the busy-loop iteration count inside each critical
	// section (simulated computation holding the lock; the paper's
	// microbenchmark uses busy waits because sleeps hide overhead).
	InsideWork int
	// OutsideWork is the busy-loop iteration count between operations.
	OutsideWork int
	// SamplePeriod is the throughput meter's sampling period.
	SamplePeriod time.Duration
	// Seed makes lock/site selection reproducible.
	Seed int64
}

// DefaultReplayConfig returns the standard replay tuning.
func DefaultReplayConfig() ReplayConfig {
	return ReplayConfig{
		InsideWork:   40,
		OutsideWork:  120,
		SamplePeriod: 100 * time.Millisecond,
		Seed:         1,
	}
}

// Replay is a running application workload.
type Replay struct {
	Profile Profile
	Proc    *vm.Process

	cfg   ReplayConfig
	locks []*vm.Object
	sites []core.Frame
	meter *metrics.Meter

	busyIters atomic.Int64
	stop      chan struct{}
	stopOnce  sync.Once
	start     chan struct{}
	warmWG    sync.WaitGroup
}

// Result summarizes a finished replay.
type Result struct {
	// Dimmunix reports whether the process ran with immunity.
	Dimmunix bool
	// AvgSyncsPerSec is the overall average synchronization throughput.
	AvgSyncsPerSec float64
	// PeakSyncsPerSec is the paper's metric: the highest average
	// throughput over any window of the width given to Stop.
	PeakSyncsPerSec float64
	// BusyTime is the accumulated simulated computation time (for the
	// power model).
	BusyTime time.Duration
	// CoreBytes is the measured core footprint (0 for vanilla).
	CoreBytes int64
	// VMSyncBytes is the measured VM synchronization footprint.
	VMSyncBytes int64
	// Stats is the process counter snapshot.
	Stats vm.ProcessStats
}

// StartReplay forks a process for the profile from the Zygote and starts
// its workload threads.
func StartReplay(z *vm.Zygote, profile Profile, cfg ReplayConfig) (*Replay, error) {
	proc, err := z.Fork(profile.Package)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", profile.Name, err)
	}
	return AttachReplay(proc, profile, cfg)
}

// AttachReplay starts the profile's workload threads on an existing
// process (e.g. an app forked by the Phone). The process is killed when
// the replay stops.
func AttachReplay(proc *vm.Process, profile Profile, cfg ReplayConfig) (*Replay, error) {
	r := &Replay{
		Profile: profile,
		Proc:    proc,
		cfg:     cfg,
		sites:   profile.sitePositions(),
		stop:    make(chan struct{}),
		start:   make(chan struct{}),
	}
	r.locks = make([]*vm.Object, profile.Locks)
	for i := range r.locks {
		r.locks[i] = proc.NewObject(fmt.Sprintf("%s.lock%d", profile.Name, i))
	}
	r.meter = metrics.NewMeter(proc.SyncCount)

	perThreadRate := profile.SyncsPerSec / float64(profile.Threads)
	period := time.Duration(float64(time.Second) / perThreadRate)
	r.warmWG.Add(profile.Threads)
	for i := 0; i < profile.Threads; i++ {
		idx := i
		if _, err := proc.Start(fmt.Sprintf("%s-t%d", profile.Name, i), func(t *vm.Thread) {
			r.worker(t, idx, period)
		}); err != nil {
			proc.Kill()
			return nil, fmt.Errorf("replay %s: %w", profile.Name, err)
		}
	}

	// Wait for the startup warmup (app initialization) to finish before
	// measurement begins: the paced steady state is what Table 1 profiles.
	warmed := make(chan struct{})
	go func() {
		r.warmWG.Wait()
		close(warmed)
	}()
	select {
	case <-warmed:
	case <-time.After(30 * time.Second):
		proc.Kill()
		return nil, fmt.Errorf("replay %s: warmup hung", profile.Name)
	}
	r.meter.Start(cfg.SamplePeriod)
	close(r.start)
	return r, nil
}

// worker issues paced synchronized operations over the lock pool. A
// startup warmup pass touches this thread's slice of the pool once —
// applications synchronize on most of their objects during initialization,
// and under Dimmunix that first monitorenter is what fattens the lock, so
// the fattened population (the memory-overhead driver) is established at
// startup rather than trickling in with the paced load.
func (r *Replay) worker(t *vm.Thread, idx int, period time.Duration) {
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(idx)))
	nLocks := len(r.locks)
	nSites := len(r.sites)
	threads := max(1, r.Profile.Threads)
	warmSite := r.sites[idx%nSites]
	for i := idx; i < nLocks; i += threads {
		if r.Proc.Killed() {
			r.warmWG.Done()
			return
		}
		t.Call(warmSite.Class, warmSite.Method, warmSite.Line, func() {
			r.locks[i].Synchronized(t, func() {})
		})
	}
	r.warmWG.Done()
	select {
	case <-r.start:
	case <-r.stop:
		return
	}

	lockCursor := idx * (nLocks / threads)
	stride := 1 + rng.Intn(7)*2 // odd-ish stride scatters accesses

	// Stagger thread phases across one period so the aggregate load is
	// smooth rather than a burst at every period boundary (real app
	// threads are not phase-aligned).
	offset := time.Duration(int64(period) * int64(idx) / int64(threads))
	select {
	case <-time.After(offset):
	case <-r.stop:
		return
	}

	next := time.Now()
	for k := 0; ; k++ {
		select {
		case <-r.stop:
			return
		default:
		}
		if r.Proc.Killed() {
			return
		}

		lock := r.locks[lockCursor%nLocks]
		lockCursor += stride
		site := r.sites[(idx+k)%nSites]

		t.Call(site.Class, site.Method, site.Line, func() {
			lock.Synchronized(t, func() {
				busyWork(r.cfg.InsideWork)
			})
		})
		busyWork(r.cfg.OutsideWork)
		r.busyIters.Add(int64(r.cfg.InsideWork + r.cfg.OutsideWork))

		// Pace to the profiled per-thread rate.
		next = next.Add(period)
		if d := time.Until(next); d > 0 {
			select {
			case <-r.stop:
				return
			case <-time.After(d):
			}
		} else {
			next = time.Now() // fell behind: don't accumulate debt
		}
	}
}

// busySink defeats dead-code elimination of the busy loops.
var busySink atomic.Uint64

// busyWork simulates computation: the paper uses busy waits, not sleeps,
// "because they hide the performance overhead".
func busyWork(iters int) {
	var acc uint64
	for i := 0; i < iters; i++ {
		acc = acc*1664525 + 1013904223
	}
	busySink.Add(acc)
}

// busyIterCost measures the cost of one busy-work iteration once; the
// replay's CPU busy time is iterations × this cost. Counting iterations
// instead of timing each call keeps the accounting above the clock's
// resolution (the per-op loops are tens of nanoseconds) and immune to
// scheduler preemption inflating wall time.
var (
	busyCostOnce  sync.Once
	busyIterNanos float64
)

func busyIterCost() float64 {
	busyCostOnce.Do(func() {
		const probe = 5_000_000
		start := time.Now()
		busyWork(probe)
		busyIterNanos = float64(time.Since(start).Nanoseconds()) / probe
	})
	return busyIterNanos
}

// Stop ends the replay and returns its results. The process is killed
// (replay processes are disposable). Stop is idempotent; results are
// computed on the first call.
func (r *Replay) Stop(peakWidth time.Duration) Result {
	r.stopOnce.Do(func() { close(r.stop) })
	r.Proc.Join(10 * time.Second)
	r.meter.Stop()

	res := Result{
		Dimmunix:       r.Proc.Dimmunix() != nil,
		AvgSyncsPerSec: r.meter.Rate(),
		BusyTime:       time.Duration(float64(r.busyIters.Load()) * busyIterCost()),
		VMSyncBytes:    r.Proc.SyncFootprint(),
		Stats:          r.Proc.Stats(),
	}
	if peak, _, _, ok := r.meter.PeakWindow(peakWidth); ok {
		res.PeakSyncsPerSec = peak
	} else {
		res.PeakSyncsPerSec = res.AvgSyncsPerSec
	}
	if dim := r.Proc.Dimmunix(); dim != nil {
		res.CoreBytes = dim.MemStats().Bytes
	}
	r.Proc.Kill()
	return res
}

// runProfile is the one-shot behind RunTable1: replay a profile for the
// given duration on a fresh Zygote and return the result.
func runProfile(profile Profile, dimmunix bool, duration, peakWidth time.Duration, cfg ReplayConfig) (Result, error) {
	z := vm.NewZygote(vm.WithDimmunix(dimmunix))
	r, err := StartReplay(z, profile, cfg)
	if err != nil {
		return Result{}, err
	}
	time.Sleep(duration)
	return r.Stop(peakWidth), nil
}
