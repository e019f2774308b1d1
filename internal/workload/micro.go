// Package workload implements the paper's §5 performance microbenchmark
// (experiment E3): 2–512 threads executing synchronized blocks on random
// lock objects (random to avoid contention, which would hide the
// overhead), busy-waiting instead of sleeping inside and outside the
// critical sections (sleeps also hide overhead), against a history of
// 64–256 synthetic signatures that put the benchmark's synchronization
// statements on the avoidance path without ever instantiating.
package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// MicroConfig parameterizes one microbenchmark run.
type MicroConfig struct {
	// Threads is the worker count (the paper sweeps 2–512).
	Threads int
	// Locks is the lock-pool size; workers pick randomly to avoid
	// contention.
	Locks int
	// Sites is the number of distinct synchronization statements the
	// workers cycle through.
	Sites int
	// InsideWork / OutsideWork are busy-wait iteration counts simulating
	// computation inside and outside the critical section.
	InsideWork  int
	OutsideWork int
	// Duration is how long the measurement runs.
	Duration time.Duration
	// Signatures is the synthetic history size (the paper uses 64–256);
	// 0 leaves the history empty.
	Signatures int
	// Dimmunix enables immunity; false is the vanilla baseline.
	Dimmunix bool
	// Serial forces the core's serial reference engine (global engine
	// lock, no sharded fast path) — the before/after baseline for the
	// sharded-engine numbers. Ignored for vanilla runs.
	Serial bool
	// Seed makes lock selection reproducible.
	Seed int64
}

// DefaultMicroConfig mirrors the paper's setup at a given thread count.
func DefaultMicroConfig(threads int) MicroConfig {
	return MicroConfig{
		Threads:     threads,
		Locks:       4 * threads,
		Sites:       16,
		InsideWork:  200,
		OutsideWork: 600,
		Duration:    time.Second,
		Signatures:  128,
		Dimmunix:    true,
		Seed:        42,
	}
}

// validate rejects inconsistent configs.
func (cfg MicroConfig) validate() error {
	if cfg.Threads < 1 {
		return fmt.Errorf("microbench: need >= 1 thread, got %d", cfg.Threads)
	}
	if cfg.Locks < 1 {
		return fmt.Errorf("microbench: need >= 1 lock, got %d", cfg.Locks)
	}
	if cfg.Sites < 1 {
		return fmt.Errorf("microbench: need >= 1 site, got %d", cfg.Sites)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("microbench: non-positive duration %v", cfg.Duration)
	}
	return nil
}

// Result is one microbenchmark measurement.
type Result struct {
	Config MicroConfig
	// Ops is the total number of completed synchronizations.
	Ops uint64
	// Wall is the measured duration.
	Wall time.Duration
	// SyncsPerSec is the aggregate throughput (the paper's metric).
	SyncsPerSec float64
	// NsPerOp is the mean latency of one synchronized operation.
	NsPerOp float64
	// CoreStats snapshots the Dimmunix core counters (zero for vanilla).
	CoreStats core.Stats
	// ProcStats snapshots the VM counters.
	ProcStats vm.ProcessStats
}

// benchFrames returns the benchmark's synchronization statements.
func benchFrames(sites int) []core.Frame {
	frames := make([]core.Frame, sites)
	for i := range frames {
		frames[i] = core.Frame{
			Class:  "com.dimmunix.bench.Worker",
			Method: "criticalSection",
			Line:   100 + i*10,
		}
	}
	return frames
}

// SyntheticSignatures builds n deadlock signatures for the history: each
// pairs one hot outer position (one of the benchmark's own sites, so
// matching runs on every acquisition there) with one cold position that
// never executes (so the signature can never be instantiated and the
// benchmark's behaviour is unchanged). This reproduces the paper's
// "history of 64–256 synthetic signatures ... to simulate the scenario in
// which many synchronization statements are involved in deadlock bugs".
func SyntheticSignatures(n int, hot []core.Frame) []*core.Signature {
	sigs := make([]*core.Signature, 0, n)
	for i := 0; i < n; i++ {
		hotFrame := hot[i%len(hot)]
		coldFrame := core.Frame{
			Class:  "com.dimmunix.bench.Cold",
			Method: "neverExecuted",
			Line:   1000 + i,
		}
		sigs = append(sigs, &core.Signature{
			Kind: core.DeadlockSig,
			Pairs: []core.SigPair{
				{Outer: core.CallStack{hotFrame}, Inner: core.CallStack{hotFrame}},
				{Outer: core.CallStack{coldFrame}, Inner: core.CallStack{coldFrame}},
			},
		})
	}
	return sigs
}

// Run executes one microbenchmark configuration.
func Run(cfg MicroConfig) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	var dim *core.Core
	if cfg.Dimmunix {
		var err error
		dim, err = core.New(core.WithSerialEngine(cfg.Serial))
		if err != nil {
			return Result{}, fmt.Errorf("microbench: %w", err)
		}
		for _, sig := range SyntheticSignatures(cfg.Signatures, benchFrames(cfg.Sites)) {
			if _, _, err := dim.AddSignature(sig); err != nil {
				return Result{}, fmt.Errorf("microbench: synthetic signature: %w", err)
			}
		}
	}
	proc := vm.NewProcess("microbench", dim)
	defer proc.Kill()

	locks := make([]*vm.Object, cfg.Locks)
	for i := range locks {
		locks[i] = proc.NewObject(fmt.Sprintf("bench-lock-%d", i))
	}
	frames := benchFrames(cfg.Sites)

	var ops atomic.Uint64
	stop := make(chan struct{})
	for i := 0; i < cfg.Threads; i++ {
		idx := i
		if _, err := proc.Start(fmt.Sprintf("bench-%d", i), func(t *vm.Thread) {
			runWorker(t, cfg, idx, locks, frames, &ops, stop)
		}); err != nil {
			close(stop)
			return Result{}, fmt.Errorf("microbench: %w", err)
		}
	}

	start := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	proc.Join(30 * time.Second)
	wall := time.Since(start)

	res := Result{
		Config:      cfg,
		Ops:         ops.Load(),
		Wall:        wall,
		SyncsPerSec: float64(ops.Load()) / wall.Seconds(),
		ProcStats:   proc.Stats(),
	}
	if res.Ops > 0 {
		res.NsPerOp = float64(wall.Nanoseconds()) / float64(res.Ops)
	}
	if dim != nil {
		res.CoreStats = dim.Stats()
	}
	return res, nil
}

// runWorker is the benchmark loop: random lock, synchronized block with
// busy work inside, busy work outside.
func runWorker(t *vm.Thread, cfg MicroConfig, idx int, locks []*vm.Object, frames []core.Frame, ops *atomic.Uint64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)))
	n := len(locks)
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		if t.Process().Killed() {
			return
		}
		lock := locks[rng.Intn(n)]
		f := frames[(idx+k)%len(frames)]
		t.Call(f.Class, f.Method, f.Line, func() {
			lock.Synchronized(t, func() {
				spin(cfg.InsideWork)
			})
		})
		spin(cfg.OutsideWork)
		ops.Add(1)
	}
}

// spinSink defeats dead-code elimination.
var spinSink atomic.Uint64

// spin busy-waits for the given iteration count.
func spin(iters int) {
	var acc uint64
	for i := 0; i < iters; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	spinSink.Add(acc)
}

// CalibrateWork sizes the busy-work iteration count so that a vanilla run
// achieves approximately the target aggregate throughput — the paper's
// microbenchmark executes 1738–1756 syncs/sec on the Nexus One, "similar
// to the synchronization throughput of the most lock-intensive
// applications". The returned count is the total per-op work; callers
// typically split it 1:3 between inside and outside.
func CalibrateWork(targetSyncsPerSec float64) int {
	if targetSyncsPerSec <= 0 {
		return 0
	}
	perIter := measureSpinCost()
	// CPU-bound workers: aggregate throughput ≈ P/(perOpSeconds) with P
	// schedulable processors; sizing for P=1 reproduces the single-core
	// Nexus One.
	perOp := 1.0 / targetSyncsPerSec
	iters := int(perOp / perIter)
	if iters < 1 {
		iters = 1
	}
	return iters
}

// measureSpinCost times one busy-wait iteration.
func measureSpinCost() float64 {
	const probe = 2_000_000
	start := time.Now()
	spin(probe)
	return time.Since(start).Seconds() / probe
}

// PaperTargetSyncsPerSec is the §5 vanilla operating point.
const PaperTargetSyncsPerSec = 1747 // midpoint of 1738–1756
