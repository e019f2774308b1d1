// Fleet stress workload: many processes × many threads of mixed
// application profiles, driving the sharded engine under heavy traffic.
// Where the Table 1 replays (internal/apps) pace every thread to the
// profiled per-app rate, the fleet runs unpaced — every thread issues
// synchronized operations as fast as it can over its app's lock pool and
// call sites — which is the platform-under-load scenario the ROADMAP's
// production-scale north star asks for. Each process is forked from a
// Zygote sharing one history store, and a fraction of each app's call
// sites is covered by synthetic signatures, so the traffic is a mix of
// fast-path (unnamed positions) and slow-path (armed positions, full
// avoidance) interceptions, like a real device with a populated history.
package workload

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/apps"
	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// FleetConfig parameterizes one fleet stress run.
type FleetConfig struct {
	// Processes is how many application processes the Zygote forks. Each
	// process replays one Table 1 profile, assigned round-robin.
	Processes int
	// ThreadsPerProc overrides the worker count per process; 0 uses each
	// profile's own thread count.
	ThreadsPerProc int
	// Locks caps each process's lock pool (0 = profile's pool / 8, to
	// create some real contention under unpaced load).
	Locks int
	// Duration is the measurement window.
	Duration time.Duration
	// Dimmunix enables immunity; false is the vanilla baseline.
	Dimmunix bool
	// Serial forces the serial reference engine (global engine lock).
	Serial bool
	// ArmedSiteFraction is the fraction (0..1) of each app's call sites
	// covered by synthetic signatures, putting them on the full
	// avoidance path. The rest of the traffic takes the fast path.
	ArmedSiteFraction float64
	// InsideWork / OutsideWork are busy-wait iteration counts per op.
	InsideWork  int
	OutsideWork int
	// Seed makes lock/site selection reproducible.
	Seed int64
}

// DefaultFleetConfig is a moderate fleet: 8 processes, profile thread
// counts, a quarter of the sites armed.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Processes:         8,
		Duration:          time.Second,
		Dimmunix:          true,
		ArmedSiteFraction: 0.25,
		InsideWork:        20,
		OutsideWork:       60,
		Seed:              42,
	}
}

// validate rejects inconsistent configs.
func (cfg FleetConfig) validate() error {
	if cfg.Processes < 1 {
		return fmt.Errorf("fleet: need >= 1 process, got %d", cfg.Processes)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("fleet: non-positive duration %v", cfg.Duration)
	}
	if cfg.ArmedSiteFraction < 0 || cfg.ArmedSiteFraction > 1 {
		return fmt.Errorf("fleet: armed-site fraction %v outside [0,1]", cfg.ArmedSiteFraction)
	}
	if cfg.ThreadsPerProc < 0 || cfg.Locks < 0 {
		return fmt.Errorf("fleet: negative thread or lock count")
	}
	return nil
}

// FleetProcResult is one process's share of a fleet run.
type FleetProcResult struct {
	// Name is the process name (app package + index).
	Name string
	// Profile is the replayed application profile's name.
	Profile string
	// Threads is the worker count.
	Threads int
	// Ops is the number of synchronized operations completed during the
	// measurement window (after the scheduler warmup).
	Ops uint64
	// TotalOps additionally includes warmup operations.
	TotalOps uint64
	// CoreStats snapshots the process's Dimmunix counters (zero when
	// vanilla).
	CoreStats core.Stats
}

// FleetResult aggregates a fleet run.
type FleetResult struct {
	Config FleetConfig
	// Wall is the measured duration.
	Wall time.Duration
	// Ops is the fleet-wide number of completed synchronizations.
	Ops uint64
	// SyncsPerSec is the aggregate throughput across all processes.
	SyncsPerSec float64
	// FastPathPct is the percentage of Requests served by the sharded
	// fast path, aggregated over all processes (0 for vanilla/serial).
	FastPathPct float64
	// Yields / DeadlocksDetected aggregate the respective core counters.
	Yields            uint64
	DeadlocksDetected uint64
	// PerProcess holds the per-process breakdown.
	PerProcess []FleetProcResult
}

// armedSignatures builds synthetic signatures covering the first
// fraction×len(frames) call sites, pairing each hot site with a cold
// never-executed position (so the signatures arm the avoidance path
// without ever being instantiable — the §5 methodology, scaled to the
// fleet).
func armedSignatures(frames []core.Frame, fraction float64) []*core.Signature {
	n := int(float64(len(frames)) * fraction)
	sigs := make([]*core.Signature, 0, n)
	for i := 0; i < n; i++ {
		hot := frames[i]
		cold := core.Frame{
			Class:  "com.dimmunix.fleet.Cold",
			Method: "neverExecuted",
			Line:   1000 + i,
		}
		sigs = append(sigs, &core.Signature{
			Kind: core.DeadlockSig,
			Pairs: []core.SigPair{
				{Outer: core.CallStack{hot}, Inner: core.CallStack{hot}},
				{Outer: core.CallStack{cold}, Inner: core.CallStack{cold}},
			},
		})
	}
	return sigs
}

// RunFleet executes one fleet stress configuration.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	if err := cfg.validate(); err != nil {
		return FleetResult{}, err
	}
	store := core.NewMemHistory()
	z := vm.NewZygote(
		vm.WithDimmunix(cfg.Dimmunix),
		vm.WithHistory(store),
		vm.WithCoreOptions(core.WithSerialEngine(cfg.Serial)),
	)
	defer z.KillAll()

	profiles := apps.Table1()
	type fleetProc struct {
		proc    *vm.Process
		profile apps.Profile
		threads int
		ops     atomic.Uint64
	}
	procs := make([]*fleetProc, 0, cfg.Processes)
	stop := make(chan struct{})

	for i := 0; i < cfg.Processes; i++ {
		profile := profiles[i%len(profiles)]
		p, err := z.Fork(fmt.Sprintf("%s.%d", profile.Package, i))
		if err != nil {
			close(stop)
			return FleetResult{}, fmt.Errorf("fleet: %w", err)
		}
		frames := profile.SiteFrames()
		if dim := p.Dimmunix(); dim != nil {
			for _, sig := range armedSignatures(frames, cfg.ArmedSiteFraction) {
				if _, _, err := dim.AddSignature(sig); err != nil {
					close(stop)
					return FleetResult{}, fmt.Errorf("fleet: arm signatures: %w", err)
				}
			}
		}

		threads := profile.Threads
		if cfg.ThreadsPerProc > 0 {
			threads = cfg.ThreadsPerProc
		}
		nLocks := profile.Locks / 8
		if cfg.Locks > 0 {
			nLocks = cfg.Locks
		}
		if nLocks < 1 {
			nLocks = 1
		}
		locks := make([]*vm.Object, nLocks)
		for li := range locks {
			locks[li] = p.NewObject(fmt.Sprintf("%s.lock%d", profile.Name, li))
		}

		fp := &fleetProc{proc: p, profile: profile, threads: threads}
		procs = append(procs, fp)
		for w := 0; w < threads; w++ {
			idx := w
			if _, err := p.Start(fmt.Sprintf("%s-w%d", profile.Name, w), func(t *vm.Thread) {
				fleetWorker(t, cfg, int64(i*1000+idx), idx, locks, frames, &fp.ops, stop)
			}); err != nil {
				close(stop)
				return FleetResult{}, fmt.Errorf("fleet: %w", err)
			}
		}
	}

	// Scheduling warmup: with hundreds of unpaced goroutines on few cores,
	// a process can go unscheduled for the whole window of a short run.
	// Wait (bounded) until every process has completed at least one op,
	// then measure from a post-warmup baseline so the reported throughput
	// covers only the intended window, not scheduler startup order.
	warmupDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(warmupDeadline) {
		warmed := true
		for _, fp := range procs {
			if fp.ops.Load() == 0 {
				warmed = false
				break
			}
		}
		if warmed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	base := make([]uint64, len(procs))
	for i, fp := range procs {
		base[i] = fp.ops.Load()
	}
	start := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	for _, fp := range procs {
		fp.proc.Join(30 * time.Second)
	}
	wall := time.Since(start)

	res := FleetResult{Config: cfg, Wall: wall}
	var fastReq, totalReq uint64
	for i, fp := range procs {
		total := fp.ops.Load()
		pr := FleetProcResult{
			Name:     fp.proc.Name(),
			Profile:  fp.profile.Name,
			Threads:  fp.threads,
			Ops:      total - base[i],
			TotalOps: total,
		}
		if dim := fp.proc.Dimmunix(); dim != nil {
			pr.CoreStats = dim.Stats()
			fastReq += pr.CoreStats.FastRequests
			totalReq += pr.CoreStats.Requests
			res.Yields += pr.CoreStats.Yields
			res.DeadlocksDetected += pr.CoreStats.DeadlocksDetected
		}
		res.Ops += pr.Ops
		res.PerProcess = append(res.PerProcess, pr)
	}
	res.SyncsPerSec = float64(res.Ops) / wall.Seconds()
	if totalReq > 0 {
		res.FastPathPct = 100 * float64(fastReq) / float64(totalReq)
	}
	return res, nil
}

// fleetWorker hammers the process's lock pool from its app's call sites,
// unpaced, until stopped.
func fleetWorker(t *vm.Thread, cfg FleetConfig, seed int64, idx int, locks []*vm.Object, frames []core.Frame, ops *atomic.Uint64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(cfg.Seed + seed))
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
