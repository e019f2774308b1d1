package workload

import (
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

func fastConfig(threads int, dimmunix bool) MicroConfig {
	cfg := DefaultMicroConfig(threads)
	cfg.Duration = 150 * time.Millisecond
	cfg.InsideWork = 50
	cfg.OutsideWork = 150
	cfg.Dimmunix = dimmunix
	return cfg
}

func TestMicroConfigValidation(t *testing.T) {
	bad := []MicroConfig{
		{Threads: 0, Locks: 1, Sites: 1, Duration: time.Millisecond},
		{Threads: 1, Locks: 0, Sites: 1, Duration: time.Millisecond},
		{Threads: 1, Locks: 1, Sites: 0, Duration: time.Millisecond},
		{Threads: 1, Locks: 1, Sites: 1, Duration: 0},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestMicroVanillaRun(t *testing.T) {
	res, err := Run(fastConfig(4, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.SyncsPerSec <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.CoreStats.Requests != 0 {
		t.Error("vanilla run must not touch a core")
	}
	if res.ProcStats.SyncOps < res.Ops {
		t.Errorf("VM counted %d syncs for %d ops", res.ProcStats.SyncOps, res.Ops)
	}
}

func TestMicroDimmunixRunExercisesAvoidance(t *testing.T) {
	cfg := fastConfig(4, true)
	cfg.Signatures = 64
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreStats.Requests == 0 {
		t.Fatal("dimmunix run must drive the core")
	}
	// Synthetic signatures put every benchmark site on the avoidance
	// path: matching must have run...
	if res.CoreStats.AvoidanceChecks == 0 {
		t.Error("synthetic history not exercised (no avoidance checks)")
	}
	// ...but can never instantiate (cold half never executes).
	if res.CoreStats.InstantiationsFound != 0 {
		t.Errorf("synthetic signatures instantiated %d times, want 0", res.CoreStats.InstantiationsFound)
	}
	if res.CoreStats.Yields != 0 {
		t.Errorf("benchmark yielded %d times, want 0", res.CoreStats.Yields)
	}
	if res.CoreStats.DeadlocksDetected != 0 {
		t.Errorf("benchmark deadlocked: %+v", res.CoreStats)
	}
}

func TestSyntheticSignaturesShape(t *testing.T) {
	hot := benchFrames(4)
	sigs := SyntheticSignatures(64, hot)
	if len(sigs) != 64 {
		t.Fatalf("got %d signatures, want 64", len(sigs))
	}
	keys := map[string]bool{}
	for i, sig := range sigs {
		if err := sig.Validate(); err != nil {
			t.Fatalf("sig %d invalid: %v", i, err)
		}
		if keys[sig.Key()] {
			t.Fatalf("sig %d duplicates an earlier key", i)
		}
		keys[sig.Key()] = true
		// One hot site, one cold site.
		if sig.Pairs[0].Outer[0].Class != "com.dimmunix.bench.Worker" {
			t.Errorf("sig %d first outer not hot: %v", i, sig.Pairs[0].Outer)
		}
		if sig.Pairs[1].Outer[0].Class != "com.dimmunix.bench.Cold" {
			t.Errorf("sig %d second outer not cold: %v", i, sig.Pairs[1].Outer)
		}
	}
	// All synthetic signatures install (no dedupe collisions).
	c, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sig := range sigs {
		if _, fresh, err := c.AddSignature(sig); err != nil || !fresh {
			t.Fatalf("install: fresh=%v err=%v", fresh, err)
		}
	}
	if c.HistorySize() != 64 {
		t.Errorf("history size = %d, want 64", c.HistorySize())
	}
}

// TestMicroEngineSplit is the engine comparison's shape at test size: 8
// threads over 16 sites with 4 signatures arm a quarter of the sites
// (SyntheticSignatures arms hot[i%len(hot)]), so the sharded engine
// splits its traffic between the fast and the slow path, and the serial
// reference engine takes no fast path at all. Neither engine may yield,
// deadlock or instantiate a never-instantiable signature.
func TestMicroEngineSplit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		serial bool
	}{{"serial", true}, {"sharded", false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig(8, true)
			cfg.Locks, cfg.Sites, cfg.Signatures = 32, 16, 4
			cfg.InsideWork, cfg.OutsideWork = 5, 10
			cfg.Serial = tc.serial
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := res.CoreStats
			if res.Ops == 0 || st.Requests == 0 {
				t.Fatalf("no progress through the core: %+v", res)
			}
			if st.Yields != 0 || st.DeadlocksDetected != 0 || st.InstantiationsFound != 0 {
				t.Errorf("yields %d, deadlocks %d, instantiations %d; want 0 each",
					st.Yields, st.DeadlocksDetected, st.InstantiationsFound)
			}
			if tc.serial {
				if st.FastRequests != 0 || st.FastAcquisitions != 0 || st.FastReleases != 0 {
					t.Errorf("serial engine took fast paths: %+v", st)
				}
				return
			}
			if pct := 100 * float64(st.FastRequests) / float64(st.Requests); pct <= 0 || pct >= 100 {
				t.Errorf("fast-path share = %.1f%%, want strictly between 0 and 100", pct)
			}
		})
	}
}

func TestMicroOverheadDirection(t *testing.T) {
	// Dimmunix must cost something: with near-zero per-op work the raw
	// interception overhead dominates, so vanilla must be faster. (The
	// calibrated operating-point comparison lives in the benchmarks.)
	cfg := fastConfig(2, false)
	cfg.InsideWork, cfg.OutsideWork = 0, 0
	cfg.Duration = 250 * time.Millisecond
	van, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dimmunix = true
	dim, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dim.SyncsPerSec >= van.SyncsPerSec {
		t.Errorf("dimmunix (%0.f/s) not slower than vanilla (%0.f/s) at zero work",
			dim.SyncsPerSec, van.SyncsPerSec)
	}
}

func TestCalibrateWork(t *testing.T) {
	iters := CalibrateWork(1747)
	if iters < 100 {
		t.Errorf("calibrated iters = %d; suspiciously small for ~1.7k syncs/sec", iters)
	}
	if CalibrateWork(0) != 0 {
		t.Error("zero target must calibrate to zero work")
	}
}
