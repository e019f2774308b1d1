package workload

import (
	"fmt"
	"strings"
	"time"
)

// SweepPoint is one (threads, signatures) cell of the E3 comparison.
type SweepPoint struct {
	Threads    int
	Signatures int
	Vanilla    Result
	Dimmunix   Result
}

// OverheadPct is the throughput overhead of Dimmunix at this point (the
// paper reports 4–5% at its operating point).
func (p SweepPoint) OverheadPct() float64 {
	if p.Vanilla.SyncsPerSec <= 0 {
		return 0
	}
	return (p.Vanilla.SyncsPerSec - p.Dimmunix.SyncsPerSec) / p.Vanilla.SyncsPerSec * 100
}

// SweepConfig parameterizes the E3 sweep.
type SweepConfig struct {
	// ThreadCounts to sweep (the paper: 2–512).
	ThreadCounts []int
	// SignatureCounts to sweep (the paper: 64–256).
	SignatureCounts []int
	// Duration per measurement.
	Duration time.Duration
	// WorkIters is the total busy-work per op; 0 means calibrate to the
	// paper's 1738–1756 syncs/sec operating point.
	WorkIters int
	// Seed for reproducibility.
	Seed int64
}

// DefaultSweepConfig returns the paper's sweep ranges.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		ThreadCounts:    []int{2, 8, 32, 128, 512},
		SignatureCounts: []int{64, 128, 256},
		Duration:        time.Second,
		Seed:            42,
	}
}

// RunSweep measures vanilla and Dimmunix throughput across the configured
// grid.
func RunSweep(cfg SweepConfig) ([]SweepPoint, error) {
	work := cfg.WorkIters
	if work == 0 {
		work = CalibrateWork(PaperTargetSyncsPerSec, cfg.ThreadCounts[0])
	}
	var points []SweepPoint
	for _, threads := range cfg.ThreadCounts {
		for _, sigs := range cfg.SignatureCounts {
			base := DefaultMicroConfig(threads)
			base.Duration = cfg.Duration
			base.Signatures = sigs
			base.InsideWork = work / 4
			base.OutsideWork = work - work/4
			base.Seed = cfg.Seed

			van := base
			van.Dimmunix = false
			vres, err := Run(van)
			if err != nil {
				return nil, fmt.Errorf("sweep threads=%d sigs=%d vanilla: %w", threads, sigs, err)
			}
			dim := base
			dim.Dimmunix = true
			dres, err := Run(dim)
			if err != nil {
				return nil, fmt.Errorf("sweep threads=%d sigs=%d dimmunix: %w", threads, sigs, err)
			}
			points = append(points, SweepPoint{
				Threads:    threads,
				Signatures: sigs,
				Vanilla:    vres,
				Dimmunix:   dres,
			})
		}
	}
	return points, nil
}

// FormatSweep renders the sweep as the paper reports it: vanilla vs
// Dimmunix syncs/sec and the overhead percentage.
func FormatSweep(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %6s %16s %16s %10s\n", "threads", "sigs", "vanilla", "dimmunix", "overhead")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %6d %13.0f/s %13.0f/s %9.1f%%\n",
			p.Threads, p.Signatures, p.Vanilla.SyncsPerSec, p.Dimmunix.SyncsPerSec, p.OverheadPct())
	}
	return b.String()
}
