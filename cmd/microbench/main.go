// Command microbench regenerates the §5 performance microbenchmark
// (experiment E3): N threads executing synchronized blocks on random lock
// objects with busy-wait work, against a synthetic history of 64–256
// signatures, measured vanilla vs Dimmunix. -curve instead sweeps the
// per-op work at a fixed shape to show where the paper's 4–5% overhead
// regime sits. Per-layer numbers (engine fast path, propagation
// latency, the fleet tier) are rungs of the repository benchmark:
// bash bench/run.sh --trace 1.
//
// Usage:
//
//	microbench [-threads csv] [-sigs csv] [-duration D] [-work N] [-seed N]
//	microbench -curve [-duration D] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/dimmunix/dimmunix/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "microbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("microbench", flag.ContinueOnError)
	threadsCSV := fs.String("threads", "2,8,32,128,512", "thread counts to sweep")
	sigsCSV := fs.String("sigs", "64,128,256", "synthetic history sizes")
	duration := fs.Duration("duration", time.Second, "measurement duration per cell")
	work := fs.Int("work", 0, "busy-wait iterations per op (0 = calibrate to the paper's ~1,747 syncs/sec)")
	seed := fs.Int64("seed", 42, "workload seed")
	curve := fs.Bool("curve", false, "measure the overhead-vs-work curve instead of the thread sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *curve {
		calibrated := workload.CalibrateWork(workload.PaperTargetSyncsPerSec, 2)
		fmt.Printf("overhead vs per-op work (2 threads, 128 signatures; calibrated operating point = %d iters/op):\n\n", calibrated)
		points, err := workload.OverheadCurve(workload.DefaultCurveWorkSizes(calibrated), 2, 128, *duration, *seed)
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatCurve(points))
		fmt.Println("\nwork=0 is the pure interception cost (upper bound); the paper's 4-5%")
		fmt.Println("regime is the work size where computation ≈ 20-25× the interception cost.")
		return nil
	}

	threads, err := parseInts(*threadsCSV)
	if err != nil {
		return fmt.Errorf("bad -threads: %w", err)
	}
	sigs, err := parseInts(*sigsCSV)
	if err != nil {
		return fmt.Errorf("bad -sigs: %w", err)
	}

	cfg := workload.SweepConfig{
		ThreadCounts:    threads,
		SignatureCounts: sigs,
		Duration:        *duration,
		WorkIters:       *work,
		Seed:            *seed,
	}
	if *work == 0 {
		calibrated := workload.CalibrateWork(workload.PaperTargetSyncsPerSec, threads[0])
		fmt.Printf("calibrated busy work: %d iterations/op (targeting ~%d syncs/sec vanilla, the paper's operating point)\n\n",
			calibrated, int(workload.PaperTargetSyncsPerSec))
		cfg.WorkIters = calibrated
	}

	points, err := workload.RunSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Print(workload.FormatSweep(points))
	fmt.Println("\npaper reference: vanilla 1738-1756 syncs/sec, dimmunix 1657-1681 syncs/sec (4-5% overhead)")
	return nil
}

// parseInts parses a comma-separated integer list.
func parseInts(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("non-positive count %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
