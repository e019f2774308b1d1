// Command microbench regenerates the §5 performance microbenchmark
// (experiment E3): N threads executing synchronized blocks on random lock
// objects with busy-wait work, against a synthetic history of 64–256
// signatures, measured vanilla vs Dimmunix.
//
// Usage:
//
//	microbench [-threads csv] [-sigs csv] [-duration D] [-work N | -calibrate]
//	microbench -engines [-threads csv] [-duration D]   # serial vs sharded engine
//	microbench -fleet N [-duration D] [-engine serial|sharded]  # fleet stress
//	microbench -propagation [-procs N] [-propsigs N] [-tcp]  # time-to-immunity across live processes (or phones, over TCP)
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
	engine := fs.String("engine", "sharded", "core engine: sharded (low-contention fast path) or serial (the paper's global lock)")
	engines := fs.Bool("engines", false, "compare the serial and sharded engines head to head (full VM path)")
	uncontended := fs.Bool("uncontended", false, "compare the engines on core-level uncontended monitorenters (per-goroutine private locks)")
	fleet := fs.Int("fleet", 0, "run the fleet stress workload with this many processes instead of the thread sweep")
	propagation := fs.Bool("propagation", false, "measure the immunity service's publish→all-armed latency across live processes")
	propProcs := fs.Int("procs", 8, "live processes for -propagation")
	propSigs := fs.Int("propsigs", 64, "signatures to publish for -propagation")
	propTCP := fs.Bool("tcp", false, "with -propagation: cross-device latency through the TCP exchange (publish on one phone → armed on another)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	serial, err := parseEngine(*engine)
	if err != nil {
		return err
	}

	if *propagation {
		var res workload.PropagationResult
		if *propTCP {
			res, err = workload.PropagationLatencyTCP(*propProcs, *propSigs)
		} else {
			res, err = workload.PropagationLatency(*propProcs, *propSigs)
		}
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatPropagation(res))
		return nil
	}

	if *fleet > 0 {
		cfg := workload.DefaultFleetConfig()
		cfg.Processes = *fleet
		cfg.Duration = *duration
		cfg.Serial = serial
		cfg.Seed = *seed
		res, err := workload.RunFleet(cfg)
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatFleet(res))
		return nil
	}

	if *engines {
		return compareEngines(*threadsCSV, *duration, *seed)
	}
	if *uncontended {
		return compareUncontended(*threadsCSV, *duration)
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
		Serial:          serial,
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

// parseEngine maps the -engine flag to the core's Serial switch.
func parseEngine(name string) (serial bool, err error) {
	switch name {
	case "serial":
		return true, nil
	case "sharded":
		return false, nil
	default:
		return false, fmt.Errorf("bad -engine %q: want serial or sharded", name)
	}
}

// compareEngines runs the unpaced (work-free) microbenchmark on both
// engines per thread count — the pure interception throughput, where the
// sharded fast path's win shows.
func compareEngines(threadsCSV string, duration time.Duration, seed int64) error {
	threads, err := parseInts(threadsCSV)
	if err != nil {
		return fmt.Errorf("bad -threads: %w", err)
	}
	fmt.Println("engine comparison (no busy work, 0 signatures: pure interception):")
	fmt.Printf("%8s %14s %14s %9s\n", "threads", "serial", "sharded", "speedup")
	for _, n := range threads {
		var rates [2]float64
		for i, serial := range []bool{true, false} {
			cfg := workload.DefaultMicroConfig(n)
			cfg.Duration = duration
			cfg.Signatures = 0
			cfg.InsideWork = 0
			cfg.OutsideWork = 0
			cfg.Serial = serial
			cfg.Seed = seed
			res, err := workload.Run(cfg)
			if err != nil {
				return err
			}
			rates[i] = res.SyncsPerSec
		}
		speedup := 0.0
		if rates[0] > 0 {
			speedup = rates[1] / rates[0]
		}
		fmt.Printf("%8d %14.0f %14.0f %8.2fx\n", n, rates[0], rates[1], speedup)
	}
	return nil
}

// compareUncontended measures the raw Request/Acquired/Release cycle for
// uncontended monitorenters — per-goroutine private lock and position,
// named by no signature — on both engines. This is the interception cost
// the sharded fast path attacks; the VM's stack capture and monitor costs
// are excluded.
func compareUncontended(threadsCSV string, duration time.Duration) error {
	threads, err := parseInts(threadsCSV)
	if err != nil {
		return fmt.Errorf("bad -threads: %w", err)
	}
	fmt.Println("core-level uncontended monitorenter (private lock+position per goroutine):")
	fmt.Printf("%10s %14s %14s %9s\n", "goroutines", "serial", "sharded", "speedup")
	for _, n := range threads {
		var rates [2]float64
		for i, serial := range []bool{true, false} {
			rate, err := workload.UncontendedEnterRate(n, duration, serial)
			if err != nil {
				return err
			}
			rates[i] = rate
		}
		speedup := 0.0
		if rates[0] > 0 {
			speedup = rates[1] / rates[0]
		}
		fmt.Printf("%10d %14.0f %14.0f %8.2fx\n", n, rates[0], rates[1], speedup)
	}
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
