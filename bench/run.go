package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// The noise method. A run is a sequence of identical rounds. Each round
// builds its state from scratch, does a fixed amount of work, is
// checked, and is torn down; the collector runs between rounds (the
// reference kernel forces it), outside the timed section. Rates, CPU and heap are medians over rounds, and
// latencies are pooled over all measured rounds — never whole-run
// means, which on a shared box follow the box, not the code. Every
// round is bracketed by the reference kernel and its times are
// expressed in reference time (see ref.go).

const (
	warmupRounds = 3
	// setupReps is how often set-up (input generation, workload
	// preparation, the warm-up rounds) is repeated so setup_s can be a
	// median.
	setupReps = 3
)

// runConfig is one run's command line.
type runConfig struct {
	seed int64
	d    time.Duration
	// rounds > 0 is trial mode, for tests and quick looks: exactly that
	// many measured rounds after a single set-up with one warm-up round,
	// and a twentieth of the isolated layer calls. Its numbers are not
	// comparable with a timed run's.
	rounds int
	tmp    string
}

func (c runConfig) trial() bool { return c.rounds > 0 }

func (c runConfig) setupReps() int {
	if c.trial() {
		return 1
	}
	return setupReps
}

func (c runConfig) warmupRounds() int {
	if c.trial() {
		return 1
	}
	return warmupRounds
}

// roundResult is what one round reports.
type roundResult struct {
	ops    int // ops attempted
	failed int // ops that timed out, errored, or failed their check
	// wall and cpu cover the round's timed section only.
	wall, cpu time.Duration
	// lats are the sampled latencies of completed ops.
	lats []time.Duration
	// heap is HeapAlloc after a forced collection at round end, with the
	// round's state still live.
	heap uint64
	// baseWall is phone-sync's paired vanilla round (0 elsewhere).
	baseWall time.Duration
	// counts are layer counters read from the program's public accessors
	// at the round boundary.
	counts map[string]float64
}

// runner is one prepared workload.
type runner interface {
	// round runs one fresh-state round. warm marks an unmeasured warm-up
	// round, which may run extra checks that would disturb a measured
	// one. A non-nil error means an output was wrong or the round could
	// not be built; the run then reports correct=false.
	round(tr *tracer, warm bool) (roundResult, error)
}

// workloadNames is the order workloads are listed and self-checked in.
var workloadNames = []string{"phone-sync", "hub-ingest", "hub-recover", "fleet-immunity"}

func prepare(name string, in *inputs, tmp string) (runner, error) {
	switch name {
	case "phone-sync":
		return newPhoneSync(in), nil
	case "hub-ingest":
		return newHubIngest(in, tmp), nil
	case "hub-recover":
		return newHubRecover(in, tmp)
	case "fleet-immunity":
		return newFleetImmunity(in, tmp)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// timedRound runs one round between two runs of the reference kernel
// and returns it with the box's speed around it.
func timedRound(r runner, tr *tracer, warm bool) (roundResult, float64, error) {
	before := refKernel()
	res, err := r.round(tr, warm)
	return res, boxSpeed(before, refKernel()), err
}

// setUp generates the inputs, prepares the workload and runs the
// warm-up rounds: everything between process start and the first
// measured round. The time it returns is in reference time and leaves
// the reference kernel's own runs out.
func setUp(name string, cfg runConfig) (runner, *inputs, time.Duration, error) {
	start := time.Now()
	kernels := []time.Duration{refKernel()}
	in := generate(cfg.seed)
	r, err := prepare(name, in, cfg.tmp)
	if err != nil {
		return nil, nil, 0, err
	}
	for i := 0; i < cfg.warmupRounds(); i++ {
		kernels = append(kernels, refKernel())
		res, err := r.round(nil, true)
		if err == nil && res.failed > 0 {
			err = fmt.Errorf("%d of %d ops failed", res.failed, res.ops)
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("warm-up round %d: %w", i, err)
		}
	}
	kernels = append(kernels, refKernel())
	took := time.Since(start)
	for _, k := range kernels {
		took -= k
	}
	return r, in, time.Duration(float64(took) * boxSpeed(kernels...)), nil
}

// measurement aggregates the measured rounds of one run.
type measurement struct {
	rounds            int
	attempted, failed int
	speeds            []float64 // box speed per round
	rawRates          []float64 // ops/s per round in wall time, for the report only
	rates             []float64 // ops/s per round
	baseRates         []float64 // phone-sync: vanilla ops/s per round
	cpuPerOp          []float64 // µs per round
	heapMB            []float64
	pool              *latencyPool
	counts            map[string][]float64
	errs              []error
}

func newMeasurement(seed int64) *measurement {
	return &measurement{pool: newLatencyPool(seed), counts: make(map[string][]float64)}
}

// add folds one round in. speed is the box's speed around the round;
// every time the round measured is multiplied by it.
func (m *measurement) add(res roundResult, speed float64, err error) {
	m.rounds++
	m.attempted += res.ops
	m.failed += res.failed
	if err != nil {
		m.errs = append(m.errs, fmt.Errorf("round %d: %w", m.rounds, err))
		return
	}
	done := res.ops - res.failed
	if done == 0 || res.wall <= 0 {
		return
	}
	m.speeds = append(m.speeds, speed)
	m.rawRates = append(m.rawRates, float64(done)/res.wall.Seconds())
	m.rates = append(m.rates, float64(done)/(res.wall.Seconds()*speed))
	if res.baseWall > 0 {
		m.baseRates = append(m.baseRates, float64(done)/(res.baseWall.Seconds()*speed))
	}
	m.cpuPerOp = append(m.cpuPerOp, speed*float64(res.cpu.Microseconds())/float64(done))
	m.heapMB = append(m.heapMB, float64(res.heap)/(1<<20))
	for i := range res.lats {
		res.lats[i] = time.Duration(float64(res.lats[i]) * speed)
	}
	m.pool.add(res.lats)
	for k, v := range res.counts {
		m.counts[k] = append(m.counts[k], v)
	}
}

// another reports whether round i (from 0) of a measurement that began
// at start should run: exactly `rounds` of them when rounds > 0, else at
// least one and then for as long as d has not passed.
func another(i, rounds int, start time.Time, d time.Duration) bool {
	if rounds > 0 {
		return i < rounds
	}
	return i == 0 || time.Since(start) < d
}

// measure runs rounds for the given duration, or exactly `rounds` of
// them when rounds > 0.
func measure(r runner, tr *tracer, seed int64, d time.Duration, rounds int) *measurement {
	m := newMeasurement(seed)
	for i, start := 0, time.Now(); another(i, rounds, start, d); i++ {
		m.add(timedRound(r, tr, false))
	}
	return m
}

// metric is one named result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics from a measurement.
func (m *measurement) endToEnd(setupSeconds float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {setupSeconds, "s"},
		"ops_per_s":     {median(m.rates), "1/s"},
		"op_p50_us":     {m.pool.us(50), "us"},
		"op_p90_us":     {m.pool.us(90), "us"},
		"cpu_us_per_op": {median(m.cpuPerOp), "us"},
		"heap_mb":       {median(m.heapMB), "MB"},
	}
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runUntraced is the end-to-end run: repeated set-up, then measured
// rounds for the run's duration.
func runUntraced(w io.Writer, name string, cfg runConfig) (result, error) {
	var setups []float64
	var r runner
	for i := 0; i < cfg.setupReps(); i++ {
		var took time.Duration
		var err error
		if r, _, took, err = setUp(name, cfg); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	m := measure(r, nil, cfg.seed, cfg.d, cfg.rounds)
	res := result{Correct: len(m.errs) == 0 && m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: m.endToEnd(median(setups))}
	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d  rounds %d (after %d warm-up)  latency samples %d\n",
		name, cfg.seed, runtime.GOMAXPROCS(0), m.rounds, cfg.warmupRounds(), len(m.pool.ns))
	fmt.Fprintf(w, "box speed %.3f of nominal (median over rounds); ops_per_s in wall time %.4f\n",
		median(m.speeds), median(m.rawRates))
	printMetrics(w, res.Metrics)
	for _, err := range m.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
	}
	return res, nil
}
