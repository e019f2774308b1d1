// Report storm workload: drives a burst of device reports at the
// exchange far faster than the confirm pipeline wants to absorb them,
// to exercise the hub's admission control. With a bounded permit pool
// the storm degrades to bounded delay — publishers feel slow-ack
// backpressure, the delayed counter climbs, hub memory stays bounded —
// and every signature that reaches the threshold still arms fleet-wide.
// Without admission the same burst just races through (the counters
// stay zero); TestRunReportStorm and its Federated control assert the
// difference.
package workload

import (
	"crypto/tls"
	"fmt"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// StormConfig parameterizes one report storm.
type StormConfig struct {
	// Devices is how many simulated phones report concurrently (>= 2).
	Devices int
	// Sigs is how many distinct signatures each device reports; every
	// device reports the same set, so each signature collects Devices
	// confirmations and must arm.
	Sigs int
	// ConfirmThreshold gates arming on the in-process hubs (must not
	// exceed Devices; ignored in client mode, where the daemons own it —
	// there it must still not exceed Devices for arming to complete).
	ConfirmThreshold int
	// Hubs federates the in-process exchange (0 or 1 = single hub).
	// Ignored when Dial is set.
	Hubs int
	// AdmitCapacity and AdmitWait configure the in-process hubs'
	// admission pool (immunity.WithAdmission). Zero capacity disables
	// admission. Ignored when Dial is set — external daemons get their
	// pool from the -admit / -admit-wait flags.
	AdmitCapacity int
	AdmitWait     time.Duration
	// AdmitAuto replaces the fixed AdmitCapacity with an AIMD adaptive
	// admission pool per in-process hub: a Rates sampler and SLO
	// evaluator run beside each hub, and the pool's capacity follows
	// their verdicts (metrics.AdaptivePool). The run then reports the
	// controller's trace in the result. In-process only — in client
	// mode start the daemons with -admit auto instead. AdmitWait 0
	// defaults to 10s here (an adaptive pool that sheds instantly
	// would only ever back off).
	AdmitAuto bool
	// SLOTarget and SLOInterval shape the adaptive run's latency
	// objective: p99 of immunity_hub_report_seconds (admission wait
	// included) must stay at or under SLOTarget, evaluated every
	// SLOInterval (defaults 25ms / 250ms).
	SLOTarget   time.Duration
	SLOInterval time.Duration
	// Ramp, when non-nil, replaces the one-burst send pattern with two
	// phases: a paced warmup (each device trickles single-signature
	// reports, giving an adaptive pool ok-ticks to grow on) and then a
	// continuous full-batch flood (driving the latency SLO into breach
	// so the pool must back off). Afterwards each device sends one
	// final full batch, so every signature is reported regardless of
	// phase lengths.
	Ramp *StormRamp
	// Timeout bounds every wait.
	Timeout time.Duration
	// Dial, when non-empty, storms external daemons instead: a
	// comma-separated address list across which the devices attach
	// round-robin over TCP. Arming completion is observed through wire
	// status requests; the admission counters then live on the daemons'
	// /metrics endpoints, not in the returned result.
	Dial string
	// Token, in client mode, rides every storm device's hello as the
	// bearer credential for auth-enabled daemons.
	Token string
	// TLS, in client mode, dials every daemon connection under this
	// config. Nil dials plaintext.
	TLS *tls.Config
	// Metrics, when non-nil, is shared with the in-process hubs.
	// Incompatible with AdmitAuto over multiple hubs: each adaptive hub
	// needs its own registry (the capacity gauge and SLO state series
	// are per-controller).
	Metrics *metrics.Registry
}

// StormRamp shapes a two-phase (warmup, then flood) storm.
type StormRamp struct {
	// Warmup is how long each device paces single-signature reports at
	// stormWarmupRate per second, cycling through the set.
	Warmup time.Duration
	// Flood is how long each device then sends full-set report batches
	// back to back.
	Flood time.Duration
}

// stormWarmupRate is the reports per second each device paces during a
// ramp's warmup: the demand signal an AIMD controller grows on.
const stormWarmupRate = 20

// DefaultStormConfig is the CI storm shape: 8 devices hammering 32
// shared signatures through a 2-permit pool with a generous wait, so
// the burst is delayed (bounded, backpressured) but never shed and
// arming still completes.
func DefaultStormConfig() StormConfig {
	return StormConfig{
		Devices:          8,
		Sigs:             32,
		ConfirmThreshold: 2,
		AdmitCapacity:    2,
		AdmitWait:        10 * time.Second,
		Timeout:          60 * time.Second,
	}
}

// StormResult is the outcome of one report storm.
type StormResult struct {
	Config StormConfig
	// Armed is the cluster-wide armed count after the storm (the minimum
	// across hubs; in client mode the minimum status epoch delta).
	Armed int
	// Elapsed is storm start to every hub armed.
	Elapsed time.Duration
	// Admitted, Delayed, and Shed are the summed admission verdicts
	// across the in-process hubs (zero in client mode — scrape the
	// daemons' /metrics for them).
	Admitted, Delayed, Shed uint64
	// Transport describes how the devices reached the hubs.
	Transport string

	// Adaptive-admission outcome (AdmitAuto in-process runs only).
	// InitialCapacity is every pool's starting capacity,
	// FinalCapacity the minimum capacity across hubs after the run,
	// AIMDIncreases/AIMDDecreases the summed controller moves, and SLO
	// the first hub's objective statuses at the end (after waiting for
	// the latency SLO to recover, so a flood's breach→ok transition is
	// captured in SLO[i].LastTransition).
	InitialCapacity int
	FinalCapacity   int
	AIMDIncreases   uint64
	AIMDDecreases   uint64
	SLO             []metrics.SLOStatus
}

func (cfg StormConfig) validate() error {
	if cfg.Devices < 2 {
		return fmt.Errorf("storm: need >= 2 devices, got %d", cfg.Devices)
	}
	if cfg.Sigs < 1 {
		return fmt.Errorf("storm: need >= 1 signature, got %d", cfg.Sigs)
	}
	if cfg.Timeout <= 0 {
		return fmt.Errorf("storm: non-positive timeout %v", cfg.Timeout)
	}
	if cfg.Dial == "" {
		if cfg.ConfirmThreshold < 1 || cfg.ConfirmThreshold > cfg.Devices {
			return fmt.Errorf("storm: confirm threshold %d outside [1,%d]", cfg.ConfirmThreshold, cfg.Devices)
		}
		if cfg.Hubs < 0 {
			return fmt.Errorf("storm: negative hub count %d", cfg.Hubs)
		}
		if cfg.AdmitAuto && cfg.AdmitCapacity > 0 {
			return fmt.Errorf("storm: AdmitAuto and a fixed AdmitCapacity are mutually exclusive")
		}
		if cfg.AdmitAuto && cfg.Metrics != nil && cfg.Hubs > 1 {
			return fmt.Errorf("storm: AdmitAuto over %d hubs needs per-hub registries, not a shared Metrics", cfg.Hubs)
		}
	} else if cfg.AdmitAuto {
		return fmt.Errorf("storm: AdmitAuto is in-process only (start external daemons with -admit auto)")
	}
	if r := cfg.Ramp; r != nil {
		if r.Warmup < 0 || r.Flood < 0 {
			return fmt.Errorf("storm: negative ramp phase (warmup %v, flood %v)", r.Warmup, r.Flood)
		}
		if r.Warmup == 0 && r.Flood == 0 {
			return fmt.Errorf("storm: ramp with no warmup and no flood")
		}
	}
	return nil
}

// RunReportStorm executes the storm: every device publishes the same
// Sigs signatures through its own exchange session as fast as the hub
// admits them, then the run waits for the whole set to arm cluster-wide.
// The admission pool never sheds under the default config — AdmitWait
// is far above the confirm pipeline's per-report cost — so "delayed
// grows, arming completes" is the bounded-degradation proof.
func RunReportStorm(cfg StormConfig) (StormResult, error) {
	if err := cfg.validate(); err != nil {
		return StormResult{}, err
	}
	res := StormResult{Config: cfg}
	var monitors []*stormMonitor
	hubs, err := openHubs(cfg.Dial, cfg.TLS, cfg.Timeout, fedConfig{name: "storm", hubs: cfg.Hubs,
		threshold: cfg.ConfirmThreshold, metrics: cfg.Metrics, hubOpts: func(int) []immunity.ExchangeOption {
			if cfg.AdmitAuto {
				// Each adaptive hub gets its own controller: registry,
				// sampler, evaluator, and AIMD pool (the capacity gauge and
				// SLO state are per-controller series).
				mon := newStormMonitor(cfg)
				monitors = append(monitors, mon)
				return []immunity.ExchangeOption{immunity.WithMetricsRegistry(mon.reg), immunity.WithAdmissionPool(mon.pool.Pool)}
			}
			if cfg.AdmitCapacity > 0 {
				return []immunity.ExchangeOption{immunity.WithAdmission(cfg.AdmitCapacity, cfg.AdmitWait)}
			}
			return nil
		}})
	if err != nil {
		return res, err
	}
	defer hubs.close()
	for _, mon := range monitors {
		mon.rates.Start()
		defer mon.rates.Stop()
	}
	res.Transport = hubs.label()
	// Daemons carry state across runs: arming completion is "every hub's
	// epoch grew by Sigs over its own baseline" (in-process, from zero).
	base, err := hubs.epochs()
	if err != nil {
		return res, fmt.Errorf("storm: baseline status: %w", err)
	}

	// One raw wire session per device. The full ExchangeClient coalesces
	// its whole backlog into one report message per drain — exactly the
	// behaviour that makes a healthy device cheap — so a storm driven
	// through it collapses to one message per device before the hub ever
	// sees it. The storm's whole point is the opposite shape: a fleet of
	// devices each hammering the ingest path with a message per
	// signature, which is what an unbatched or misbehaving client does.
	devices, err := dialFleet(hubs.transports(), cfg.Devices, "storm", cfg.Token)
	if err != nil {
		return res, fmt.Errorf("storm: %w", err)
	}
	defer devices.close()

	start := time.Now()
	errCh := make(chan error, cfg.Devices)
	sigs, _ := propagationSet(cfg.Sigs)
	for _, dev := range devices {
		go func() { errCh <- dev.drive(cfg.Ramp, sigs) }()
	}
	for range devices {
		if err := <-errCh; err != nil {
			return res, fmt.Errorf("storm: %w", err)
		}
	}

	w := waiter{"storm", cfg.Timeout, hubs}
	if _, err := w.until("every signature to arm cluster-wide", func() bool {
		epochs, err := hubs.epochs()
		if err != nil {
			return false
		}
		res.Armed = cfg.Sigs
		for i, e := range epochs {
			// A daemon restart mid-storm reads as no progress.
			res.Armed = min(res.Armed, int(max(e, base[i])-base[i]))
		}
		return res.Armed >= cfg.Sigs
	}); err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	if f, ok := hubs.(*federation); ok {
		for _, hub := range f.hubs {
			st := hub.Stats()
			res.Admitted += st.AdmissionAdmitted
			res.Delayed += st.AdmissionDelayed
			res.Shed += st.AdmissionShed
		}
	}
	if len(monitors) > 0 {
		// Let the latency SLO recover before snapshotting: the flood's
		// observations drain out of the evaluation window and the state
		// machine walks breach→ok, which is the convergence the adaptive
		// storm exists to prove.
		if _, err := w.until("the latency SLO to recover to ok", func() bool {
			for _, mon := range monitors {
				if st, ok := mon.eval.State(stormLatencySLO); !ok || st != metrics.SLOOK {
					return false
				}
			}
			return true
		}); err != nil {
			return res, err
		}
		res.InitialCapacity = monitors[0].pool.Config().Initial
		res.FinalCapacity = monitors[0].pool.Capacity()
		for _, mon := range monitors {
			res.FinalCapacity = min(res.FinalCapacity, mon.pool.Capacity())
			res.AIMDIncreases += mon.pool.Increases()
			res.AIMDDecreases += mon.pool.Decreases()
		}
		res.SLO = monitors[0].eval.Snapshot()
	}
	return res, nil
}

// stormLatencySLO names the adaptive storm's latency objective.
const stormLatencySLO = "report-latency"

// stormMonitor is one in-process hub's adaptive-admission control
// plane: its registry, rate sampler, SLO evaluator, and AIMD pool.
type stormMonitor struct {
	reg   *metrics.Registry
	rates *metrics.Rates
	eval  *metrics.Evaluator
	pool  *metrics.AdaptivePool
}

// newStormMonitor builds the control plane for one adaptive hub. The
// windows are compressed (2s shortest) so a seconds-long storm test
// sees the full breach→recover cycle.
func newStormMonitor(cfg StormConfig) *stormMonitor {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	interval := cfg.SLOInterval
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	target := cfg.SLOTarget
	if target <= 0 {
		target = 25 * time.Millisecond
	}
	maxWait := cfg.AdmitWait
	if maxWait <= 0 {
		maxWait = 10 * time.Second
	}
	rates := metrics.NewRates(reg, metrics.RatesConfig{
		Interval: interval,
		Windows:  []time.Duration{2 * time.Second, 10 * time.Second, time.Minute},
	})
	rates.TrackCounter("immunity_hub_reports_total")
	rates.TrackCounter("immunity_hub_armed_total")
	eval := metrics.NewEvaluator(reg, rates, []metrics.SLO{
		{Name: stormLatencySLO, QuantileOf: "immunity_hub_report_seconds", Target: target.Seconds()},
		{Name: "shed-zero", RateOf: "immunity_hub_admission_shed_total", Target: 0},
	})
	pool := metrics.NewAdaptivePool(reg, "immunity_hub_admission", maxWait,
		metrics.AIMDConfig{SLO: stormLatencySLO})
	pool.Bind(eval)
	return &stormMonitor{reg: reg, rates: rates, eval: eval, pool: pool}
}

// drive sends one device's share of the storm: the classic
// one-message-per-signature burst with no ramp, or the two-phase ramp
// (paced warmup, continuous full-batch flood, and a final coverage
// batch).
func (d *stormSession) drive(ramp *StormRamp, sigs []wire.Signature) error {
	send := func(batch []wire.Signature) error {
		m := wire.Message{V: wire.Version, Type: wire.TypeReport, Report: &wire.Report{Sigs: batch}}
		if err := d.sess.Send(m); err != nil {
			return fmt.Errorf("%s report: %w", d.id, err)
		}
		return nil
	}
	if ramp == nil {
		for s := range sigs {
			if err := send(sigs[s : s+1]); err != nil {
				return err
			}
		}
		return nil
	}
	pace := time.Second / stormWarmupRate
	for s, end := 0, time.Now().Add(ramp.Warmup); time.Now().Before(end); s++ {
		i := s % len(sigs)
		if err := send(sigs[i : i+1]); err != nil {
			return err
		}
		time.Sleep(pace)
	}
	for end := time.Now().Add(ramp.Flood); time.Now().Before(end); {
		if err := send(sigs); err != nil {
			return err
		}
	}
	// Coverage batch: every signature reported at least once no matter
	// how short the phases were.
	return send(sigs)
}

// stormSession is one device's raw wire session: hello/ack done, ready
// to flood reports.
type stormSession struct {
	id   string
	sess *immunity.Redialer
}

// stormAttempt is the storm's policy for the session machine: a bare
// hello with no resume cursor, and the hub's pushes (catch-up delta,
// confirms, storm deltas) discarded — the storm measures ingest, not
// install.
type stormAttempt struct{ id, token string }

func (a stormAttempt) Hello() wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: a.id, MinV: wire.Version, MaxV: wire.Version, Token: a.token}}
}
func (stormAttempt) Verdict(wire.Ack) error { return nil }
func (stormAttempt) Accepted()              {}
func (stormAttempt) Recv(wire.Message)      {}

// stormFleet is a set of raw device sessions.
type stormFleet []*stormSession

// dialFleet opens n device sessions round-robin over trs and completes
// each handshake, once: a storm device that loses its session stays
// down.
func dialFleet(trs []immunity.Transport, n int, prefix, token string) (stormFleet, error) {
	fleet := make(stormFleet, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s%d", prefix, i)
		rd := immunity.NewRedialer(immunity.RedialConfig{Transport: trs[i%len(trs)],
			Begin: func() immunity.Attempt { return stormAttempt{id, token} }})
		if err := rd.Handshake(); err != nil {
			fleet.close()
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		fleet = append(fleet, &stormSession{id: id, sess: rd})
	}
	return fleet, nil
}

func (fl stormFleet) close() {
	for _, d := range fl {
		d.sess.Close()
	}
}

// reportEach sends every signature from every device in turn, one
// report message per signature.
func (fl stormFleet) reportEach(sigs []wire.Signature) error {
	for _, d := range fl {
		if err := d.drive(nil, sigs); err != nil {
			return err
		}
	}
	return nil
}

// FormatStorm renders a storm result for the CLI.
func FormatStorm(res StormResult) string {
	cfg := res.Config
	out := fmt.Sprintf("report storm: %d devices × %d shared signatures, transport %s\n",
		cfg.Devices, cfg.Sigs, res.Transport)
	if r := cfg.Ramp; r != nil {
		out += fmt.Sprintf("  ramp                 warmup %s (%d single-sig reports/s/device), flood %s (full batches)\n",
			r.Warmup, stormWarmupRate, r.Flood)
	}
	out += fmt.Sprintf("  armed cluster-wide   %6d/%d in %s\n", res.Armed, cfg.Sigs, res.Elapsed.Round(time.Millisecond))
	switch {
	case cfg.Dial != "":
		out += "  admission            counters live on the daemons' /metrics endpoints\n"
	case cfg.AdmitAuto:
		out += fmt.Sprintf("  admission            admitted=%d delayed=%d shed=%d (adaptive, max wait %s)\n",
			res.Admitted, res.Delayed, res.Shed, cfg.AdmitWait)
		out += fmt.Sprintf("  adaptive capacity    %d → %d (aimd increases=%d decreases=%d)\n",
			res.InitialCapacity, res.FinalCapacity, res.AIMDIncreases, res.AIMDDecreases)
		for _, s := range res.SLO {
			line := fmt.Sprintf("  slo %-16s %s", s.Name, s.State)
			if s.LastTransition != nil {
				line += fmt.Sprintf(" (last %s→%s)", s.LastTransition.From, s.LastTransition.To)
			}
			out += line + "\n"
		}
	default:
		out += fmt.Sprintf("  admission            admitted=%d delayed=%d shed=%d (pool capacity %d, max wait %s)\n",
			res.Admitted, res.Delayed, res.Shed, cfg.AdmitCapacity, cfg.AdmitWait)
	}
	return out
}
