// Report storm workload: drives a burst of device reports at the
// exchange far faster than the confirm pipeline wants to absorb them,
// and checks that every signature that reaches the threshold still arms
// fleet-wide. The storm is a pure load generator: admission control
// lives on the hubs it drives (immunityd -serve always runs its pool),
// and the daemon tests scrape what the pool did from /metrics.
package workload

import (
	"fmt"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
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
	// Ramp, when non-nil, replaces the one-burst send pattern with two
	// phases: a paced warmup (each device trickles single-signature
	// reports, giving a daemon's admission pool ok-ticks to grow on) and
	// then a continuous full-batch flood (driving the latency SLO into
	// breach so the pool must back off). Afterwards each device sends one
	// final full batch, so every signature is reported regardless of
	// phase lengths.
	Ramp *StormRamp
	// Timeout bounds every wait.
	Timeout time.Duration
	// Dial, when non-empty, storms external daemons instead: a
	// comma-separated address list across which the devices attach
	// round-robin over TCP. Arming completion is observed through wire
	// status requests.
	Dial string
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
// shared signatures at threshold 2.
func DefaultStormConfig() StormConfig {
	return StormConfig{
		Devices:          8,
		Sigs:             32,
		ConfirmThreshold: 2,
		Timeout:          60 * time.Second,
	}
}

// StormResult is the outcome of one report storm.
type StormResult struct {
	// Armed is the cluster-wide armed count after the storm (the minimum
	// across hubs; in client mode the minimum status epoch delta).
	Armed int
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
func RunReportStorm(cfg StormConfig) (StormResult, error) {
	if err := cfg.validate(); err != nil {
		return StormResult{}, err
	}
	var res StormResult
	hubs, err := openHubs(cfg.Dial, nil, cfg.Timeout, fedConfig{name: "storm", hubs: cfg.Hubs,
		threshold: cfg.ConfirmThreshold})
	if err != nil {
		return res, err
	}
	defer hubs.close()
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
	devices, err := dialFleet(hubs.transports(), cfg.Devices, "storm")
	if err != nil {
		return res, fmt.Errorf("storm: %w", err)
	}
	defer devices.close()

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
	return res, nil
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
type stormAttempt struct{ id string }

func (a stormAttempt) Hello() wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: a.id, MinV: wire.Version, MaxV: wire.Version}}
}
func (stormAttempt) Verdict(wire.Ack) error { return nil }
func (stormAttempt) Accepted()              {}
func (stormAttempt) Recv(wire.Message)      {}

// stormFleet is a set of raw device sessions.
type stormFleet []*stormSession

// dialFleet opens n device sessions round-robin over trs and completes
// each handshake, once: a storm device that loses its session stays
// down.
func dialFleet(trs []immunity.Transport, n int, prefix string) (stormFleet, error) {
	fleet := make(stormFleet, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s%d", prefix, i)
		rd := immunity.NewRedialer(immunity.RedialConfig{Transport: trs[i%len(trs)],
			Begin: func() immunity.Attempt { return stormAttempt{id} }})
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
