// Chaos storm workload: drives a report storm at a federation while
// killing and restarting hubs mid-confirmation, then asserts federation
// equivalence — every hub ends with exactly the armed set a single hub
// serving the same fleet would produce, each signature armed once
// (per-hub delta epoch == armed count, so a failover can never
// double-arm), and the restarted hub resynced from its resume seq.
//
// The schedule is built to make the failover path load-bearing rather
// than merely possible: the victim hub (which serves no devices) owns a
// slice of the signature space, the first ConfirmThreshold-1 devices
// report while it is alive — leaving every victim-owned signature
// pending mid-confirmation, its set replicated to the deputy — and the
// remaining devices report only after the victim is killed, so those
// signatures can only arm on the deputy from the inherited set. The
// victim then restarts over the same provenance store, rejoins, takes
// its keys back by handoff, and must converge to the same armed set.
package workload

import (
	"fmt"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
)

// ChaosConfig parameterizes one chaos storm.
type ChaosConfig struct {
	// Devices is how many simulated phones report (>= ConfirmThreshold).
	// The first ConfirmThreshold-1 report before the kill, the rest
	// after it, so victim-owned signatures cross the threshold on the
	// deputy.
	Devices int
	// Sigs is how many distinct signatures the fleet reports.
	Sigs int
	// ConfirmThreshold gates arming on every hub.
	ConfirmThreshold int
	// Hubs is the federation size (>= 2; the last hub is the victim and
	// serves no devices).
	Hubs int
	// Kills is how many kill/restart cycles to run (default 1). The
	// first cycle interrupts arming mid-confirmation; later cycles kill
	// and restart the victim with the set already armed, proving the
	// restart resync path converges from any point.
	Kills int
	// FailoverAfter is the cluster failure-detector threshold (default
	// 150ms — short enough for a test-sized storm, long enough that a
	// slow scheduler tick does not read as a death).
	FailoverAfter time.Duration
	// Timeout bounds every wait.
	Timeout time.Duration
	// Metrics, when non-nil, is shared with every hub and node.
	Metrics *metrics.Registry
}

// DefaultChaosConfig is the CI chaos shape: 6 devices, 24 signatures,
// threshold 3 over a 3-hub federation, one kill/restart cycle.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Devices:          6,
		Sigs:             24,
		ConfirmThreshold: 3,
		Hubs:             3,
		Kills:            1,
		FailoverAfter:    150 * time.Millisecond,
		Timeout:          60 * time.Second,
	}
}

// ChaosResult is the outcome of one chaos storm.
type ChaosResult struct {
	Config ChaosConfig
	// Armed is the cluster-wide armed count at the end (the minimum
	// across hubs, restarted victim included).
	Armed int
	// VictimKeys is how many of the signatures the victim owned at the
	// first kill — the slice whose arming had to ride the failover.
	VictimKeys int
	// Kills is how many kill/restart cycles ran.
	Kills int
	// Fenced sums the stale arm-broadcasts refused by the fencing rule
	// across hubs over the whole run.
	Fenced uint64
	// Elapsed is storm start to final convergence.
	Elapsed time.Duration
}

func (cfg ChaosConfig) validate() error {
	if cfg.ConfirmThreshold < 1 {
		return fmt.Errorf("chaos: confirm threshold %d < 1", cfg.ConfirmThreshold)
	}
	if cfg.Devices < cfg.ConfirmThreshold || cfg.Devices < 2 {
		return fmt.Errorf("chaos: %d devices cannot cross threshold %d", cfg.Devices, cfg.ConfirmThreshold)
	}
	if cfg.Sigs < 1 {
		return fmt.Errorf("chaos: need >= 1 signature, got %d", cfg.Sigs)
	}
	if cfg.Hubs < 2 {
		return fmt.Errorf("chaos: need >= 2 hubs for a failover, got %d", cfg.Hubs)
	}
	if cfg.Kills < 1 {
		return fmt.Errorf("chaos: need >= 1 kill, got %d", cfg.Kills)
	}
	if cfg.Timeout <= 0 {
		return fmt.Errorf("chaos: non-positive timeout %v", cfg.Timeout)
	}
	return nil
}

// RunChaosStorm executes the chaos storm and verifies federation
// equivalence. Any divergence — a hub missing an arming, a double-arm
// (epoch past the armed count), a wrong armed set — is an error.
func RunChaosStorm(cfg ChaosConfig) (ChaosResult, error) {
	if err := cfg.validate(); err != nil {
		return ChaosResult{}, err
	}
	if cfg.FailoverAfter <= 0 {
		cfg.FailoverAfter = 150 * time.Millisecond
	}
	res := ChaosResult{Config: cfg}
	sigs, keys := propagationSet(cfg.Sigs)
	ref, err := reference("chaos", cfg.Devices, cfg.ConfirmThreshold, cfg.Timeout, sigs)
	if err != nil {
		return res, err
	}

	// Every hub keeps its provenance store across kill and restart.
	f, err := newFederation(fedConfig{name: "chaos", hubs: cfg.Hubs, threshold: cfg.ConfirmThreshold,
		failoverAfter: cfg.FailoverAfter, metrics: cfg.Metrics, durable: true})
	if err != nil {
		return res, err
	}
	defer f.close()
	w := waiter{"chaos", cfg.Timeout, f}
	victim := cfg.Hubs - 1
	victimKeys := f.owned(victim, keys)
	res.VictimKeys = len(victimKeys)

	// Devices attach round-robin to the survivor hubs only — the victim
	// participates purely as an owner, so its death never takes a device
	// session with it and every lost arming is the federation's fault.
	devices, err := f.attach(cfg.Devices, victim, "chaos")
	if err != nil {
		return res, err
	}
	defer devices.close()
	started := time.Now()

	// Phase 1 — mid-confirmation: every signature ends pending one
	// confirmation short of arming, the victim's slice replicated to its
	// deputies, so the arming below can only come from the inherited set.
	early := devices[:cfg.ConfirmThreshold-1]
	if err := f.settle(w, early, sigs, keys, victimKeys); err != nil {
		return res, err
	}

	for k := 0; k < cfg.Kills; k++ {
		f.kill(victim)
		if _, err := w.until("survivors to fail the victim over", func() bool { return f.see(victim, cfg.Hubs-1) }); err != nil {
			return res, err
		}
		if k == 0 {
			// Phase 2 — the remaining devices report while the victim is
			// dead: its former slice can only arm on the deputies, from
			// the replicated pending sets plus these confirmations.
			if err := devices[len(early):].reportEach(sigs); err != nil {
				return res, fmt.Errorf("chaos: %w", err)
			}
			if _, err := w.until("survivors to arm the full set", func() bool { return f.armed(victim) >= cfg.Sigs }); err != nil {
				return res, err
			}
		}
		// Restart over the same provenance store; the node rejoins via
		// its seed peers, takes its keys back by handoff, and resyncs
		// the armings it missed from its resume seqs.
		if err := f.start(victim); err != nil {
			return res, err
		}
		if _, err := w.until("the restarted victim to rejoin", func() bool { return f.see(cfg.Hubs, cfg.Hubs) }); err != nil {
			return res, err
		}
		res.Kills++
	}

	_, err = w.until("cluster-wide convergence", func() bool { return f.armed(cfg.Hubs) >= cfg.Sigs })
	res.Armed = f.armed(cfg.Hubs)
	if err != nil {
		return res, err
	}
	res.Elapsed = time.Since(started)
	res.Fenced, err = f.equivalent(ref)
	return res, err
}

// FormatChaos renders a chaos result (the go test -v report).
func FormatChaos(res ChaosResult) string {
	cfg := res.Config
	out := fmt.Sprintf("chaos storm: %d devices × %d signatures over %d hubs, threshold %d\n",
		cfg.Devices, cfg.Sigs, cfg.Hubs, cfg.ConfirmThreshold)
	out += fmt.Sprintf("  victim slice         %d/%d signatures owned by the killed hub\n", res.VictimKeys, cfg.Sigs)
	out += fmt.Sprintf("  kill/restart cycles  %d (failover after %s)\n", res.Kills, cfg.FailoverAfter)
	out += fmt.Sprintf("  armed cluster-wide   %d/%d in %s (federation-equivalent, zero double-arms)\n",
		res.Armed, cfg.Sigs, res.Elapsed.Round(time.Millisecond))
	out += fmt.Sprintf("  fenced replays       %d\n", res.Fenced)
	return out
}
