// Partition storm workload: drives a report storm at a federation
// while a scripted network fault (fault.Network) splits it, then
// asserts the partition-tolerance contract end to end:
//
//   - with quorum leases on (the default), the minority side loses its
//     lease, parks every arming decision that crosses the confirmation
//     threshold during the split (zero arms on the minority while
//     split — the double-arm window the lease exists to close), while
//     the majority side promotes the isolated owner's keys and arms
//     the full set;
//   - with NoLease (the pre-lease baseline the fencing rule alone must
//     handle), both sides arm independently during the split and the
//     post-heal fencing/union merge still converges every hub to the
//     single-hub reference with per-hub epoch == armed count;
//   - after Heal, parked decisions drain to zero in bounded time and
//     every hub converges to exactly the single-hub armed set.
//
// Three fault shapes are scripted: a symmetric split (minority hub cut
// off in both directions), an asymmetric split (only the minority's
// outbound word is cut — it still hears its peers while its lease
// acks, forwards, and broadcasts vanish), and a flapping link (one
// direction of one majority link blinks faster than the suspicion
// window — indirect probes through the third hub must ride it out with
// no down-marks and no lease losses).
package workload

import (
	"fmt"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// Partition scenarios.
const (
	// ScenarioSymmetric cuts the last hub off in both directions.
	ScenarioSymmetric = "symmetric"
	// ScenarioAsymmetric cuts only the last hub's outbound paths: it
	// still hears its peers, but nothing it says gets out.
	ScenarioAsymmetric = "asymmetric"
	// ScenarioFlap blinks one direction of one majority link faster
	// than the suspicion window; nothing may be marked down.
	ScenarioFlap = "flap"
)

// PartitionConfig parameterizes one partition storm.
type PartitionConfig struct {
	// Devices is how many simulated phones report, attached round-robin
	// across all hubs (the minority hub included — its devices are what
	// force arming decisions onto the wrong side of the split).
	Devices int
	// Sigs is how many distinct signatures the fleet reports.
	Sigs int
	// ConfirmThreshold gates arming on every hub.
	ConfirmThreshold int
	// Hubs is the federation size (>= 3; the last hub is the minority
	// side of every split).
	Hubs int
	// Scenario selects the fault shape (symmetric, asymmetric, flap).
	Scenario string
	// NoLease disables quorum leases — the regression baseline where
	// both sides arm during a split and only fencing plus the union
	// merge reconcile them after the heal.
	NoLease bool
	// FailoverAfter is the failure-detection budget the probe timings
	// are derived from (default 150ms).
	FailoverAfter time.Duration
	// Timeout bounds every wait.
	Timeout time.Duration
	// Metrics, when non-nil, is shared with every hub and node.
	Metrics *metrics.Registry
}

// DefaultPartitionConfig is the CI partition shape: 6 devices, 24
// signatures, threshold 3 over a 3-hub federation, symmetric split.
func DefaultPartitionConfig() PartitionConfig {
	return PartitionConfig{
		Devices:          6,
		Sigs:             24,
		ConfirmThreshold: 3,
		Hubs:             3,
		Scenario:         ScenarioSymmetric,
		FailoverAfter:    150 * time.Millisecond,
		Timeout:          60 * time.Second,
	}
}

// PartitionResult is the outcome of one partition storm.
type PartitionResult struct {
	Config PartitionConfig
	// MinorityKeys is how many signatures the isolated hub owned at the
	// cut — the slice whose arming had to ride the promotion.
	MinorityKeys int
	// Armed is the cluster-wide armed count at the end (minimum across
	// hubs).
	Armed int
	// ParkedPeak is the parked-decision depth observed on the minority
	// during the split (0 in flap and NoLease runs).
	ParkedPeak int
	// MinoritySplitArms is how many signatures the minority armed while
	// split: 0 with leases on, at least its owned slice with NoLease.
	MinoritySplitArms int
	// LeaseLost counts lease losses on the minority over the run.
	LeaseLost uint64
	// ParkClear is Heal to the minority's parked set draining to zero
	// (and the federation reconverging) — the bounded-park-time number.
	ParkClear time.Duration
	// Fenced sums the stale arm-broadcasts refused across hubs.
	Fenced uint64
	// Elapsed is storm start to final convergence.
	Elapsed time.Duration
}

func (cfg PartitionConfig) validate() error {
	if cfg.ConfirmThreshold < 1 {
		return fmt.Errorf("partition: confirm threshold %d < 1", cfg.ConfirmThreshold)
	}
	if cfg.Devices < cfg.ConfirmThreshold {
		return fmt.Errorf("partition: %d devices cannot cross threshold %d", cfg.Devices, cfg.ConfirmThreshold)
	}
	if cfg.Sigs < 1 {
		return fmt.Errorf("partition: need >= 1 signature, got %d", cfg.Sigs)
	}
	if cfg.Hubs < 3 {
		return fmt.Errorf("partition: need >= 3 hubs for a majority side, got %d", cfg.Hubs)
	}
	switch cfg.Scenario {
	case ScenarioSymmetric, ScenarioAsymmetric, ScenarioFlap:
	default:
		return fmt.Errorf("partition: unknown scenario %q (want %s|%s|%s)",
			cfg.Scenario, ScenarioSymmetric, ScenarioAsymmetric, ScenarioFlap)
	}
	if cfg.Timeout <= 0 {
		return fmt.Errorf("partition: non-positive timeout %v", cfg.Timeout)
	}
	if cfg.Scenario != ScenarioFlap {
		// The post-cut reporters must cover both sides: at least one
		// device on the minority hub (to force threshold crossings there)
		// and one on the majority (to finish arming the full set there).
		minority := cfg.Hubs - 1
		var lateMinority, lateMajority bool
		for i := cfg.ConfirmThreshold - 1; i < cfg.Devices; i++ {
			if i%cfg.Hubs == minority {
				lateMinority = true
			} else {
				lateMajority = true
			}
		}
		if !lateMinority || !lateMajority {
			return fmt.Errorf("partition: device/hub shape leaves a side of the split without post-cut reporters (devices %d, threshold %d, hubs %d)",
				cfg.Devices, cfg.ConfirmThreshold, cfg.Hubs)
		}
	}
	return nil
}

// RunPartitionStorm executes the partition storm and verifies the
// partition-tolerance contract. Any violation — an arm on the minority
// while its lease is lost, a double-arm (epoch past the armed count),
// a hub diverging from the single-hub reference after the heal, parked
// decisions that never drain — is an error.
func RunPartitionStorm(cfg PartitionConfig) (PartitionResult, error) {
	if err := cfg.validate(); err != nil {
		return PartitionResult{}, err
	}
	if cfg.FailoverAfter <= 0 {
		cfg.FailoverAfter = 150 * time.Millisecond
	}
	res := PartitionResult{Config: cfg}
	sigs, keys := propagationSet(cfg.Sigs)
	ref, err := reference("partition", cfg.Devices, cfg.ConfirmThreshold, cfg.Timeout, sigs)
	if err != nil {
		return res, err
	}

	// Every directed hub-pair path runs through the fault network, so the
	// scenario can cut, blink, and heal exactly the links it means to.
	f, err := newFederation(fedConfig{name: "partition", hubs: cfg.Hubs, threshold: cfg.ConfirmThreshold,
		failoverAfter: cfg.FailoverAfter, noLease: cfg.NoLease, metrics: cfg.Metrics, faults: true})
	if err != nil {
		return res, err
	}
	defer f.close()
	w := waiter{"partition", cfg.Timeout, f}

	// Settle: every link handshaken, every node holding its lease — the
	// steady state the fault hits.
	if _, err := w.until("federation links and leases to come up", func() bool {
		for _, n := range f.nodes {
			for _, ps := range n.Status() {
				if !ps.Connected {
					return false
				}
			}
			if held, _, _ := n.LeaseStats(); !held && !cfg.NoLease {
				return false
			}
		}
		return true
	}); err != nil {
		return res, err
	}

	// The minority's slice: the keys whose arming must cross the split by
	// deputy promotion.
	minorityKeys := f.owned(cfg.Hubs-1, keys)
	res.MinorityKeys = len(minorityKeys)
	if len(minorityKeys) == 0 && cfg.Scenario != ScenarioFlap {
		return res, fmt.Errorf("partition: the minority hub owns none of the %d signatures; raise Sigs", cfg.Sigs)
	}

	// Devices attach round-robin across ALL hubs — unlike the chaos
	// storm's victim, the minority hub keeps serving devices through the
	// split, which is exactly what forces arming decisions onto it.
	devices, err := f.attach(cfg.Devices, cfg.Hubs, "part")
	if err != nil {
		return res, err
	}
	defer devices.close()
	started := time.Now()

	// Phase 1 — mid-confirmation, settled on every owner and on the
	// minority slice's deputies BEFORE the fault, so phase 2's single
	// confirmation is exactly what crosses the threshold on each side.
	early := devices[:cfg.ConfirmThreshold-1]
	if err := f.settle(w, early, sigs, keys, minorityKeys); err != nil {
		return res, err
	}
	if cfg.Scenario == ScenarioFlap {
		err = flapStorm(cfg, f, w, devices[len(early):], sigs)
	} else {
		err = splitStorm(cfg, &res, f, w, devices[len(early):], sigs, len(minorityKeys))
	}
	if err != nil {
		return res, err
	}
	res.Elapsed = time.Since(started)
	res.Armed = f.armed(cfg.Hubs)
	res.Fenced, err = f.equivalent(ref)
	return res, err
}

// splitStorm is the symmetric and asymmetric scenarios' middle: cut the
// minority off, let phase 2 report into the split, check the lease
// contract on the minority, heal, and wait for reconvergence.
func splitStorm(cfg PartitionConfig, res *PartitionResult, f *federation, w waiter,
	late stormFleet, sigs []wire.Signature, slice int) error {
	minority := cfg.Hubs - 1
	hub, node := f.hubs[minority], f.nodes[minority]
	switch cfg.Scenario {
	case ScenarioSymmetric:
		var majorityIDs []string
		for i := 0; i < minority; i++ {
			majorityIDs = append(majorityIDs, f.id(i))
		}
		f.net.Partition(majorityIDs, []string{f.id(minority)})
	case ScenarioAsymmetric:
		for i := 0; i < minority; i++ {
			f.net.Block(f.id(minority), f.id(i))
		}
	}

	// The majority's probes condemn the silent member and promote its
	// keys; with leases on, the minority's own lease round dies first
	// (its renewals cannot reach a majority) and it loses the right to
	// arm before anyone could promote against it.
	if _, err := w.until("the majority to mark the minority down", func() bool { return f.see(minority, cfg.Hubs-1) }); err != nil {
		return err
	}
	if !cfg.NoLease {
		if _, err := w.until("the minority to lose its lease", func() bool {
			held, _, lost := node.LeaseStats()
			return !held && lost >= 1
		}); err != nil {
			return err
		}
	}

	// Phase 2 — the remaining devices report into the split: majority-
	// side confirmations finish arming the full set over there (the
	// minority's old slice arms on its promoted deputies), while the
	// minority-side device pushes its hub's owned keys over the
	// threshold with no lease to arm under.
	if err := late.reportEach(sigs); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	if _, err := w.until("the majority side to arm the full set", func() bool { return f.armed(minority) >= cfg.Sigs }); err != nil {
		return err
	}
	if !cfg.NoLease {
		// The lease contract, mid-split: threshold crossings on the
		// minority PARK — zero arms over there while the majority is
		// promoting, which is precisely the double-arm window.
		if _, err := w.until("the minority to park its crossings", func() bool { return hub.Stats().Parked > 0 }); err != nil {
			return err
		}
		res.ParkedPeak = hub.Stats().Parked
		if got := hub.ArmedCount(); got != 0 {
			return fmt.Errorf("partition: minority armed %d signatures during the split with its lease lost (double-arm window open)", got)
		}
	} else {
		// NoLease baseline: the minority arms its own slice independently
		// — the divergence the post-heal merge must reconcile.
		if _, err := w.until("the minority to arm its slice independently", func() bool { return hub.ArmedCount() >= slice }); err != nil {
			return err
		}
		if got := hub.Stats().Parked; got != 0 {
			return fmt.Errorf("partition: NoLease run parked %d decisions", got)
		}
	}
	res.MinoritySplitArms = hub.ArmedCount()

	// Heal: redials land, handshakes replay the missed armings from
	// their cursors, membership re-merges, the minority's lease comes
	// back, and every parked decision settles (armed by the replayed
	// broadcast, or re-armed by the lease-regain sweep).
	healStart := time.Now()
	f.net.Heal()
	if _, err := w.until("post-heal convergence", func() bool {
		held, _, _ := node.LeaseStats()
		return f.see(cfg.Hubs, cfg.Hubs) && f.armed(cfg.Hubs) >= cfg.Sigs &&
			hub.Stats().Parked == 0 && (held || cfg.NoLease)
	}); err != nil {
		return err
	}
	res.ParkClear = time.Since(healStart)
	if _, _, res.LeaseLost = node.LeaseStats(); res.LeaseLost == 0 && !cfg.NoLease {
		return fmt.Errorf("partition: minority reports zero lease losses after the split")
	}
	return nil
}

// flapStorm is the flap scenario's middle: one direction of the
// hub0→hub1 link blinks faster than the suspicion window while phase 2
// reports. Indirect probes through the remaining hubs must keep every
// member alive — no down-marks, no lease losses — and the armed set
// must converge as if the link were clean.
func flapStorm(cfg PartitionConfig, f *federation, w waiter, late stormFleet, sigs []wire.Signature) error {
	// Blink windows sit well under the suspicion window (FailoverAfter/2
	// by derivation), so a down-mark can only come from the detector
	// overreacting — which is what this scenario pins down.
	window := max(cfg.FailoverAfter/5, time.Millisecond)
	const cycles = 16
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for c := 0; c < 2*cycles; c++ {
			if c%2 == 0 {
				f.net.Block(f.id(0), f.id(1))
			} else {
				f.net.Unblock(f.id(0), f.id(1))
			}
			time.Sleep(window)
		}
	}()

	// Phase 2 lands mid-flap: reports, forwards, and arm broadcasts ride
	// the blinking link's outbox through the blocks.
	err := late.reportEach(sigs)
	<-flapDone
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}

	// Nothing may have been condemned: every node still sees the full
	// membership, and (with leases on) nobody ever lost one.
	for i, n := range f.nodes {
		if got := len(n.Members()); got != cfg.Hubs {
			return fmt.Errorf("partition: flap marked a member down on %s (%d/%d members live)", f.id(i), got, cfg.Hubs)
		}
		if _, _, lost := n.LeaseStats(); lost != 0 && !cfg.NoLease {
			return fmt.Errorf("partition: flap cost %s its lease %d times", f.id(i), lost)
		}
	}

	// The flap subsides: Heal replaces every session the blinking link
	// touched — the reverse-direction session sat half-deaf through the
	// blocks, silently missing broadcasts, and only its re-handshake
	// (replaying from the cursor) gets them back.
	f.net.Heal()
	_, err = w.until("post-flap convergence", func() bool { return f.armed(cfg.Hubs) >= cfg.Sigs })
	return err
}

// FormatPartition renders a partition result (the go test -v report).
func FormatPartition(res PartitionResult) string {
	cfg := res.Config
	mode := "quorum leases"
	if cfg.NoLease {
		mode = "no leases (fencing-only baseline)"
	}
	out := fmt.Sprintf("partition storm: %s split, %d devices × %d signatures over %d hubs, threshold %d, %s\n",
		cfg.Scenario, cfg.Devices, cfg.Sigs, cfg.Hubs, cfg.ConfirmThreshold, mode)
	if cfg.Scenario == ScenarioFlap {
		out += "  flapping link        no down-marks, no lease losses\n"
	} else {
		out += fmt.Sprintf("  minority slice       %d/%d signatures owned by the isolated hub\n", res.MinorityKeys, cfg.Sigs)
		out += fmt.Sprintf("  during the split     minority armed %d, parked %d, lease lost %d times\n",
			res.MinoritySplitArms, res.ParkedPeak, res.LeaseLost)
		out += fmt.Sprintf("  park drain           %s from heal to zero parked\n", res.ParkClear.Round(time.Millisecond))
	}
	out += fmt.Sprintf("  armed cluster-wide   %d/%d in %s (federation-equivalent, zero double-arms)\n",
		res.Armed, cfg.Sigs, res.Elapsed.Round(time.Millisecond))
	out += fmt.Sprintf("  fenced replays       %d\n", res.Fenced)
	return out
}
