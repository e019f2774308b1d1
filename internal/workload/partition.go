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

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/fault"
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
	leases := !cfg.NoLease
	deadline := time.Now().Add(cfg.Timeout)
	var hubs []*immunity.Exchange
	var nodes []*cluster.Node
	snapshot := func() string {
		var out string
		for i := range hubs {
			if hubs[i] == nil || nodes[i] == nil {
				continue
			}
			held, _, lost := nodes[i].LeaseStats()
			out += fmt.Sprintf(" hub%d{armed:%d parked:%d members:%d lease:%v lost:%d fenced:%d",
				i, hubs[i].ArmedCount(), hubs[i].Stats().Parked, len(nodes[i].Members()), held, lost, hubs[i].Stats().Fenced)
			for _, ps := range nodes[i].Status() {
				out += fmt.Sprintf(" %s[conn:%v last:%d app:%d dup:%d]", ps.ID, ps.Connected, ps.LastApplied, ps.Applied, ps.Duplicates)
			}
			out += "}"
		}
		return out
	}
	waitFor := func(what string, cond func() bool) error {
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("partition: timed out waiting for %s;%s", what, snapshot())
			}
			time.Sleep(500 * time.Microsecond)
		}
		return nil
	}

	fullSet := make([]wire.Signature, cfg.Sigs)
	for s := range fullSet {
		fullSet[s] = wire.FromCore(propagationSig(s))
	}

	// Reference: the same fleet against one hub — the arming decisions
	// the split federation must reconverge to.
	refArmed, err := singleHubReference(ChaosConfig{
		Devices: cfg.Devices, Sigs: cfg.Sigs,
		ConfirmThreshold: cfg.ConfirmThreshold, Timeout: cfg.Timeout,
	}, fullSet, deadline)
	if err != nil {
		return res, err
	}

	// The federation: every directed hub-pair path runs through the
	// fault network, so the scenario can cut, blink, and heal exactly
	// the links it means to.
	hubID := func(i int) string { return fmt.Sprintf("hub%d", i) }
	net := fault.NewNetwork()
	minority := cfg.Hubs - 1
	switches := make([]*SwitchTransport, cfg.Hubs)
	for i := range switches {
		switches[i] = NewSwitchTransport(nil)
	}
	hubs = make([]*immunity.Exchange, cfg.Hubs)
	nodes = make([]*cluster.Node, cfg.Hubs)
	defer func() {
		for i := range nodes {
			if nodes[i] != nil {
				nodes[i].Close()
			}
			if hubs[i] != nil {
				hubs[i].Close()
			}
		}
	}()
	for i := range hubs {
		hub, err := immunity.NewExchange(cfg.ConfirmThreshold)
		if err != nil {
			return res, fmt.Errorf("partition: %s: %w", hubID(i), err)
		}
		var peers []cluster.Member
		for j := range switches {
			if j != i {
				peers = append(peers, cluster.Member{
					ID:        hubID(j),
					Transport: net.Wrap(hubID(i), hubID(j), switches[j]),
				})
			}
		}
		node, err := cluster.New(cluster.Config{
			Self: hubID(i), Hub: hub, Peers: peers,
			FailoverAfter: cfg.FailoverAfter, NoLease: cfg.NoLease,
			Metrics: cfg.Metrics,
		})
		if err != nil {
			hub.Close()
			return res, fmt.Errorf("partition: %s: %w", hubID(i), err)
		}
		hubs[i], nodes[i] = hub, node
		switches[i].Swap(hub)
	}

	// Settle: every link handshaken, every node holding its lease —
	// the steady state the fault hits.
	if err := waitFor("federation links to come up", func() bool {
		for _, n := range nodes {
			for _, ps := range n.Status() {
				if !ps.Connected {
					return false
				}
			}
		}
		return true
	}); err != nil {
		return res, err
	}
	if leases {
		if err := waitFor("initial lease acquisition", func() bool {
			for _, n := range nodes {
				if held, _, _ := n.LeaseStats(); !held {
					return false
				}
			}
			return true
		}); err != nil {
			return res, err
		}
	}

	// The minority's slice of the signature space: the keys whose
	// arming must cross the split by deputy promotion.
	ring := nodes[0].Ring()
	hubIndex := make(map[string]int, cfg.Hubs)
	for i := 0; i < cfg.Hubs; i++ {
		hubIndex[hubID(i)] = i
	}
	var minorityKeys []string
	for _, ws := range fullSet {
		if sig, err := ws.ToCore(); err == nil && ring.Owner(sig.Key()) == hubID(minority) {
			minorityKeys = append(minorityKeys, sig.Key())
		}
	}
	res.MinorityKeys = len(minorityKeys)
	if len(minorityKeys) == 0 && cfg.Scenario != ScenarioFlap {
		return res, fmt.Errorf("partition: the minority hub owns none of the %d signatures; raise Sigs", cfg.Sigs)
	}

	// Devices attach round-robin across ALL hubs — unlike the chaos
	// storm's victim, the minority hub keeps serving devices through the
	// split, which is exactly what forces arming decisions onto it.
	devices := make([]*stormSession, cfg.Devices)
	for i := range devices {
		dev, err := dialStorm(immunity.NewLoopback(hubs[i%cfg.Hubs]), fmt.Sprintf("part%d", i), "")
		if err != nil {
			return res, fmt.Errorf("partition: %w", err)
		}
		defer dev.close()
		devices[i] = dev
	}
	report := func(devs []*stormSession) error {
		for _, dev := range devs {
			for s := range fullSet {
				m := wire.Message{V: wire.Version, Type: wire.TypeReport,
					Report: &wire.Report{Sigs: fullSet[s : s+1]}}
				if err := dev.sess.Send(m); err != nil {
					return fmt.Errorf("partition: %s report: %w", dev.id, err)
				}
			}
		}
		return nil
	}

	started := time.Now()

	// Phase 1 — mid-confirmation: threshold-1 devices report and every
	// confirmation settles on its owner (and the minority slice's
	// deputy shadows) BEFORE the cut, so phase 2's single confirmation
	// is exactly what crosses the threshold on each side of the split.
	confirms := func(h *immunity.Exchange, key string) int {
		for _, p := range h.Provenance() {
			if p.Key == key {
				return len(p.ConfirmedBy)
			}
		}
		return -1
	}
	early := devices[:cfg.ConfirmThreshold-1]
	if err := report(early); err != nil {
		return res, err
	}
	if len(early) > 0 {
		if err := waitFor("phase-1 confirmations to settle on every owner", func() bool {
			for _, ws := range fullSet {
				sig, err := ws.ToCore()
				if err != nil {
					return false
				}
				owner := hubIndex[ring.Owner(sig.Key())]
				if confirms(hubs[owner], sig.Key()) < len(early) {
					return false
				}
			}
			return true
		}); err != nil {
			return res, err
		}
		if err := waitFor("deputy shadows of the minority slice", func() bool {
			for _, key := range minorityKeys {
				deputy, ok := hubIndex[ring.Deputy(key)]
				if !ok || deputy == minority {
					continue
				}
				if confirms(hubs[deputy], key) < 0 {
					return false
				}
			}
			return true
		}); err != nil {
			return res, err
		}
	}

	if cfg.Scenario == ScenarioFlap {
		return runFlapStorm(cfg, res, net, hubs, nodes, devices, report, waitFor, refArmed, hubID, leases, started)
	}

	// The cut.
	switch cfg.Scenario {
	case ScenarioSymmetric:
		var majorityIDs []string
		for i := 0; i < minority; i++ {
			majorityIDs = append(majorityIDs, hubID(i))
		}
		net.Partition(majorityIDs, []string{hubID(minority)})
	case ScenarioAsymmetric:
		for i := 0; i < minority; i++ {
			net.Block(hubID(minority), hubID(i))
		}
	}

	// The majority's probes condemn the silent member and promote its
	// keys; with leases on, the minority's own lease round dies first
	// (its renewals cannot reach a majority) and it loses the right to
	// arm before anyone could promote against it.
	if err := waitFor("the majority to mark the minority down", func() bool {
		for i := 0; i < minority; i++ {
			if len(nodes[i].Members()) != cfg.Hubs-1 {
				return false
			}
		}
		return true
	}); err != nil {
		return res, err
	}
	if leases {
		if err := waitFor("the minority to lose its lease", func() bool {
			held, _, lost := nodes[minority].LeaseStats()
			return !held && lost >= 1
		}); err != nil {
			return res, err
		}
	}

	// Phase 2 — the remaining devices report into the split: majority-
	// side confirmations finish arming the full set over there (the
	// minority's old slice arms on its promoted deputies), while the
	// minority-side device pushes its hub's owned keys over the
	// threshold with no lease to arm under.
	if err := report(devices[len(early):]); err != nil {
		return res, err
	}
	if err := waitFor("the majority side to arm the full set", func() bool {
		for i := 0; i < minority; i++ {
			if hubs[i].ArmedCount() < cfg.Sigs {
				return false
			}
		}
		return true
	}); err != nil {
		return res, err
	}

	if leases {
		// The lease contract, mid-split: threshold crossings on the
		// minority PARK — zero arms over there while the majority is
		// promoting, which is precisely the double-arm window.
		if err := waitFor("the minority to park its crossings", func() bool {
			return hubs[minority].Stats().Parked > 0
		}); err != nil {
			return res, err
		}
		res.ParkedPeak = hubs[minority].Stats().Parked
		if got := hubs[minority].ArmedCount(); got != 0 {
			return res, fmt.Errorf("partition: minority armed %d signatures during the split with its lease lost (double-arm window open)", got)
		}
	} else {
		// NoLease baseline: the minority arms its own slice independently
		// — the divergence the post-heal merge must reconcile.
		if err := waitFor("the minority to arm its slice independently", func() bool {
			return hubs[minority].ArmedCount() >= len(minorityKeys)
		}); err != nil {
			return res, err
		}
		if got := hubs[minority].Stats().Parked; got != 0 {
			return res, fmt.Errorf("partition: NoLease run parked %d decisions", got)
		}
	}
	res.MinoritySplitArms = hubs[minority].ArmedCount()

	// Heal: redials land, handshakes replay the missed armings from
	// their cursors, membership re-merges, the minority's lease comes
	// back, and every parked decision settles (armed by the replayed
	// broadcast, or re-armed by the lease-regain sweep).
	healStart := time.Now()
	net.Heal()
	if err := waitFor("post-heal convergence", func() bool {
		for i := range nodes {
			if len(nodes[i].Members()) != cfg.Hubs {
				return false
			}
		}
		for _, hub := range hubs {
			if hub.ArmedCount() < cfg.Sigs {
				return false
			}
		}
		if hubs[minority].Stats().Parked != 0 {
			return false
		}
		if leases {
			if held, _, _ := nodes[minority].LeaseStats(); !held {
				return false
			}
		}
		return true
	}); err != nil {
		return res, err
	}
	res.ParkClear = time.Since(healStart)
	res.Elapsed = time.Since(started)
	_, _, res.LeaseLost = nodes[minority].LeaseStats()
	if leases && res.LeaseLost == 0 {
		return res, fmt.Errorf("partition: minority reports zero lease losses after the split")
	}

	return finishPartition(cfg, res, hubs, refArmed, hubID)
}

// runFlapStorm is the flap scenario's middle and end: one direction of
// the hub0→hub1 link blinks faster than the suspicion window while the
// storm completes. Indirect probes through the remaining hubs must keep
// every member alive — no down-marks, no lease losses — and the armed
// set must converge as if the link were clean.
func runFlapStorm(cfg PartitionConfig, res PartitionResult, net *fault.Network,
	hubs []*immunity.Exchange, nodes []*cluster.Node, devices []*stormSession,
	report func([]*stormSession) error, waitFor func(string, func() bool) error,
	refArmed []string, hubID func(int) string, leases bool, started time.Time) (PartitionResult, error) {

	// Blink windows sit well under the suspicion window (FailoverAfter/2
	// by derivation), so a down-mark can only come from the detector
	// overreacting — which is what this scenario pins down.
	window := cfg.FailoverAfter / 5
	if window < time.Millisecond {
		window = time.Millisecond
	}
	const cycles = 16
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for c := 0; c < cycles; c++ {
			net.Block(hubID(0), hubID(1))
			time.Sleep(window)
			net.Unblock(hubID(0), hubID(1))
			time.Sleep(window)
		}
	}()

	// Phase 2 lands mid-flap: reports, forwards, and arm broadcasts
	// ride the blinking link's outbox through the blocks.
	if err := report(devices[cfg.ConfirmThreshold-1:]); err != nil {
		<-flapDone
		return res, err
	}
	<-flapDone

	// Nothing may have been condemned: every node still sees the full
	// membership, and (with leases on) nobody ever lost one.
	for i, n := range nodes {
		if got := len(n.Members()); got != cfg.Hubs {
			return res, fmt.Errorf("partition: flap marked a member down on %s (%d/%d members live)", hubID(i), got, cfg.Hubs)
		}
		if leases {
			if _, _, lost := n.LeaseStats(); lost != 0 {
				return res, fmt.Errorf("partition: flap cost %s its lease %d times", hubID(i), lost)
			}
		}
	}

	// The flap subsides: Heal replaces every session the blinking link
	// touched — the reverse-direction session sat half-deaf through the
	// blocks, silently missing broadcasts, and only its re-handshake
	// (replaying from the cursor) gets them back.
	net.Heal()

	if err := waitFor("post-flap convergence", func() bool {
		for _, hub := range hubs {
			if hub.ArmedCount() < cfg.Sigs {
				return false
			}
		}
		return true
	}); err != nil {
		return res, err
	}
	res.Elapsed = time.Since(started)
	return finishPartition(cfg, res, hubs, refArmed, hubID)
}

// finishPartition asserts federation equivalence against the
// single-hub reference and the no-double-arm invariant, then fills the
// summary counters.
func finishPartition(cfg PartitionConfig, res PartitionResult,
	hubs []*immunity.Exchange, refArmed []string, hubID func(int) string) (PartitionResult, error) {
	res.Armed = cfg.Sigs
	for i, hub := range hubs {
		if n := hub.ArmedCount(); n < res.Armed {
			res.Armed = n
		}
		armed := armedKeys(hub)
		if !equalKeys(armed, refArmed) {
			return res, fmt.Errorf("partition: %s armed set diverged from the single-hub reference (%d vs %d keys)",
				hubID(i), len(armed), len(refArmed))
		}
		st := hub.Stats()
		if st.Epoch != uint64(len(armed)) {
			return res, fmt.Errorf("partition: %s delta epoch %d != armed count %d (double-arm)",
				hubID(i), st.Epoch, len(armed))
		}
		res.Fenced += st.Fenced
	}
	return res, nil
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
