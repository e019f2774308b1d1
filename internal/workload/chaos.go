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
	"sort"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// SwitchTransport is an in-process Transport whose target hub can be
// swapped at runtime. A plain Loopback is bound to one Exchange object
// forever — a closed in-process hub can never come back, so loopback
// dial errors classify as permanent — which makes it unable to model a
// hub *restart*. SwitchTransport is the restartable variant: peers dial
// through it, a kill swaps the hub out (dials fail transiently, so peer
// links keep redialing with backoff), and a restart swaps the new
// Exchange in, at which point the next redial lands on the reborn hub
// exactly as a TCP reconnect would land on a restarted daemon.
type SwitchTransport struct {
	hub atomic.Pointer[immunity.Exchange]
}

// NewSwitchTransport builds the transport, initially targeting hub
// (nil = down).
func NewSwitchTransport(hub *immunity.Exchange) *SwitchTransport {
	t := &SwitchTransport{}
	t.hub.Store(hub)
	return t
}

// Swap retargets the transport: nil models a crashed hub, non-nil a
// restarted one. Existing sessions are unaffected (the old hub's Close
// tears them down); only future dials see the new target.
func (t *SwitchTransport) Swap(hub *immunity.Exchange) { t.hub.Store(hub) }

// Dial implements immunity.Transport.
func (t *SwitchTransport) Dial(recv func(wire.Message), down func(err error)) (immunity.Session, error) {
	hub := t.hub.Load()
	if hub == nil {
		return nil, fmt.Errorf("switch transport: hub is down")
	}
	sess, err := immunity.NewLoopback(hub).Dial(recv, down)
	if err != nil {
		// Strip the loopback's permanent classification: behind the
		// switch this hub can restart, so its dial errors are transient.
		return nil, fmt.Errorf("switch transport: %v", err)
	}
	return sess, nil
}

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
	deadline := time.Now().Add(cfg.Timeout)
	waitFor := func(what string, cond func() bool) error {
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("chaos: timed out waiting for %s", what)
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
	// the federation must reproduce under chaos.
	refArmed, err := singleHubReference(cfg, fullSet, deadline)
	if err != nil {
		return res, err
	}

	// The federation: every peer link runs through a SwitchTransport so
	// the victim can die and come back behind a stable address.
	hubID := func(i int) string { return fmt.Sprintf("hub%d", i) }
	victim := cfg.Hubs - 1
	stores := make([]*immunity.MemProvenance, cfg.Hubs)
	switches := make([]*SwitchTransport, cfg.Hubs)
	for i := range switches {
		stores[i] = immunity.NewMemProvenance()
		switches[i] = NewSwitchTransport(nil)
	}
	hubs := make([]*immunity.Exchange, cfg.Hubs)
	nodes := make([]*cluster.Node, cfg.Hubs)
	start := func(i int) error {
		hub, err := immunity.NewExchange(cfg.ConfirmThreshold, immunity.WithProvenanceStore(stores[i]))
		if err != nil {
			return fmt.Errorf("chaos: %s: %w", hubID(i), err)
		}
		var peers []cluster.Member
		for j := range switches {
			if j != i {
				peers = append(peers, cluster.Member{ID: hubID(j), Transport: switches[j]})
			}
		}
		node, err := cluster.New(cluster.Config{
			Self: hubID(i), Hub: hub, Peers: peers,
			FailoverAfter: cfg.FailoverAfter, Metrics: cfg.Metrics,
		})
		if err != nil {
			hub.Close()
			return fmt.Errorf("chaos: %s: %w", hubID(i), err)
		}
		hubs[i], nodes[i] = hub, node
		switches[i].Swap(hub)
		return nil
	}
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
		if err := start(i); err != nil {
			return res, err
		}
	}

	// The victim's slice of the signature space: these keys' arming must
	// survive the kill. (The fencing total below also counts any
	// post-restart replays the survivors refuse.)
	ring := nodes[0].Ring()
	var victimKeys []string
	for _, ws := range fullSet {
		if sig, err := ws.ToCore(); err == nil && ring.Owner(sig.Key()) == hubID(victim) {
			victimKeys = append(victimKeys, sig.Key())
		}
	}
	res.VictimKeys = len(victimKeys)

	// Devices attach round-robin to the survivor hubs only — the victim
	// participates purely as an owner, so its death never takes a device
	// session with it and every lost arming is the federation's fault.
	devices := make([]*stormSession, cfg.Devices)
	for i := range devices {
		dev, err := dialStorm(immunity.NewLoopback(hubs[i%victim]), fmt.Sprintf("chaos%d", i), "")
		if err != nil {
			return res, fmt.Errorf("chaos: %w", err)
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
					return fmt.Errorf("chaos: %s report: %w", dev.id, err)
				}
			}
		}
		return nil
	}

	started := time.Now()

	// Phase 1 — mid-confirmation: threshold-1 devices report, so every
	// signature ends pending one confirmation short of arming, and the
	// victim's owned slice is replicated to its deputies.
	early := devices[:cfg.ConfirmThreshold-1]
	if err := report(early); err != nil {
		return res, err
	}
	if len(early) > 0 {
		if err := waitFor("victim to hold its pending slice", func() bool {
			return len(hubs[victim].Provenance()) >= len(victimKeys)
		}); err != nil {
			return res, err
		}
		// Replication barrier: each victim-owned key's deputy holds the
		// shadow before the kill, so the arming below can only come from
		// the inherited set.
		deputies := make(map[string]int)
		for _, key := range victimKeys {
			for i := 0; i < victim; i++ {
				if ring.Deputy(key) == hubID(i) {
					deputies[key] = i
				}
			}
		}
		if err := waitFor("deputy replicas of the victim's slice", func() bool {
			for key, i := range deputies {
				found := false
				for _, p := range hubs[i].Provenance() {
					if p.Key == key {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			return true
		}); err != nil {
			return res, err
		}
	}

	for k := 0; k < cfg.Kills; k++ {
		// Kill: no Leave, no drain — the crash analog. Peer dials start
		// failing first so no redial lands on the closing hub.
		switches[victim].Swap(nil)
		nodes[victim].Close()
		hubs[victim].Close()
		nodes[victim], hubs[victim] = nil, nil
		if err := waitFor("survivors to fail the victim over", func() bool {
			for i := 0; i < victim; i++ {
				if len(nodes[i].Members()) != cfg.Hubs-1 {
					return false
				}
			}
			return true
		}); err != nil {
			return res, err
		}

		if k == 0 {
			// Phase 2 — the remaining devices report while the victim is
			// dead: its former slice can only arm on the deputies, from
			// the replicated pending sets plus these confirmations.
			if err := report(devices[len(early):]); err != nil {
				return res, err
			}
			if err := waitFor("survivors to arm the full set", func() bool {
				for i := 0; i < victim; i++ {
					if hubs[i].ArmedCount() < cfg.Sigs {
						return false
					}
				}
				return true
			}); err != nil {
				return res, err
			}
		}

		// Restart over the same provenance store; the node rejoins via
		// its seed peers, takes its keys back by handoff, and resyncs
		// the armings it missed from its resume seqs.
		if err := start(victim); err != nil {
			return res, err
		}
		if err := waitFor("the restarted victim to rejoin", func() bool {
			for i := range nodes {
				if len(nodes[i].Members()) != cfg.Hubs {
					return false
				}
			}
			return true
		}); err != nil {
			return res, err
		}
		res.Kills++
	}

	// Convergence: every hub — restarted victim included — armed on the
	// whole set.
	if err := waitFor("cluster-wide convergence", func() bool {
		for _, hub := range hubs {
			if hub.ArmedCount() < cfg.Sigs {
				return false
			}
		}
		return true
	}); err != nil {
		for _, hub := range hubs {
			if n := hub.ArmedCount(); res.Armed == 0 || n < res.Armed {
				res.Armed = n
			}
		}
		return res, err
	}
	res.Elapsed = time.Since(started)

	// Federation equivalence against the single-hub reference, and the
	// no-double-arm invariant: a hub's delta epoch counts its armings,
	// so epoch == armed count means no failover replay armed twice.
	res.Armed = cfg.Sigs
	for i, hub := range hubs {
		if n := hub.ArmedCount(); n < res.Armed {
			res.Armed = n
		}
		armed := armedKeys(hub)
		if !equalKeys(armed, refArmed) {
			return res, fmt.Errorf("chaos: %s armed set diverged from the single-hub reference (%d vs %d keys)",
				hubID(i), len(armed), len(refArmed))
		}
		st := hub.Stats()
		if st.Epoch != uint64(len(armed)) {
			return res, fmt.Errorf("chaos: %s delta epoch %d != armed count %d (double-arm)",
				hubID(i), st.Epoch, len(armed))
		}
		res.Fenced += st.Fenced
	}
	return res, nil
}

// singleHubReference runs the fleet's report set against one hub and
// returns its armed key set.
func singleHubReference(cfg ChaosConfig, fullSet []wire.Signature, deadline time.Time) ([]string, error) {
	hub, err := immunity.NewExchange(cfg.ConfirmThreshold)
	if err != nil {
		return nil, fmt.Errorf("chaos: reference hub: %w", err)
	}
	defer hub.Close()
	tr := immunity.NewLoopback(hub)
	for i := 0; i < cfg.Devices; i++ {
		dev, err := dialStorm(tr, fmt.Sprintf("chaos%d", i), "")
		if err != nil {
			return nil, fmt.Errorf("chaos: reference: %w", err)
		}
		for s := range fullSet {
			m := wire.Message{V: wire.Version, Type: wire.TypeReport,
				Report: &wire.Report{Sigs: fullSet[s : s+1]}}
			if err := dev.sess.Send(m); err != nil {
				dev.close()
				return nil, fmt.Errorf("chaos: reference report: %w", err)
			}
		}
		dev.close()
	}
	for hub.ArmedCount() < cfg.Sigs {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("chaos: reference hub armed %d/%d before timeout", hub.ArmedCount(), cfg.Sigs)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return armedKeys(hub), nil
}

// armedKeys returns a hub's armed signature keys, sorted.
func armedKeys(hub *immunity.Exchange) []string {
	var keys []string
	for _, p := range hub.Provenance() {
		if p.Armed {
			keys = append(keys, p.Key)
		}
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
