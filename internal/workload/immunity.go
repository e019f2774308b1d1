// Fleet immunity workload: measures how fast an antibody travels once
// detected — first across the live processes of the detecting phone (the
// on-device propagation tier), then across a simulated fleet of phones
// through the signature exchange, gated by the confirm-before-arm
// threshold. The headline number is time-to-fleet-immunity: from the
// moment the threshold-completing detection is accepted to the moment the
// last live process on the last phone is armed.
//
// The phones reach the exchange through any of its transports: the
// in-process loopback, an in-process hub served over real TCP sockets,
// or — in client mode (Dial) — an external immunityd daemon, observed
// through wire status requests. With Hubs > 1 (or several Dial
// addresses) the exchange is a federated cluster: phones attach
// round-robin across hubs, reports are forwarded to each signature's
// owning hub, and arming must propagate cluster-wide before the
// scenario counts it. Arming decisions are identical across transports
// and topologies; only latencies differ (the federation-equivalence
// test in this package asserts it).
package workload

import (
	"crypto/tls"
	"fmt"
	"strings"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// FleetTransport selects how the workload's phones reach the exchange.
type FleetTransport string

// Fleet transport modes.
const (
	// TransportLoopback runs the wire protocol in-process (no sockets).
	TransportLoopback FleetTransport = "loopback"
	// TransportTCP serves an in-process hub on an OS-assigned loopback
	// TCP port and connects every phone through real sockets.
	TransportTCP FleetTransport = "tcp"
)

// FleetImmunityConfig parameterizes one fleet immunity run.
type FleetImmunityConfig struct {
	// Phones is the number of simulated devices (>= 2; the acceptance
	// scenario uses >= 4).
	Phones int
	// ProcsPerPhone is how many live application processes each phone
	// runs (forked before any detection, so arming them proves the
	// no-restart path).
	ProcsPerPhone int
	// ConfirmThreshold is how many distinct devices must independently
	// detect the deadlock before the exchange arms it fleet-wide. It must
	// not exceed Phones (ignored in client mode, where the daemon owns
	// the threshold).
	ConfirmThreshold int
	// Timeout bounds every wait in the scenario.
	Timeout time.Duration
	// Transport selects loopback (default) or tcp for the in-process
	// hub(s). Ignored when Dial is set.
	Transport FleetTransport
	// Hubs federates the in-process exchange into a cluster of this many
	// hubs (per-signature ownership, hub-to-hub delta exchange); phones
	// attach round-robin across them. 0 or 1 keeps the single hub.
	// Ignored when Dial is set (an external cluster is given by listing
	// several addresses in Dial instead).
	Hubs int
	// Dial, when non-empty, runs the workload in client mode against
	// external exchange daemons (immunityd -serve): a comma-separated
	// address list — one address for a single hub, several for a
	// federated cluster — across which phones attach round-robin over
	// TCP, with gating/provenance observed through wire status requests.
	// The daemons must be running with a confirm threshold of
	// ConfirmThreshold for the gating check to be meaningful.
	Dial string
	// Token, in client mode, rides every phone's hello as the bearer
	// credential — required against daemons serving with -auth-key or
	// -auth-keyring, ignored by auth-disabled daemons.
	Token string
	// TLS, in client mode, dials every daemon connection (device
	// sessions and status probes) under this config — typically
	// auth.ClientConfig over the fleet CA. Nil dials plaintext.
	TLS *tls.Config
	// Metrics, when non-nil, is shared with every in-process hub (the
	// hub-side counters/gauges land on it) and receives the run's
	// propagation latencies as immunity_propagation_device_seconds and
	// immunity_propagation_fleet_seconds histogram observations, so the
	// latencies the result reports are also scrapeable live. Ignored in
	// client mode (external daemons own their registries).
	Metrics *metrics.Registry
}

// DefaultFleetImmunityConfig is the acceptance-scenario shape: 4 phones,
// 3 live processes each, arm after 2 independent confirmations.
func DefaultFleetImmunityConfig() FleetImmunityConfig {
	return FleetImmunityConfig{
		Phones:           4,
		ProcsPerPhone:    3,
		ConfirmThreshold: 2,
		Timeout:          30 * time.Second,
		Transport:        TransportLoopback,
	}
}

// validate rejects inconsistent configs.
func (cfg FleetImmunityConfig) validate() error {
	if cfg.Phones < 2 {
		return fmt.Errorf("fleet immunity: need >= 2 phones, got %d", cfg.Phones)
	}
	if cfg.ProcsPerPhone < 1 {
		return fmt.Errorf("fleet immunity: need >= 1 process per phone, got %d", cfg.ProcsPerPhone)
	}
	if cfg.ConfirmThreshold < 1 || cfg.ConfirmThreshold > cfg.Phones {
		return fmt.Errorf("fleet immunity: confirm threshold %d outside [1,%d]", cfg.ConfirmThreshold, cfg.Phones)
	}
	if cfg.Timeout <= 0 {
		return fmt.Errorf("fleet immunity: non-positive timeout %v", cfg.Timeout)
	}
	switch cfg.Transport {
	case "", TransportLoopback, TransportTCP:
	default:
		return fmt.Errorf("fleet immunity: unknown transport %q", cfg.Transport)
	}
	if cfg.Hubs < 0 {
		return fmt.Errorf("fleet immunity: negative hub count %d", cfg.Hubs)
	}
	if cfg.Hubs > cfg.Phones {
		return fmt.Errorf("fleet immunity: %d hubs for %d phones (each hub needs a phone)", cfg.Hubs, cfg.Phones)
	}
	return nil
}

// FleetImmunityResult is the measured timeline of one run.
type FleetImmunityResult struct {
	Config FleetImmunityConfig
	// DeviceImmunity is first detection → every live process on the
	// detecting phone armed (the on-device propagation latency).
	DeviceImmunity time.Duration
	// RemoteArmedBeforeThreshold counts processes on non-detecting phones
	// that were armed after the first detection but before the threshold
	// was met. It must be 0 when ConfirmThreshold > 1 — the gating proof.
	RemoteArmedBeforeThreshold int
	// RemoteProcsSampled is the number of processes the gating check
	// sampled.
	RemoteProcsSampled int
	// FleetArm is last (threshold-completing) detection → the exchange
	// arming the signature.
	FleetArm time.Duration
	// FleetImmunity is last detection → the last live process on the last
	// phone armed: the headline time-to-fleet-immunity.
	FleetImmunity time.Duration
	// Provenance is the exchange's audit trail after the run.
	Provenance []immunity.Provenance
	// Transport describes how phones reached the hub: "loopback", "tcp",
	// or "client:ADDR" for an external daemon.
	Transport string
	// DeltaBatches and DeltaSignatures are the hub's push-coalescing
	// counters after the run.
	DeltaBatches, DeltaSignatures uint64
}

// buggyFrames are the injected deadlock's two outer positions — identical
// on every phone, so each device's detection yields the same signature
// key and the confirmations accumulate on one fleet entry.
var buggyOuterA = core.Frame{Class: "com.buggy.App", Method: "lockAB", Line: 10}
var buggyOuterB = core.Frame{Class: "com.buggy.App", Method: "lockBA", Line: 20}

// buggyKey is the injected deadlock's signature key.
func buggyKey() string {
	sig := &core.Signature{
		Kind: core.DeadlockSig,
		Pairs: []core.SigPair{
			{Outer: core.CallStack{buggyOuterA}, Inner: core.CallStack{buggyOuterA}},
			{Outer: core.CallStack{buggyOuterB}, Inner: core.CallStack{buggyOuterB}},
		},
	}
	return sig.Key()
}

// armedWith reports whether the process's core holds the signature.
func armedWith(p *vm.Process, key string) bool {
	dim := p.Dimmunix()
	if dim == nil {
		return false
	}
	for _, info := range dim.History() {
		sig := &core.Signature{Kind: info.Kind, Pairs: info.Pairs}
		if sig.Key() == key {
			return true
		}
	}
	return false
}

// injectDeadlock forks a buggy app on the phone and drives its two
// threads into a certain AB/BA inversion (strict rendezvous on channels).
// Under PolicyFreeze the process freezes — like a real buggy app — and
// the detection publishes the signature to the phone's service. The
// process is left frozen; the Zygote reaps it at teardown.
func injectDeadlock(z *vm.Zygote) error {
	p, err := z.Fork("com.buggy.app")
	if err != nil {
		return fmt.Errorf("inject: %w", err)
	}
	a, b := p.NewObject("buggy.A"), p.NewObject("buggy.B")
	hasA := make(chan struct{})
	hasB := make(chan struct{})
	if _, err := p.Start("t1", func(t *vm.Thread) {
		t.Call(buggyOuterA.Class, buggyOuterA.Method, buggyOuterA.Line, func() {
			a.Synchronized(t, func() {
				close(hasA)
				<-hasB
				t.Call("com.buggy.App", "innerB", 11, func() {
					b.Synchronized(t, func() {})
				})
			})
		})
	}); err != nil {
		return fmt.Errorf("inject: %w", err)
	}
	if _, err := p.Start("t2", func(t *vm.Thread) {
		t.Call(buggyOuterB.Class, buggyOuterB.Method, buggyOuterB.Line, func() {
			<-hasA
			b.Synchronized(t, func() {
				close(hasB)
				t.Call("com.buggy.App", "innerA", 21, func() {
					a.Synchronized(t, func() {})
				})
			})
		})
	}); err != nil {
		return fmt.Errorf("inject: %w", err)
	}
	return nil
}

// immunityPhone is one simulated device of the fleet.
type immunityPhone struct {
	svc    *immunity.Service
	zygote *vm.Zygote
	procs  []*vm.Process
	client *immunity.ExchangeClient
}

// hubView abstracts how the scenario observes fleet state: the
// in-process hub(s) directly, or wire status requests against external
// daemons. Multi-hub views report the cluster-wide floor: armedCount is
// the minimum across hubs (a signature is only fleet-armed once every
// hub installed it), provenance merges per key with the owner's full
// record winning, batching sums.
type hubView interface {
	armedCount() (int, error)
	provenance() ([]immunity.Provenance, error)
	batching() (batches, sigs uint64)
}

// mergeProvenance folds per-hub provenance into the cluster view: one
// record per key, the owner's (the one carrying the confirmation set,
// or failing that the highest confirmation count) winning.
func mergeProvenance(views ...[]immunity.Provenance) []immunity.Provenance {
	var order []string
	best := make(map[string]immunity.Provenance)
	for _, view := range views {
		for _, p := range view {
			old, ok := best[p.Key]
			if !ok {
				order = append(order, p.Key)
				best[p.Key] = p
				continue
			}
			if len(p.ConfirmedBy) > len(old.ConfirmedBy) || p.Confirmations > old.Confirmations {
				best[p.Key] = p
			}
		}
	}
	out := make([]immunity.Provenance, 0, len(order))
	for _, key := range order {
		out = append(out, best[key])
	}
	return out
}

// localView reads one or more in-process hubs.
type localView struct{ hubs []*immunity.Exchange }

func (v localView) armedCount() (int, error) {
	minArmed := v.hubs[0].ArmedCount()
	for _, hub := range v.hubs[1:] {
		if n := hub.ArmedCount(); n < minArmed {
			minArmed = n
		}
	}
	return minArmed, nil
}

func (v localView) provenance() ([]immunity.Provenance, error) {
	views := make([][]immunity.Provenance, len(v.hubs))
	for i, hub := range v.hubs {
		views[i] = hub.Provenance()
	}
	return mergeProvenance(views...), nil
}

func (v localView) batching() (uint64, uint64) {
	var batches, sigs uint64
	for _, hub := range v.hubs {
		st := hub.Stats()
		batches += st.DeltaBatches
		sigs += st.DeltaSignatures
	}
	return batches, sigs
}

// statusView polls external daemons over the wire protocol.
type statusView struct {
	addrs    []string
	timeout  time.Duration
	dialOpts []immunity.TCPOption
}

func (v statusView) statuses() ([]wire.Status, error) {
	out := make([]wire.Status, len(v.addrs))
	for i, addr := range v.addrs {
		st, err := immunity.FetchStatus(addr, v.timeout, v.dialOpts...)
		if err != nil {
			return nil, fmt.Errorf("hub %s: %w", addr, err)
		}
		out[i] = st
	}
	return out, nil
}

func (v statusView) armedCount() (int, error) {
	sts, err := v.statuses()
	if err != nil {
		return 0, err
	}
	minArmed := int(sts[0].Epoch)
	for _, st := range sts[1:] {
		if n := int(st.Epoch); n < minArmed {
			minArmed = n
		}
	}
	return minArmed, nil
}

func (v statusView) provenance() ([]immunity.Provenance, error) {
	sts, err := v.statuses()
	if err != nil {
		return nil, err
	}
	views := make([][]immunity.Provenance, 0, len(sts))
	for _, st := range sts {
		view := make([]immunity.Provenance, 0, len(st.Provenance))
		for _, p := range st.Provenance {
			kind, err := wire.ParseKind(p.Kind)
			if err != nil {
				return nil, fmt.Errorf("daemon status (newer protocol?): %w", err)
			}
			view = append(view, immunity.Provenance{
				Key:           p.Key,
				Kind:          kind,
				FirstSeen:     p.FirstSeen,
				Confirmations: p.Confirmations,
				ConfirmedBy:   p.ConfirmedBy,
				Armed:         p.Armed,
				Owner:         p.Owner,
			})
		}
		views = append(views, view)
	}
	return mergeProvenance(views...), nil
}

func (v statusView) batching() (uint64, uint64) {
	sts, err := v.statuses()
	if err != nil {
		return 0, 0
	}
	var batches, sigs uint64
	for _, st := range sts {
		batches += st.Batching.Batches
		sigs += st.Batching.Signatures
	}
	return batches, sigs
}

// RunFleetImmunity executes the scenario: fork all live processes on all
// phones, inject the deadlock on ConfirmThreshold phones one at a time,
// verify the gating after the first detection, and measure the
// propagation latencies. The phones reach the exchange through the
// configured transport; loopback and TCP run the identical wire
// protocol, so the arming decisions must match across them (the
// equivalence test in the package asserts it).
func RunFleetImmunity(cfg FleetImmunityConfig) (FleetImmunityResult, error) {
	if err := cfg.validate(); err != nil {
		return FleetImmunityResult{}, err
	}
	res := FleetImmunityResult{Config: cfg}
	key := buggyKey()

	// Hub topology and per-phone transports by mode. Phones attach
	// round-robin across deviceTransports — a single hub is the
	// degenerate one-element case.
	var (
		deviceTransports []immunity.Transport
		view             hubView
	)
	switch {
	case cfg.Dial != "":
		var addrs []string
		for _, a := range strings.Split(cfg.Dial, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return res, fmt.Errorf("fleet immunity: no address in dial list %q", cfg.Dial)
		}
		res.Transport = "client:" + strings.Join(addrs, ",")
		var dialOpts []immunity.TCPOption
		if cfg.TLS != nil {
			res.Transport = "client+tls:" + strings.Join(addrs, ",")
			dialOpts = append(dialOpts, immunity.WithDialTLS(cfg.TLS))
		}
		for _, addr := range addrs {
			deviceTransports = append(deviceTransports, immunity.NewTCPTransport(addr, dialOpts...))
		}
		view = statusView{addrs: addrs, timeout: cfg.Timeout, dialOpts: dialOpts}
		// An external daemon carries state across runs. If it already
		// armed this scenario's signature (an earlier -connect run, or a
		// -provenance store from one), the injected deadlock would be
		// avoided instead of detected and the run would time out with a
		// misleading error — fail up front with the real cause.
		if provs, err := view.provenance(); err == nil {
			for _, p := range provs {
				if p.Key == key && p.Armed {
					return res, fmt.Errorf("fleet immunity: daemon at %s already has this scenario's signature armed (stale state from an earlier run?) — restart it with a fresh provenance store", cfg.Dial)
				}
			}
		}
	default:
		hubCount := cfg.Hubs
		if hubCount < 1 {
			hubCount = 1
		}
		useTCP := cfg.Transport == TransportTCP
		res.Transport = string(TransportLoopback)
		if useTCP {
			res.Transport = string(TransportTCP)
		}
		if hubCount > 1 {
			res.Transport = fmt.Sprintf("cluster(%d)+%s", hubCount, res.Transport)
		}
		var hubOpts []immunity.ExchangeOption
		if cfg.Metrics != nil {
			hubOpts = append(hubOpts, immunity.WithMetricsRegistry(cfg.Metrics))
		}
		hubs := make([]*immunity.Exchange, hubCount)
		addrs := make([]string, hubCount)
		for i := range hubs {
			hub, err := immunity.NewExchange(cfg.ConfirmThreshold, hubOpts...)
			if err != nil {
				return res, fmt.Errorf("fleet immunity: %w", err)
			}
			defer hub.Close()
			hubs[i] = hub
			if useTCP {
				srv, err := immunity.ServeTCP(hub, "127.0.0.1:0")
				if err != nil {
					return res, fmt.Errorf("fleet immunity: %w", err)
				}
				defer srv.Close()
				addrs[i] = srv.Addr()
			}
		}
		// Transport to hub j, as seen from anywhere in this process.
		hubTransport := func(j int) immunity.Transport {
			if useTCP {
				return immunity.NewTCPTransport(addrs[j])
			}
			return immunity.NewLoopback(hubs[j])
		}
		if hubCount > 1 {
			for i := range hubs {
				var peers []cluster.Member
				for j := range hubs {
					if j != i {
						peers = append(peers, cluster.Member{ID: fmt.Sprintf("hub%d", j), Transport: hubTransport(j)})
					}
				}
				node, err := cluster.New(cluster.Config{Self: fmt.Sprintf("hub%d", i), Hub: hubs[i], Peers: peers})
				if err != nil {
					return res, fmt.Errorf("fleet immunity: %w", err)
				}
				defer node.Close()
			}
		}
		for i := range hubs {
			deviceTransports = append(deviceTransports, hubTransport(i))
		}
		view = localView{hubs}
	}

	phones := make([]*immunityPhone, cfg.Phones)
	for i := range phones {
		svc, err := immunity.NewService(fmt.Sprintf("phone%d", i), core.NewMemHistory())
		if err != nil {
			return res, fmt.Errorf("fleet immunity: %w", err)
		}
		ph := &immunityPhone{svc: svc}
		ph.zygote = vm.NewZygote(vm.WithDimmunix(true), vm.WithSignatureBus(svc))
		defer ph.zygote.KillAll()
		defer svc.Close()
		for j := 0; j < cfg.ProcsPerPhone; j++ {
			p, err := ph.zygote.Fork(fmt.Sprintf("com.example.app%d", j))
			if err != nil {
				return res, fmt.Errorf("fleet immunity: %w", err)
			}
			ph.procs = append(ph.procs, p)
		}
		var connOpts []immunity.ClientOption
		if cfg.Token != "" {
			connOpts = append(connOpts, immunity.WithClientToken(cfg.Token))
		}
		client, err := immunity.Connect(deviceTransports[i%len(deviceTransports)], svc.Name(), svc, connOpts...)
		if err != nil {
			return res, fmt.Errorf("fleet immunity: %w", err)
		}
		ph.client = client
		defer client.Close()
		phones[i] = ph
	}

	// waitUntil polls cond at microsecond-ish granularity — except in
	// client mode, where cond may open a status connection to the daemon
	// per call: there the poll backs off to milliseconds so a slow (or
	// hung) daemon sees hundreds of probes, not a hundred-thousand-socket
	// connection storm.
	poll := 20 * time.Microsecond
	if cfg.Dial != "" {
		poll = 5 * time.Millisecond
	}
	waitUntil := func(what string, cond func() bool) (time.Time, error) {
		deadline := time.Now().Add(cfg.Timeout)
		for {
			if cond() {
				return time.Now(), nil
			}
			if time.Now().After(deadline) {
				return time.Time{}, fmt.Errorf("fleet immunity: timed out waiting for %s", what)
			}
			time.Sleep(poll)
		}
	}

	// detect triggers the deadlock on phone i and returns the moment its
	// service accepted the signature.
	detect := func(i int) (time.Time, error) {
		epochBefore := phones[i].svc.Epoch()
		if err := injectDeadlock(phones[i].zygote); err != nil {
			return time.Time{}, err
		}
		return waitUntil(fmt.Sprintf("detection on phone%d", i),
			func() bool { return phones[i].svc.Epoch() > epochBefore })
	}

	// First detection: on-device propagation on phone 0.
	tDetect0, err := detect(0)
	if err != nil {
		return res, err
	}
	tArmedDevice, err := waitUntil("phone0 processes armed", func() bool {
		for _, p := range phones[0].procs {
			if !armedWith(p, key) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return res, err
	}
	res.DeviceImmunity = tArmedDevice.Sub(tDetect0)

	// Gating check: below the threshold, no remote process may be armed.
	// Give propagation a real chance to misbehave before sampling.
	if cfg.ConfirmThreshold > 1 {
		time.Sleep(20 * time.Millisecond)
		for _, ph := range phones[1:] {
			for _, p := range ph.procs {
				res.RemoteProcsSampled++
				if armedWith(p, key) {
					res.RemoteArmedBeforeThreshold++
				}
			}
		}
	}

	// Remaining confirmations, one phone at a time.
	tDetectLast := tDetect0
	for i := 1; i < cfg.ConfirmThreshold; i++ {
		if tDetectLast, err = detect(i); err != nil {
			return res, err
		}
	}

	var lastStatusErr error
	tArm, err := waitUntil("exchange arming", func() bool {
		n, err := view.armedCount()
		if err != nil {
			lastStatusErr = err
			return false
		}
		return n >= 1
	})
	if err != nil {
		if lastStatusErr != nil {
			// A dead daemon must not masquerade as a gating failure.
			return res, fmt.Errorf("%w (last status error: %v)", err, lastStatusErr)
		}
		return res, err
	}
	res.FleetArm = tArm.Sub(tDetectLast)

	tAll, err := waitUntil("all fleet processes armed", func() bool {
		for _, ph := range phones {
			for _, p := range ph.procs {
				if !armedWith(p, key) {
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return res, err
	}
	res.FleetImmunity = tAll.Sub(tDetectLast)
	cfg.Metrics.Histogram("immunity_propagation_device_seconds",
		"First detection to every live process on the detecting phone armed.",
		metrics.DurationBuckets()).ObserveDuration(res.DeviceImmunity)
	cfg.Metrics.Histogram("immunity_propagation_fleet_seconds",
		"Threshold-completing detection to the last process on the last phone armed.",
		metrics.DurationBuckets()).ObserveDuration(res.FleetImmunity)
	if res.Provenance, err = view.provenance(); err != nil {
		return res, fmt.Errorf("fleet immunity: %w", err)
	}
	res.DeltaBatches, res.DeltaSignatures = view.batching()
	return res, nil
}

// FormatFleetImmunity renders a fleet immunity result for the CLI.
func FormatFleetImmunity(res FleetImmunityResult) string {
	cfg := res.Config
	out := fmt.Sprintf("fleet immunity: %d phones × %d live procs, confirm-before-arm threshold %d, transport %s\n",
		cfg.Phones, cfg.ProcsPerPhone, cfg.ConfirmThreshold, res.Transport)
	out += fmt.Sprintf("  on-device immunity   %12s  (detection → all %d procs on the detecting phone armed, no restart)\n",
		res.DeviceImmunity.Round(time.Microsecond), cfg.ProcsPerPhone)
	if cfg.ConfirmThreshold > 1 {
		out += fmt.Sprintf("  threshold gating     %6d/%d remote procs armed below %d confirmations (want 0)\n",
			res.RemoteArmedBeforeThreshold, res.RemoteProcsSampled, cfg.ConfirmThreshold)
	}
	out += fmt.Sprintf("  fleet arm            %12s  (last confirming detection → exchange armed)\n",
		res.FleetArm.Round(time.Microsecond))
	out += fmt.Sprintf("  fleet immunity       %12s  (last confirming detection → last of %d procs on %d phones armed)\n",
		res.FleetImmunity.Round(time.Microsecond), cfg.Phones*cfg.ProcsPerPhone, cfg.Phones)
	if res.DeltaBatches > 0 {
		out += fmt.Sprintf("  delta batching       %6d signatures in %d pushes\n", res.DeltaSignatures, res.DeltaBatches)
	}
	out += "provenance:\n"
	for _, prov := range res.Provenance {
		out += fmt.Sprintf("  %s first-seen=%s confirms=%d %v armed=%v\n",
			prov.Key, prov.FirstSeen, prov.Confirmations, prov.ConfirmedBy, prov.Armed)
	}
	return out
}

// propagationSig builds the i-th synthetic benchmark signature (hot site
// paired with a cold never-executed one, as in the §5 methodology).
func propagationSig(i int) *core.Signature {
	hot := core.Frame{Class: "com.bench.Prop", Method: "hot", Line: i}
	cold := core.Frame{Class: "com.bench.Prop", Method: "neverExecuted", Line: 100000 + i}
	return &core.Signature{
		Kind: core.DeadlockSig,
		Pairs: []core.SigPair{
			{Outer: core.CallStack{hot}, Inner: core.CallStack{hot}},
			{Outer: core.CallStack{cold}, Inner: core.CallStack{cold}},
		},
	}
}
