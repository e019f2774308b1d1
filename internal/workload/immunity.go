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
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
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

// tokenTenant is the tenant claim of a bearer token, read without
// verifying it (the daemon does that): the stale-state check only needs
// to know which tenant the phones will land in. No token, or one that
// does not decode, is the default tenant.
func tokenTenant(token string) string {
	payload, _, _ := strings.Cut(token, ".")
	body, err := base64.RawURLEncoding.DecodeString(payload)
	var c auth.Claims
	if err != nil || json.Unmarshal(body, &c) != nil {
		return ""
	}
	return c.Tenant
}

// armedAll reports whether every process on the phones holds the
// signature.
func armedAll(phones []*immunityPhone, key string) bool {
	for _, ph := range phones {
		for _, p := range ph.procs {
			if !armedWith(p, key) {
				return false
			}
		}
	}
	return true
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

	// Phones attach round-robin across the hubs' transports — a single
	// hub is the degenerate one-element case.
	hubs, err := openHubs(cfg.Dial, cfg.TLS, cfg.Timeout, fedConfig{name: "fleet immunity", hubs: cfg.Hubs,
		threshold: cfg.ConfirmThreshold, metrics: cfg.Metrics, tcp: cfg.Transport == TransportTCP})
	if err != nil {
		return res, err
	}
	defer hubs.close()
	res.Transport = hubs.label()
	// A daemon carries state across runs. If it already armed this
	// scenario's signature (an earlier run, or a -provenance store from
	// one), the injected deadlock would be avoided instead of
	// detected and the run would time out with a misleading error — fail
	// up front with the real cause. Only the phones' own tenant counts
	// (another tenant's arming is never pushed to them), and a tenant's
	// record is keyed with a tenant prefix, so the key is matched as a
	// suffix.
	tenant := tokenTenant(cfg.Token)
	if provs, err := hubs.provenance(); err == nil {
		for _, p := range provs {
			if p.Armed && p.Tenant == tenant && strings.HasSuffix(p.Key, key) {
				return res, fmt.Errorf("fleet immunity: %s already has this scenario's signature armed (stale state from an earlier run?) — restart it with a fresh provenance store", res.Transport)
			}
		}
	}
	trs := hubs.transports()

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
		client, err := immunity.Connect(trs[i%len(trs)], svc.Name(), svc, connOpts...)
		if err != nil {
			return res, fmt.Errorf("fleet immunity: %w", err)
		}
		ph.client = client
		defer client.Close()
		phones[i] = ph
	}

	w := waiter{"fleet immunity", cfg.Timeout, hubs}
	// detect triggers the deadlock on phone i and returns the moment its
	// service accepted the signature.
	detect := func(i int) (time.Time, error) {
		epochBefore := phones[i].svc.Epoch()
		if err := injectDeadlock(phones[i].zygote); err != nil {
			return time.Time{}, err
		}
		return w.until(fmt.Sprintf("detection on phone%d", i),
			func() bool { return phones[i].svc.Epoch() > epochBefore })
	}

	// First detection: on-device propagation on phone 0.
	tDetect0, err := detect(0)
	if err != nil {
		return res, err
	}
	tArmedDevice, err := w.until("phone0 processes armed", func() bool { return armedAll(phones[:1], key) })
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

	// A signature is only fleet-armed once every hub installed it.
	tArm, err := w.until("exchange arming", func() bool {
		epochs, err := hubs.epochs()
		return err == nil && slices.Min(epochs) >= 1
	})
	if err != nil {
		return res, err
	}
	res.FleetArm = tArm.Sub(tDetectLast)

	tAll, err := w.until("all fleet processes armed", func() bool { return armedAll(phones, key) })
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
	if res.Provenance, err = hubs.provenance(); err != nil {
		return res, fmt.Errorf("fleet immunity: %w", err)
	}
	res.DeltaBatches, res.DeltaSignatures = hubs.batching()
	return res, nil
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
