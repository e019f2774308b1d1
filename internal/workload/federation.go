// The fleet harness the chaos, partition, storm and fleet-immunity
// drivers share. It owns everything those scenarios need that none of
// them should write twice:
//
//   - federation: N in-process hubs, each behind its own restartable
//     switch transport, federated into a full mesh of cluster nodes (one
//     hub gets none). Options give every hub a memory provenance store
//     that survives kill/start (chaos), run every directed peer path
//     through one fault.Network (partition), serve each hub on a loopback
//     TCP port (fleet immunity over tcp). The single-hub reference every
//     equivalence check compares against is a 1-hub federation.
//   - hubView: how a scenario observes its hubs — a federation directly,
//     or remoteHubs, running daemons seen through wire status requests
//     and parsed from one dial list. Both expose the device transports,
//     the transport label, the per-hub epochs, merged provenance, summed
//     batching and a state snapshot.
//   - waiter: the package's one poll loop. Every wait gets the whole
//     Timeout, polls at the period of the view it reads, and a timeout
//     error carries the view's state.
//   - The phases chaos and partition share: reportEach (one report
//     message per signature per device), the phase-1 settle, and the
//     final equivalence check against the reference.
//
// What stays per driver is its script: which hub dies or is cut when,
// which devices report in which phase, and what its result counts.
package workload

import (
	"crypto/tls"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/fault"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// The waiter's poll periods. An in-process hub is read under its own
// lock; each poll of a running daemon opens a status connection, so
// there the loop backs off to milliseconds — a slow or hung daemon sees
// hundreds of probes, not a connection storm.
const (
	localPoll  = 200 * time.Microsecond
	remotePoll = 5 * time.Millisecond
)

// hubView is how a scenario observes the hubs it drives. Devices attach
// round-robin across transports. epochs is each hub's delta epoch (its
// armed count); provenance merges per key with the owner's full record
// winning; batching sums.
type hubView interface {
	transports() []immunity.Transport
	label() string
	epochs() ([]uint64, error)
	provenance() ([]immunity.Provenance, error)
	batching() (batches, sigs uint64)
	state() string
	poll() time.Duration
	close()
}

// openHubs is what a device-driving scenario runs against: the daemons
// in dial when it is set, a federation built from fc otherwise.
func openHubs(dial string, tlsCfg *tls.Config, timeout time.Duration, fc fedConfig) (hubView, error) {
	if dial != "" {
		r, err := dialHubs(dial, tlsCfg, timeout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fc.name, err)
		}
		return r, nil
	}
	f, err := newFederation(fc)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// waiter is the package's one poll loop.
type waiter struct {
	name    string
	timeout time.Duration
	view    hubView
}

// until polls cond until it holds, for at most the whole timeout, and
// returns the moment it held.
func (w waiter) until(what string, cond func() bool) (time.Time, error) {
	deadline := time.Now().Add(w.timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("%s: timed out waiting for %s;%s", w.name, what, w.view.state())
		}
		time.Sleep(w.view.poll())
	}
	return time.Now(), nil
}

// switchTransport is a hub's restartable address. Peers and devices
// dial through it; a kill points it at nothing (dials fail transiently,
// so peer links keep redialing with backoff) and a restart at the reborn
// hub, where the next redial lands exactly as a TCP reconnect lands on a
// restarted daemon. A bare Loopback cannot model this: it is bound to
// one Exchange forever, so its dial errors are permanent.
type switchTransport struct {
	to atomic.Pointer[immunity.Transport]
}

// Dial implements immunity.Transport.
func (t *switchTransport) Dial(recv func(wire.Message), down func(err error)) (immunity.Session, error) {
	to := t.to.Load()
	if to == nil {
		return nil, errors.New("switch transport: hub is down")
	}
	sess, err := (*to).Dial(recv, down)
	if err != nil {
		// %v, not %w: behind the switch the hub can restart, so even the
		// loopback's permanent errors are transient here.
		return nil, fmt.Errorf("switch transport: %v", err)
	}
	return sess, nil
}

// fedConfig shapes a federation; zero values leave an option off.
type fedConfig struct {
	name          string // the driver, prefixing errors
	hubs          int    // 0 or 1 = a single hub, no cluster
	threshold     int
	failoverAfter time.Duration
	noLease       bool
	metrics       *metrics.Registry // shared by every hub and node
	durable       bool              // a memory provenance store per hub, kept across kill/start
	faults        bool              // every directed peer path through federation.net
	tcp           bool              // serve each hub on a loopback TCP port
}

// federation is N in-process hubs in a full mesh.
type federation struct {
	fedConfig
	net     *fault.Network
	sw      []*switchTransport
	stores  []*immunity.MemProvenance
	hubs    []*immunity.Exchange // nil while killed
	nodes   []*cluster.Node
	servers []*immunity.ExchangeServer
}

func newFederation(cfg fedConfig) (*federation, error) {
	n := max(cfg.hubs, 1)
	f := &federation{fedConfig: cfg, sw: make([]*switchTransport, n), stores: make([]*immunity.MemProvenance, n),
		hubs: make([]*immunity.Exchange, n), nodes: make([]*cluster.Node, n), servers: make([]*immunity.ExchangeServer, n)}
	if cfg.faults {
		f.net = fault.NewNetwork()
	}
	for i := range f.sw {
		f.sw[i] = new(switchTransport)
		if cfg.durable {
			f.stores[i] = immunity.NewMemProvenance()
		}
	}
	for i := range f.hubs {
		if err := f.start(i); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *federation) id(i int) string { return fmt.Sprintf("hub%d", i) }

// start (re)starts hub i over its provenance store and federates it; a
// restarted node rejoins through its seed peers.
func (f *federation) start(i int) error {
	var opts []immunity.ExchangeOption
	if f.metrics != nil {
		opts = append(opts, immunity.WithMetricsRegistry(f.metrics))
	}
	if f.stores[i] != nil {
		opts = append(opts, immunity.WithProvenanceStore(f.stores[i]))
	}
	hub, err := immunity.NewExchange(f.threshold, opts...)
	if err != nil {
		return fmt.Errorf("%s: %s: %w", f.name, f.id(i), err)
	}
	f.hubs[i] = hub
	var to immunity.Transport = immunity.NewLoopback(hub)
	if f.tcp {
		if f.servers[i], err = immunity.ServeTCP(hub, "127.0.0.1:0"); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		to = immunity.NewTCPTransport(f.servers[i].Addr())
	}
	if len(f.hubs) > 1 {
		var peers []cluster.Member
		for j, sw := range f.sw {
			if j != i {
				var tr immunity.Transport = sw
				if f.net != nil {
					tr = f.net.Wrap(f.id(i), f.id(j), sw)
				}
				peers = append(peers, cluster.Member{ID: f.id(j), Transport: tr})
			}
		}
		if f.nodes[i], err = cluster.New(cluster.Config{Self: f.id(i), Hub: hub, Peers: peers,
			FailoverAfter: f.failoverAfter, NoLease: f.noLease, Metrics: f.metrics}); err != nil {
			return fmt.Errorf("%s: %s: %w", f.name, f.id(i), err)
		}
	}
	f.sw[i].to.Store(&to)
	return nil
}

// kill crashes hub i — no Leave, no drain. Its switch goes dark first so
// no redial lands on the closing hub.
func (f *federation) kill(i int) {
	f.sw[i].to.Store(nil)
	if f.nodes[i] != nil {
		f.nodes[i].Close()
	}
	if f.servers[i] != nil {
		f.servers[i].Close()
	}
	if f.hubs[i] != nil {
		f.hubs[i].Close()
	}
	f.nodes[i], f.servers[i], f.hubs[i] = nil, nil, nil
}

func (f *federation) close() {
	for i := range f.hubs {
		f.kill(i)
	}
}

func (f *federation) transports() []immunity.Transport {
	out := make([]immunity.Transport, len(f.sw))
	for i, sw := range f.sw {
		out[i] = sw
	}
	return out
}

func (f *federation) label() string {
	label := "loopback"
	if f.tcp {
		label = "tcp"
	}
	if len(f.hubs) > 1 {
		label = fmt.Sprintf("cluster(%d)+%s", len(f.hubs), label)
	}
	return label
}

func (f *federation) epochs() ([]uint64, error) {
	var out []uint64
	for _, hub := range f.hubs {
		if hub != nil {
			out = append(out, hub.Stats().Epoch)
		}
	}
	return out, nil
}

// armed is the armed-count floor over the first k hubs.
func (f *federation) armed(k int) int {
	n := math.MaxInt
	for _, hub := range f.hubs[:k] {
		if hub != nil {
			n = min(n, hub.ArmedCount())
		}
	}
	return n
}

// see reports whether each of the first k hubs sees n live members.
func (f *federation) see(k, n int) bool {
	for _, node := range f.nodes[:k] {
		if len(node.Members()) != n {
			return false
		}
	}
	return true
}

func (f *federation) provenance() ([]immunity.Provenance, error) {
	var views [][]immunity.Provenance
	for _, hub := range f.hubs {
		if hub != nil {
			views = append(views, hub.Provenance())
		}
	}
	return mergeProvenance(views...), nil
}

func (f *federation) batching() (batches, sigs uint64) {
	for _, hub := range f.hubs {
		if hub != nil {
			st := hub.Stats()
			batches += st.DeltaBatches
			sigs += st.DeltaSignatures
		}
	}
	return batches, sigs
}

func (f *federation) state() string {
	var out string
	for i, hub := range f.hubs {
		if hub == nil {
			out += fmt.Sprintf(" %s{down}", f.id(i))
			continue
		}
		st := hub.Stats()
		out += fmt.Sprintf(" %s{armed:%d parked:%d fenced:%d", f.id(i), st.Epoch, st.Parked, st.Fenced)
		if n := f.nodes[i]; n != nil {
			held, _, lost := n.LeaseStats()
			out += fmt.Sprintf(" members:%d lease:%v lost:%d", len(n.Members()), held, lost)
			for _, ps := range n.Status() {
				out += fmt.Sprintf(" %s[conn:%v last:%d app:%d dup:%d]", ps.ID, ps.Connected, ps.LastApplied, ps.Applied, ps.Duplicates)
			}
		}
		out += "}"
	}
	return out
}

func (f *federation) poll() time.Duration { return localPoll }

// owned returns the keys hub i owns on the full ring.
func (f *federation) owned(i int, keys []string) []string {
	var out []string
	ring := f.nodes[0].Ring()
	for _, key := range keys {
		if ring.Owner(key) == f.id(i) {
			out = append(out, key)
		}
	}
	return out
}

// attach dials n raw devices round-robin over the first k hubs.
func (f *federation) attach(n, k int, prefix string) (stormFleet, error) {
	fleet, err := dialFleet(f.transports()[:k], n, prefix)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.name, err)
	}
	return fleet, nil
}

// settle is phase 1 of chaos and partition, mid-confirmation: the early
// devices (threshold-1 of them) report, and it returns once every
// signature's owner holds their confirmations and every deputy of slice
// — the keys of the hub about to fail — holds the shadow set. The one
// confirmation still missing is then exactly what crosses the threshold
// after the fault.
func (f *federation) settle(w waiter, early stormFleet, sigs []wire.Signature, keys, slice []string) error {
	if len(early) == 0 {
		return nil
	}
	if err := early.reportEach(sigs); err != nil {
		return fmt.Errorf("%s: %w", f.name, err)
	}
	ring := f.nodes[0].Ring()
	_, err := w.until("phase-1 confirmations on every owner and deputy", func() bool {
		held := make(map[string]map[string]int, len(f.hubs)) // hub id → key → confirmations
		for i, hub := range f.hubs {
			held[f.id(i)] = make(map[string]int)
			for _, p := range hub.Provenance() {
				held[f.id(i)][p.Key] = len(p.ConfirmedBy)
			}
		}
		for _, key := range keys {
			if held[ring.Owner(key)][key] < len(early) {
				return false
			}
		}
		for _, key := range slice {
			if _, ok := held[ring.Deputy(key)][key]; !ok {
				return false
			}
		}
		return true
	})
	return err
}

// equivalent is the final check of chaos and partition: every hub armed
// exactly the reference's set, with a delta epoch equal to its armed
// count — a hub's epoch counts its armings, so no failover, replay or
// heal armed anything twice. It returns the stale arm-broadcasts fenced
// across hubs.
func (f *federation) equivalent(ref []string) (fenced uint64, err error) {
	for i, hub := range f.hubs {
		armed := armedKeys(hub)
		if !slices.Equal(armed, ref) {
			return fenced, fmt.Errorf("%s: %s armed set diverged from the single-hub reference (%d vs %d keys)",
				f.name, f.id(i), len(armed), len(ref))
		}
		st := hub.Stats()
		if st.Epoch != uint64(len(armed)) {
			return fenced, fmt.Errorf("%s: %s delta epoch %d != armed count %d (double-arm)", f.name, f.id(i), st.Epoch, len(armed))
		}
		fenced += st.Fenced
	}
	return fenced, nil
}

// reference runs the same fleet's reports against one hub and returns
// its armed keys: the decisions a federation must reproduce under any
// fault.
func reference(name string, devices, threshold int, timeout time.Duration, sigs []wire.Signature) ([]string, error) {
	ref, err := newFederation(fedConfig{name: name + ": reference", threshold: threshold})
	if err != nil {
		return nil, err
	}
	defer ref.close()
	fleet, err := ref.attach(devices, 1, name)
	if err != nil {
		return nil, err
	}
	defer fleet.close()
	if err := fleet.reportEach(sigs); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", name, err)
	}
	w := waiter{ref.name, timeout, ref}
	if _, err := w.until("the full set to arm", func() bool { return ref.armed(1) >= len(sigs) }); err != nil {
		return nil, err
	}
	return armedKeys(ref.hubs[0]), nil
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

// propagationSet is a fleet's report set: the first n propagation
// signatures in wire form, and their keys.
func propagationSet(n int) ([]wire.Signature, []string) {
	sigs, keys := make([]wire.Signature, n), make([]string, n)
	for s := range sigs {
		sig := propagationSig(s)
		sigs[s], keys[s] = wire.FromCore(sig), sig.Key()
	}
	return sigs, keys
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

// remoteHubs is a set of running daemons (immunityd -serve): devices
// dial them over TCP, and every observation is a wire status request.
type remoteHubs struct {
	addrs   []string
	opts    []immunity.TCPOption
	timeout time.Duration
}

// dialHubs parses a comma-separated dial list. A non-nil tlsCfg dials
// every device session and status request under TLS.
func dialHubs(dial string, tlsCfg *tls.Config, timeout time.Duration) (*remoteHubs, error) {
	r := &remoteHubs{timeout: timeout}
	for _, a := range strings.Split(dial, ",") {
		if a = strings.TrimSpace(a); a != "" {
			r.addrs = append(r.addrs, a)
		}
	}
	if len(r.addrs) == 0 {
		return nil, fmt.Errorf("no address in dial list %q", dial)
	}
	if tlsCfg != nil {
		r.opts = []immunity.TCPOption{immunity.WithDialTLS(tlsCfg)}
	}
	return r, nil
}

func (r *remoteHubs) transports() []immunity.Transport {
	out := make([]immunity.Transport, len(r.addrs))
	for i, addr := range r.addrs {
		out[i] = immunity.NewTCPTransport(addr, r.opts...)
	}
	return out
}

func (r *remoteHubs) label() string {
	if r.opts != nil {
		return "client+tls:" + strings.Join(r.addrs, ",")
	}
	return "client:" + strings.Join(r.addrs, ",")
}

func (r *remoteHubs) statuses() ([]wire.Status, error) {
	out := make([]wire.Status, len(r.addrs))
	for i, addr := range r.addrs {
		st, err := immunity.FetchStatus(addr, r.timeout, r.opts...)
		if err != nil {
			return nil, fmt.Errorf("hub %s: %w", addr, err)
		}
		out[i] = st
	}
	return out, nil
}

func (r *remoteHubs) epochs() ([]uint64, error) {
	sts, err := r.statuses()
	out := make([]uint64, len(sts))
	for i, st := range sts {
		out[i] = st.Epoch
	}
	return out, err
}

func (r *remoteHubs) provenance() ([]immunity.Provenance, error) {
	sts, err := r.statuses()
	if err != nil {
		return nil, err
	}
	views := make([][]immunity.Provenance, len(sts))
	for i, st := range sts {
		for _, p := range st.Provenance {
			kind, err := core.ParseSigKind(p.Kind)
			if err != nil {
				return nil, fmt.Errorf("daemon status (newer protocol?): %w", err)
			}
			views[i] = append(views[i], immunity.Provenance{Key: p.Key, Kind: kind, FirstSeen: p.FirstSeen,
				Confirmations: p.Confirmations, ConfirmedBy: p.ConfirmedBy, Armed: p.Armed, Owner: p.Owner, Tenant: p.Tenant})
		}
	}
	return mergeProvenance(views...), nil
}

func (r *remoteHubs) batching() (batches, sigs uint64) {
	sts, _ := r.statuses() // informational: an unreachable daemon adds nothing
	for _, st := range sts {
		batches += st.Batching.Batches
		sigs += st.Batching.Signatures
	}
	return batches, sigs
}

func (r *remoteHubs) state() string {
	sts, err := r.statuses()
	if err != nil {
		return " " + err.Error()
	}
	var out string
	for i, st := range sts {
		out += fmt.Sprintf(" %s{epoch:%d sigs:%d devices:%d}", r.addrs[i], st.Epoch, len(st.Provenance), len(st.Devices))
	}
	return out
}

func (r *remoteHubs) poll() time.Duration { return remotePoll }
func (r *remoteHubs) close()              {}
