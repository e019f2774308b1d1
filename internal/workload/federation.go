// The fleet scenario table and the harness it runs over. Chaos,
// partition, report storm and fleet immunity are rows of one table
// (rows.go): a row is a federation shape, a list of steps and the checks
// it ends with, and Scenario.Run executes any row the same way
// (scenario.go). The steps come from one closed vocabulary — attach,
// report, detect, flood, kill, restart, partition, block, heal, flap,
// wait and check — and are plain functions over one run state.
//
// This file is the harness every row shares:
//
//   - federation: N in-process hubs, each behind its own restartable
//     switch transport, federated into a full mesh of cluster nodes (one
//     hub gets none). A row's shape can give every hub a memory
//     provenance store that survives kill/start (chaos), run every
//     directed peer path through one fault.Network (partition), or
//     serve each hub on a loopback TCP port. A row's 1-hub loopback twin
//     is the reference every equivalence check compares against.
//   - hubView: how a run observes its hubs — a federation directly, or
//     remoteHubs, running daemons seen through wire status requests and
//     parsed from one dial list (a row with Dial set). Both expose the
//     device transports, each hub's wire status (the epochs and the
//     merged provenance every row reads come from it) and a state
//     snapshot.
//   - waiter: the package's one poll loop. Every wait gets the whole
//     Timeout, polls at the period of the view it reads, and a timeout
//     error carries the view's state.
package workload

import (
	"crypto/tls"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/fault"
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

// failoverAfter is every federation's failure-detection budget, the one
// the probe timings derive from: short enough for a test-sized row, long
// enough that a slow scheduler tick does not read as a death.
const failoverAfter = 50 * time.Millisecond

// hubView is how a run observes the hubs it drives: devices attach
// round-robin across transports, and statuses is every live hub's wire
// status, the same page for an in-process hub and a daemon.
type hubView interface {
	transports() []immunity.Transport
	statuses() ([]wire.Status, error)
	state() string
	poll() time.Duration
}

// epochs is each hub's delta epoch: its armed count.
func epochs(v hubView) ([]uint64, error) {
	sts, err := v.statuses()
	out := make([]uint64, len(sts))
	for i, st := range sts {
		out[i] = st.Epoch
	}
	return out, err
}

// provenance is the hubs' merged view: one record per key, the owner's
// (the one carrying the confirmation set, or failing that the highest
// confirmation count) winning.
func provenance(v hubView) ([]wire.SigStatus, error) {
	sts, err := v.statuses()
	var order []string
	best := make(map[string]wire.SigStatus)
	for _, st := range sts {
		for _, p := range st.Provenance {
			old, ok := best[p.Key]
			if !ok {
				order = append(order, p.Key)
			}
			if !ok || len(p.ConfirmedBy) > len(old.ConfirmedBy) || p.Confirmations > old.Confirmations {
				best[p.Key] = p
			}
		}
	}
	out := make([]wire.SigStatus, 0, len(order))
	for _, key := range order {
		out = append(out, best[key])
	}
	return out, err
}

// waiter is the package's one poll loop.
type waiter struct {
	timeout time.Duration
	view    hubView
}

// until polls cond until it holds, for at most the whole timeout, and
// returns the moment it held.
func (w waiter) until(what string, cond func() bool) (time.Time, error) {
	deadline := time.Now().Add(w.timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("timed out waiting for %s;%s", what, w.view.state())
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
	name      string // the row's, prefixing its errors
	hubs      int    // 0 or 1 = a single hub, no cluster
	threshold int
	durable   bool // a memory provenance store per hub, kept across kill/start
	faults    bool // every directed peer path through federation.net
	tcp       bool // serve each hub on a loopback TCP port
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
	if f.stores[i] != nil {
		opts = append(opts, immunity.WithProvenanceStore(f.stores[i]))
	}
	hub, err := immunity.NewExchange(f.threshold, opts...)
	if err != nil {
		return fmt.Errorf("%s: %w", f.id(i), err)
	}
	f.hubs[i] = hub
	var to immunity.Transport = immunity.NewLoopback(hub)
	if f.tcp {
		if f.servers[i], err = immunity.ServeTCP(hub, "127.0.0.1:0"); err != nil {
			return fmt.Errorf("%s: %w", f.id(i), err)
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
			FailoverAfter: failoverAfter}); err != nil {
			return fmt.Errorf("%s: %w", f.id(i), err)
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

func (f *federation) statuses() ([]wire.Status, error) {
	var out []wire.Status
	for _, hub := range f.hubs {
		if hub != nil {
			out = append(out, hub.Status())
		}
	}
	return out, nil
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

// armedKeys returns the armed keys of a provenance view, sorted.
func armedKeys(provs []wire.SigStatus) []string {
	var keys []string
	for _, p := range provs {
		if p.Armed {
			keys = append(keys, p.Key)
		}
	}
	sort.Strings(keys)
	return keys
}

// propagationSet is a row's report set: the first n propagation
// signatures in wire form, and their keys.
func propagationSet(n int) ([]wire.Signature, []string) {
	sigs, keys := make([]wire.Signature, n), make([]string, n)
	for s := range sigs {
		sig := propagationSig(s)
		sigs[s], keys[s] = wire.FromCore(sig), sig.Key()
	}
	return sigs, keys
}

// propagationSig builds the i-th synthetic signature (hot site paired
// with a cold never-executed one, as in the §5 methodology).
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
