package cluster_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// testSig builds a deterministic two-party deadlock signature.
func testSig(id int) *core.Signature {
	a := core.Frame{Class: "com.app.Svc1", Method: "methodA", Line: 10 + id*100}
	b := core.Frame{Class: "com.app.Svc2", Method: "methodB", Line: 20 + id*100}
	return &core.Signature{
		Kind: core.DeadlockSig,
		Pairs: []core.SigPair{
			{Outer: core.CallStack{a}, Inner: core.CallStack{a}},
			{Outer: core.CallStack{b}, Inner: core.CallStack{b}},
		},
	}
}

// sigOwnedBy scans signature ids until the ring assigns one to owner —
// tests that need a known owner pick their signature this way instead
// of hardcoding hash outcomes.
func sigOwnedBy(t *testing.T, r *cluster.Ring, owner string) *core.Signature {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if sig := testSig(i); r.Owner(sig.Key()) == owner {
			return sig
		}
	}
	t.Fatalf("no test signature owned by %s in 10000 tries", owner)
	return nil
}

// sigOwnedDeputy finds a test signature with a specific owner AND a
// specific deputy — for tests that must steer a device's reports
// through a hub that holds no replica of the confirmation set.
func sigOwnedDeputy(t *testing.T, r *cluster.Ring, owner, deputy string) *core.Signature {
	t.Helper()
	for i := 0; i < 10000; i++ {
		sig := testSig(i)
		if r.Owner(sig.Key()) == owner && r.Deputy(sig.Key()) == deputy {
			return sig
		}
	}
	t.Fatalf("no test signature owned by %s with deputy %s in 10000 tries", owner, deputy)
	return nil
}

// waitFor polls until cond or a generous deadline (1-CPU CI with many
// goroutines converges slowly; the deadline only bounds how long a
// genuine failure takes to report).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitWithin(t, 30*time.Second, what, cond)
}

// waitWithin polls until cond, failing once d has passed: for waits
// whose bound is the claim under test.
func waitWithin(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("%s: not within %v", what, d)
}

// phone is one simulated device: its service and exchange client.
type phone struct {
	svc    *immunity.Service
	client *immunity.ExchangeClient
}

// newPhone connects a device through the given transport.
func newPhone(t *testing.T, name string, tr immunity.Transport) *phone {
	t.Helper()
	svc, err := immunity.NewService(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := immunity.Connect(tr, name, svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); svc.Close() })
	return &phone{svc: svc, client: client}
}

// holds reports whether the phone's service holds the signature key.
func (p *phone) holds(key string) bool {
	sigs, _, err := p.svc.Snapshot()
	if err != nil {
		return false
	}
	for _, sig := range sigs {
		if sig.Key() == key {
			return true
		}
	}
	return false
}

// hubNames builds n cluster ids hub0..hub{n-1}.
func hubNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("hub%d", i)
	}
	return out
}

// loopbackCluster federates n in-process hubs over loopback transports.
func loopbackCluster(t *testing.T, n, threshold int) ([]*immunity.Exchange, []*cluster.Node) {
	t.Helper()
	ids := hubNames(n)
	hubs := make([]*immunity.Exchange, n)
	for i := range hubs {
		hub, err := immunity.NewExchange(threshold)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(hub.Close)
		hubs[i] = hub
	}
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		var peers []cluster.Member
		for j := range hubs {
			if j != i {
				peers = append(peers, cluster.Member{ID: ids[j], Transport: immunity.NewLoopback(hubs[j])})
			}
		}
		node, err := cluster.New(cluster.Config{Self: ids[i], Hub: hubs[i], Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
	}
	return hubs, nodes
}

// TestNewRefusesSeedWithoutTransport: every seed member comes with the
// transport that reaches it; only members discovered at runtime go
// through Config.Resolve.
func TestNewRefusesSeedWithoutTransport(t *testing.T) {
	hub, err := immunity.NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	resolve := func(wire.MemberInfo) immunity.Transport { return immunity.NewLoopback(hub) }
	if _, err := cluster.New(cluster.Config{Self: "a", Hub: hub, Peers: []cluster.Member{{ID: "b"}},
		Resolve: resolve}); err == nil || !strings.Contains(err.Error(), "no transport") {
		t.Fatalf("seed member without a transport: err = %v", err)
	}
}

// TestClusterGatesAtOwnerAndPropagates: devices split across a 3-hub
// loopback cluster confirm the same deadlock; below threshold nothing
// arms anywhere, at threshold the owner arms and every hub — and every
// attached device — receives it.
func TestClusterGatesAtOwnerAndPropagates(t *testing.T) {
	hubs, nodes := loopbackCluster(t, 3, 2)
	sig := testSig(0)
	key := sig.Key()
	owner := nodes[0].Ring().Owner(key)

	phones := make([]*phone, 3)
	for i := range phones {
		phones[i] = newPhone(t, fmt.Sprintf("phone%d", i), immunity.NewLoopback(hubs[i]))
	}

	// First confirmation, from a phone attached to hub0 (owner or not).
	if _, _, err := phones[0].svc.Publish("local", sig); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "owner sees first confirmation", func() bool {
		for _, hub := range hubs {
			for _, p := range hub.Provenance() {
				if p.Key == key && p.Confirmations == 1 {
					return true
				}
			}
		}
		return false
	})
	time.Sleep(20 * time.Millisecond)
	for i, hub := range hubs {
		if hub.ArmedCount() != 0 {
			t.Fatalf("hub%d armed below the confirmation threshold", i)
		}
	}
	for i, p := range phones[1:] {
		if p.holds(key) {
			t.Fatalf("phone%d holds the signature below the confirmation threshold", i+1)
		}
	}

	// Second confirmation from a different hub completes the threshold.
	if _, _, err := phones[1].svc.Publish("local", sig); err != nil {
		t.Fatal(err)
	}
	for i, hub := range hubs {
		h := hub
		waitFor(t, fmt.Sprintf("hub%d armed", i), func() bool { return h.ArmedCount() == 1 })
	}
	for i, p := range phones {
		ph := p
		waitFor(t, fmt.Sprintf("phone%d armed", i), func() bool { return ph.holds(key) })
	}

	// The owner holds the full provenance (2 distinct confirmers); every
	// other hub holds a replicated armed entry attributed to the owner.
	for i, hub := range hubs {
		provs := hub.Provenance()
		var found *immunity.Provenance
		for j := range provs {
			if provs[j].Key == key {
				found = &provs[j]
			}
		}
		if found == nil || !found.Armed {
			t.Fatalf("hub%d: signature not armed in provenance: %+v", i, provs)
		}
		if found.Owner != owner {
			t.Fatalf("hub%d: owner = %q, want %q", i, found.Owner, owner)
		}
		if hubNames(3)[i] == owner {
			if found.Confirmations != 2 || len(found.ConfirmedBy) != 2 {
				t.Fatalf("owner %s: confirmations = %d (%v), want 2 distinct", owner, found.Confirmations, found.ConfirmedBy)
			}
		} else if len(found.ConfirmedBy) != 0 {
			t.Fatalf("non-owner hub%d replicated the confirmation set: %v", i, found.ConfirmedBy)
		}
	}
}

// TestClusterForwardedReportNeverDoubleCounts: a device whose report
// travels through a non-owner hub counts exactly once at the owner, no
// matter how many times the device reconnects and re-reports.
func TestClusterForwardedReportNeverDoubleCounts(t *testing.T) {
	hubs, nodes := loopbackCluster(t, 3, 3)
	// A signature owned by hub1 with deputy hub2, reported by a device
	// attached to hub0: every report takes the forwarding path (hub0,
	// holding no deputy replica of the set, can never echo it locally).
	sig := sigOwnedDeputy(t, nodes[0].Ring(), "hub1", "hub2")
	key := sig.Key()

	svc, err := immunity.NewService("roamer", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	client, err := immunity.Connect(immunity.NewLoopback(hubs[0]), "roamer", svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Publish("local", sig); err != nil {
		t.Fatal(err)
	}
	confirmsAtOwner := func() int {
		for _, p := range hubs[1].Provenance() {
			if p.Key == key {
				return p.Confirmations
			}
		}
		return 0
	}
	waitFor(t, "owner counts the forwarded confirmation", func() bool { return confirmsAtOwner() == 1 })

	// Reconnect twice: each reconnect re-reports the full local history
	// through hub0, which forwards again; the owner must still count one.
	for i := 0; i < 2; i++ {
		client.Close()
		client, err = immunity.Connect(immunity.NewLoopback(hubs[0]), "roamer", svc)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "re-report reaches the owner", func() bool {
			return hubs[1].Stats().Reports >= uint64(2+i)
		})
	}
	defer client.Close()
	time.Sleep(20 * time.Millisecond)
	if got := confirmsAtOwner(); got != 1 {
		t.Fatalf("confirmations after re-reports = %d, want 1 (double-counted a forwarded report)", got)
	}

	// And the same device roaming to the owner directly still counts once.
	client.Close()
	client, err = immunity.Connect(immunity.NewLoopback(hubs[1]), "roamer", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	time.Sleep(20 * time.Millisecond)
	if got := confirmsAtOwner(); got != 1 {
		t.Fatalf("confirmations after roaming to the owner = %d, want 1", got)
	}
	if hubs[1].ArmedCount() != 0 {
		t.Fatal("armed below threshold")
	}
}

// tcpHub serves one hub over TCP and returns its address.
func tcpHub(t *testing.T, hub *immunity.Exchange, addr string) (*immunity.ExchangeServer, string) {
	t.Helper()
	srv, err := immunity.ServeTCP(hub, addr)
	if err != nil {
		t.Fatal(err)
	}
	return srv, srv.Addr()
}

// TestClusterOwnerRestartPreservesConfirmations: the owner hub dies
// after two of three confirmations and comes back over the same
// provenance store; the third confirmation — forwarded through a
// non-owner — must arm, proving the forwarded counts survived the
// restart via the owner's provenance log.
func TestClusterOwnerRestartPreservesConfirmations(t *testing.T) {
	store := immunity.NewMemProvenance()

	hubA, err := immunity.NewExchange(3)
	if err != nil {
		t.Fatal(err)
	}
	defer hubA.Close()
	srvA, addrA := tcpHub(t, hubA, "127.0.0.1:0")
	defer srvA.Close()

	hubB, err := immunity.NewExchange(3, immunity.WithProvenanceStore(store))
	if err != nil {
		t.Fatal(err)
	}
	srvB, addrB := tcpHub(t, hubB, "127.0.0.1:0")

	nodeA, err := cluster.New(cluster.Config{Self: "hubA", Hub: hubA,
		Peers: []cluster.Member{{ID: "hubB", Transport: immunity.NewTCPTransport(addrB)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := cluster.New(cluster.Config{Self: "hubB", Hub: hubB,
		Peers: []cluster.Member{{ID: "hubA", Transport: immunity.NewTCPTransport(addrA)}}})
	if err != nil {
		t.Fatal(err)
	}

	sig := sigOwnedBy(t, nodeA.Ring(), "hubB")
	key := sig.Key()
	confirmsAtOwner := func(hub *immunity.Exchange) int {
		for _, p := range hub.Provenance() {
			if p.Key == key {
				return p.Confirmations
			}
		}
		return 0
	}

	// d1 through the non-owner (forwarded), d2 directly at the owner.
	d1 := newPhone(t, "d1", immunity.NewTCPTransport(addrA))
	d2 := newPhone(t, "d2", immunity.NewTCPTransport(addrB))
	if _, _, err := d1.svc.Publish("local", sig); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.svc.Publish("local", sig); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "owner counts two confirmations", func() bool { return confirmsAtOwner(hubB) == 2 })

	// Owner restarts: node, server, hub all die; a new incarnation
	// resumes from the same store on the same address.
	nodeB.Close()
	srvB.Close()
	hubB.Close()
	hubB2, err := immunity.NewExchange(3, immunity.WithProvenanceStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer hubB2.Close()
	srvB2, err := immunity.ServeTCP(hubB2, addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB2.Close()
	nodeB2, err := cluster.New(cluster.Config{Self: "hubB", Hub: hubB2,
		Peers: []cluster.Member{{ID: "hubA", Transport: immunity.NewTCPTransport(addrA)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB2.Close()

	if got := confirmsAtOwner(hubB2); got != 2 {
		t.Fatalf("restarted owner resumed %d confirmations, want 2", got)
	}

	// The third, threshold-completing confirmation arrives through the
	// non-owner hub — whose link redials the restarted owner on its own.
	d3 := newPhone(t, "d3", immunity.NewTCPTransport(addrA))
	if _, _, err := d3.svc.Publish("local", sig); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restarted owner arms at the threshold", func() bool { return hubB2.ArmedCount() == 1 })
	waitFor(t, "arming reaches the non-owner hub", func() bool { return hubA.ArmedCount() == 1 })
	for _, p := range []*phone{d1, d2, d3} {
		ph := p
		waitFor(t, "devices armed", func() bool { return ph.holds(key) })
	}
	if got := confirmsAtOwner(hubB2); got != 3 {
		t.Fatalf("owner confirmations after arming = %d, want 3", got)
	}
}

// TestClusterPartitionResubscribesFromSeq: a peer partitioned away from
// an owner misses some armings; on reconnect it replays exactly the
// missed ones — no duplicates, no gaps.
func TestClusterPartitionResubscribesFromSeq(t *testing.T) {
	hubA, err := immunity.NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	defer hubA.Close()
	srvA, addrA := tcpHub(t, hubA, "127.0.0.1:0")
	defer srvA.Close()
	hubB, err := immunity.NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	defer hubB.Close()
	srvB, addrB := tcpHub(t, hubB, "127.0.0.1:0")

	nodeA, err := cluster.New(cluster.Config{Self: "hubA", Hub: hubA,
		Peers: []cluster.Member{{ID: "hubB", Transport: immunity.NewTCPTransport(addrB)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := cluster.New(cluster.Config{Self: "hubB", Hub: hubB,
		Peers: []cluster.Member{{ID: "hubA", Transport: immunity.NewTCPTransport(addrA)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	// Three distinct signatures all owned by hubB, armed on first report.
	var sigs []*core.Signature
	for i := 0; len(sigs) < 3 && i < 10000; i++ {
		if sig := testSig(i); nodeA.Ring().Owner(sig.Key()) == "hubB" {
			sigs = append(sigs, sig)
		}
	}
	if len(sigs) < 3 {
		t.Fatal("not enough hubB-owned signatures")
	}

	// The device rides loopback so the TCP bounce below partitions only
	// the hub-to-hub link, not the device's own session.
	dB := newPhone(t, "dB", immunity.NewLoopback(hubB))
	if _, _, err := dB.svc.Publish("local", sigs[0]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first arming replicated to hubA", func() bool { return hubA.ArmedCount() == 1 })

	// Partition: every socket into hubB dies (hubA's link included) and
	// the listener bounces. While partitioned, hubB arms two more.
	srvB.Close()
	for _, sig := range sigs[1:] {
		if _, _, err := dB.svc.Publish("local", sig); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "owner armed all three during the partition", func() bool { return hubB.ArmedCount() == 3 })
	if hubA.ArmedCount() != 1 {
		t.Fatalf("partitioned hub advanced to %d armings", hubA.ArmedCount())
	}

	srvB2, err := immunity.ServeTCP(hubB, addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB2.Close()

	waitFor(t, "reconnected peer replayed the missed armings", func() bool { return hubA.ArmedCount() == 3 })
	peerB := func() PeerStatusOf {
		for _, ps := range nodeA.Status() {
			if ps.ID == "hubB" {
				return PeerStatusOf{ps, true}
			}
		}
		return PeerStatusOf{}
	}
	// The cursor merge trails the installs by one handshake step
	// (replay received mid-handshake is merged when dial accepts the
	// session), so poll for the settled value rather than sampling.
	waitFor(t, "peer cursor settled at 3", func() bool {
		ps := peerB()
		return ps.ok && ps.LastApplied == 3
	})
	ps := peerB()
	if ps.Applied != 3 || ps.Duplicates != 0 {
		t.Errorf("replay applied %d broadcasts with %d duplicates, want exactly the 3 missed and 0 duplicates",
			ps.Applied, ps.Duplicates)
	}
}

// PeerStatusOf wraps an optional peer status lookup.
type PeerStatusOf struct {
	cluster.PeerStatus
	ok bool
}

// dupTransport delivers every arm-broadcast twice; the link counts the
// second copy as a replay.
type dupTransport struct{ immunity.Transport }

func (d dupTransport) Dial(recv func(wire.Message), down func(error)) (immunity.Session, error) {
	return d.Transport.Dial(func(m wire.Message) {
		recv(m)
		if m.Type == wire.TypeArmBroadcast {
			recv(m)
		}
	}, down)
}

// TestPeerStatusReadsTheMetrics: a node built without Config.Metrics
// counts on its hub's registry, and each PeerStatus count is the
// per-peer series /metrics renders there, not a second count kept
// beside it.
func TestPeerStatusReadsTheMetrics(t *testing.T) {
	hubs := make([]*immunity.Exchange, 2)
	for i := range hubs {
		hub, err := immunity.NewExchange(1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(hub.Close)
		hubs[i] = hub
	}
	node0, err := cluster.New(cluster.Config{Self: "hub0", Hub: hubs[0],
		Peers: []cluster.Member{{ID: "hub1", Transport: immunity.NewLoopback(hubs[1])}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node0.Close)
	node1, err := cluster.New(cluster.Config{Self: "hub1", Hub: hubs[1],
		Peers: []cluster.Member{{ID: "hub0", Transport: dupTransport{immunity.NewLoopback(hubs[0])}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node1.Close)

	// One arming owned by each hub: hub1 applies hub0's and then its
	// replay, hub0 applies hub1's once.
	for i, owner := range []string{"hub0", "hub1"} {
		p := newPhone(t, fmt.Sprintf("phone%d", i), immunity.NewLoopback(hubs[i]))
		if _, _, err := p.svc.Publish("local", sigOwnedBy(t, node0.Ring(), owner)); err != nil {
			t.Fatal(err)
		}
	}
	counts := func(n *cluster.Node) (applied, duplicates uint64) {
		ps := n.Status()[0]
		return ps.Applied, ps.Duplicates
	}
	waitFor(t, "hub1 to apply hub0's arming and its replay", func() bool {
		a, d := counts(node1)
		return a == 1 && d == 1
	})
	waitFor(t, "hub0 to apply hub1's arming", func() bool {
		a, _ := counts(node0)
		return a == 1
	})
	for i, n := range []*cluster.Node{node0, node1} {
		var page strings.Builder
		if err := hubs[i].Metrics().WritePrometheus(&page); err != nil {
			t.Fatal(err)
		}
		for _, ps := range n.Status() {
			for _, line := range []string{
				fmt.Sprintf("immunity_cluster_applied_total{peer=%q} %d\n", ps.ID, ps.Applied),
				fmt.Sprintf("immunity_cluster_duplicates_total{peer=%q} %d\n", ps.ID, ps.Duplicates),
			} {
				if !strings.Contains(page.String(), line) {
					t.Errorf("hub%d: PeerStatus %+v, but its /metrics page lacks %q", i, ps, line)
				}
			}
		}
	}
}

// flappyTransport accepts every dial and completes the peer handshake
// with an OK ack — then immediately drops the session. The worst kind
// of peer for the redial loop: the handshake keeps succeeding, so a
// backoff reset on handshake success redials at the 5ms floor forever.
type flappyTransport struct {
	dials atomic.Uint64
	// dialed carries each dial's time; sized so a redial hammer fills it
	// instead of blocking the link.
	dialed chan time.Time
}

type flappySession struct {
	recv func(wire.Message)
	down func(error)
}

func (f *flappyTransport) Dial(recv func(wire.Message), down func(err error)) (immunity.Session, error) {
	f.dials.Add(1)
	select {
	case f.dialed <- time.Now():
	default:
	}
	return &flappySession{recv: recv, down: down}, nil
}

func (s *flappySession) Send(m wire.Message) error {
	if m.Type == wire.TypePeerHello {
		s.recv(wire.Message{V: m.V, Type: wire.TypeAck,
			Ack: &wire.Ack{OK: true, Epoch: 0, Gen: "flap-gen", V: wire.Version}})
		s.down(errors.New("peer dropped the session right after the handshake"))
	}
	return nil
}

func (s *flappySession) Close() error { return nil }

// TestClusterFlappingPeerBacksOff: a peer that acks the handshake and
// instantly drops must be redialed with growing backoff, not hammered
// at the 5ms floor — after k short-lived sessions the k-th wait is at
// least floor·2^(k-1), jittered down to half at most. The dial counter
// in the metrics registry is how an operator sees the hammer is gone.
// (TestRedialHandshakeTable's ack-then-drop row holds the device tier
// to the same bound; the rule itself is immunity's nextBackoff table.)
func TestClusterFlappingPeerBacksOff(t *testing.T) {
	hub, err := immunity.NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	reg := metrics.NewRegistry()
	flappy := &flappyTransport{dialed: make(chan time.Time, 1024)}
	node, err := cluster.New(cluster.Config{
		Self:    "hub0",
		Hub:     hub,
		Peers:   []cluster.Member{{ID: "flappy", Transport: flappy}},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)

	prev := <-flappy.dialed
	for k := 1; k <= 5; k++ {
		// The session dropped inside the hello's Send, so the gap between
		// two dials is no shorter than the wait between them.
		at := <-flappy.dialed
		if wait, min := at.Sub(prev), redialFloor<<(k-1)/2; wait < min {
			t.Fatalf("redial %d came %v after the previous dial, want ≥ %v — the redial hammer is back", k, wait, min)
		}
		prev = at
	}
	node.Close() // no dial past here: the counts below are final
	dials := flappy.dials.Load()
	metDials := reg.CounterVec("immunity_cluster_peer_dials_total",
		"Dial attempts per peer link (first dial included).", "peer").With("flappy").Value()
	if metDials != dials {
		t.Fatalf("registry counted %d dials, transport saw %d", metDials, dials)
	}
	if st := node.Status()[0]; st.ID != "flappy" || st.Dials != dials {
		t.Fatalf("PeerStatus = %+v, transport saw %d dials", st, dials)
	}
}

// staleVersionTransport answers every peer-hello with an OK ack at a
// version other than wire.Version and then keeps the session open,
// counting whatever the node sends on it afterwards.
type staleVersionTransport struct {
	dials  atomic.Uint64
	direct atomic.Uint64 // lease/ping messages received on any session
}

type staleVersionSession struct {
	t    *staleVersionTransport
	recv func(wire.Message)
}

func (f *staleVersionTransport) Dial(recv func(wire.Message), down func(err error)) (immunity.Session, error) {
	f.dials.Add(1)
	return &staleVersionSession{t: f, recv: recv}, nil
}

func (s *staleVersionSession) Send(m wire.Message) error {
	switch m.Type {
	case wire.TypePeerHello:
		s.recv(wire.Message{V: wire.Version - 1, Type: wire.TypeAck,
			Ack: &wire.Ack{OK: true, Gen: "stale-gen", V: wire.Version - 1}})
	case wire.TypeLease, wire.TypePing:
		s.t.direct.Add(1)
	}
	return nil
}

func (s *staleVersionSession) Close() error { return nil }

// TestClusterWrongVersionAckNeverTrusted: a peer whose handshake ack
// names any version but wire.Version is a failed handshake, not a
// link. Its session is never installed (so it is sent no lease or
// probe), its open socket grants no lease — in a two-member cluster
// the node therefore never assembles a majority and never may arm —
// and it answers no probe, so the failure detector marks it down.
func TestClusterWrongVersionAckNeverTrusted(t *testing.T) {
	hub, err := immunity.NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	stale := &staleVersionTransport{}
	node, err := cluster.New(cluster.Config{
		Self:          "hub0",
		Hub:           hub,
		Peers:         []cluster.Member{{ID: "stale", Transport: stale}},
		FailoverAfter: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)

	peer := func() cluster.PeerStatus {
		for _, ps := range node.Status() {
			if ps.ID == "stale" {
				return ps
			}
		}
		t.Fatal("no link to the stale peer")
		return cluster.PeerStatus{}
	}
	// The suspicion window is never shorter than the lease TTL, so by
	// the time the peer is condemned several lease rounds have run.
	waitFor(t, "wrong-version peer marked down", func() bool {
		if peer().Connected {
			t.Fatal("wrong-version session installed as a live link")
		}
		return peer().Down
	})
	if stale.dials.Load() < 2 {
		t.Fatalf("failed handshake was not redialed (%d dials)", stale.dials.Load())
	}
	if held, acquired, _ := node.LeaseStats(); held || acquired != 0 || node.MayArm() {
		t.Fatalf("lease held=%v acquired=%d mayArm=%v on the word of a wrong-version peer", held, acquired, node.MayArm())
	}
	if n := stale.direct.Load(); n != 0 {
		t.Fatalf("%d lease/probe messages sent over a session that failed its handshake", n)
	}
}
