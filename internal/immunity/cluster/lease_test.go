package cluster_test

import (
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// The lease tests run a 30 s TTL, so a renewal round opens every 10 s:
// a node that only acquired on the tick would miss every bound below by
// a full tick. The failure budget is long enough that the TTL is not
// clamped and no probe runs during a test.
const (
	leaseTTL      = 30 * time.Second
	leaseFailover = time.Minute
	// leaseBound is how soon after its first possible moment a lease
	// must be held: generous for a loaded box, a tenth of the tick.
	leaseBound = time.Second
)

// gatedDial holds every dial until open is closed, like a peer whose
// address is published only after the dialing node was built.
type gatedDial struct {
	open  chan struct{}
	inner immunity.Transport
}

func (g *gatedDial) Dial(recv func(wire.Message), down func(error)) (immunity.Session, error) {
	<-g.open
	return g.inner.Dial(recv, down)
}

// leaseNode builds a node with the test lease timing.
func leaseNode(t *testing.T, self string, hub *immunity.Exchange, peers ...cluster.Member) *cluster.Node {
	t.Helper()
	node, err := cluster.New(cluster.Config{Self: self, Hub: hub, Peers: peers,
		FailoverAfter: leaseFailover, LeaseTTL: leaseTTL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return node
}

func newHub(t *testing.T) *immunity.Exchange {
	t.Helper()
	hub, err := immunity.NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	return hub
}

// peerAt dials hub as peer hub id over loopback and completes its
// peer-hello: the inbound session a real peer's link would be, through
// which the test speaks for that peer.
func peerAt(t *testing.T, hub *immunity.Exchange, id string) immunity.Session {
	t.Helper()
	sess, err := immunity.NewLoopback(hub).Dial(func(wire.Message) {}, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if err := sess.Send(wire.Message{V: wire.Version, Type: wire.TypePeerHello,
		PeerHello: &wire.PeerHello{Hub: id, MinV: wire.Version, MaxV: wire.Version}}); err != nil {
		t.Fatal(err)
	}
	return sess
}

func sendLeaseAck(t *testing.T, sess immunity.Session, a wire.LeaseAck) {
	t.Helper()
	if err := sess.Send(wire.Message{V: wire.Version, Type: wire.TypeLeaseAck, LeaseAck: &a}); err != nil {
		t.Fatal(err)
	}
}

// await reads what the dialer sent on s until a message of type typ.
func (s *scriptedSession) await(t *testing.T, typ wire.Type, why string) wire.Message {
	t.Helper()
	deadline := time.After(scriptTimeout)
	for {
		select {
		case m := <-s.sent:
			if m.Type == typ {
				return m
			}
		case <-deadline:
			t.Fatalf("no %s within %v: %s", typ, scriptTimeout, why)
			return wire.Message{}
		}
	}
}

// accept completes the next handshake on tr as peer gen and returns its
// session.
func accept(t *testing.T, tr *scriptedTransport, gen string) *scriptedSession {
	t.Helper()
	s := tr.next(t, "the link's dial")
	s.hello(t)
	s.recv(ack(gen, 0))
	return s
}

// TestLeaseAcquiredOnContact: three nodes whose dials are held until
// every node is built — no link is up when the first round opens —
// hold the quorum lease within a second of the dials opening, a tenth
// of the renewal tick.
func TestLeaseAcquiredOnContact(t *testing.T) {
	ids := hubNames(3)
	hubs := make([]*immunity.Exchange, len(ids))
	for i := range hubs {
		hubs[i] = newHub(t)
	}
	open := make(chan struct{})
	nodes := make([]*cluster.Node, len(ids))
	for i := range ids {
		var peers []cluster.Member
		for j := range ids {
			if j != i {
				peers = append(peers, cluster.Member{ID: ids[j],
					Transport: &gatedDial{open: open, inner: immunity.NewLoopback(hubs[j])}})
			}
		}
		nodes[i] = leaseNode(t, ids[i], hubs[i], peers...)
	}
	for _, n := range nodes {
		if n.MayArm() {
			t.Fatalf("%s may arm before any peer link is up", n.SelfID())
		}
	}
	close(open)
	waitWithin(t, leaseBound, "every node holding the lease after the dials opened", func() bool {
		for _, n := range nodes {
			if !n.MayArm() {
				return false
			}
		}
		return true
	})
	for _, n := range nodes {
		if _, acquired, lost := n.LeaseStats(); acquired != 1 || lost != 0 {
			t.Fatalf("%s: acquired %d, lost %d; want 1 and 0", n.SelfID(), acquired, lost)
		}
	}
}

// TestLeaseOwedGrant: a granter whose own link to the requester comes
// up after the request arrived owes the grant and sends it from that
// link's accepted handshake — judged again then, so a granter whose
// membership epoch moved past the requester's meanwhile sends a
// refusal instead.
func TestLeaseOwedGrant(t *testing.T) {
	for _, row := range []struct {
		name string
		// advance moves the granter's epoch while the grant is owed.
		advance bool
	}{
		{"delivered", false},
		{"refused after an epoch advance", true},
	} {
		t.Run(row.name, func(t *testing.T) {
			hub := newHub(t)
			tr := newScriptedTransport()
			tr.setDown(true)
			granter := leaseNode(t, "hub1", hub, cluster.Member{ID: "hub0", Transport: tr})
			req := peerAt(t, hub, "hub0")
			if err := req.Send(wire.Message{V: wire.Version, Type: wire.TypeLease,
				Lease: &wire.Lease{From: "hub0", Epoch: granter.Epoch(), Seq: 7}}); err != nil {
				t.Fatal(err)
			}
			if row.advance {
				before := granter.Epoch()
				granter.PeerSeen("hub9", "hub9:1") // admits a member: the epoch moves
				if granter.Epoch() <= before {
					t.Fatalf("epoch %d did not advance past %d", granter.Epoch(), before)
				}
			}
			tr.setDown(false)
			granter.PeerSeen("hub0", "") // ends the refused dials' backoff
			got := accept(t, tr, "g0").await(t, wire.TypeLeaseAck, "the owed answer on the accepted link")
			if a := got.LeaseAck; a.From != "hub1" || a.Seq != 7 || a.OK == row.advance {
				t.Fatalf("owed answer %+v; want from hub1, seq 7, OK %v", *a, !row.advance)
			}
		})
	}
}

// TestLeaseOneOfThreeNeverAcquiresOnContact: a node of three whose link
// to one peer is up and whose third member is unreachable asks that
// peer at once — but contact is not a grant: with no ack, or with a
// refusal, it holds no lease. Only the peer's grant makes the majority
// of two, and then at once.
func TestLeaseOneOfThreeNeverAcquiresOnContact(t *testing.T) {
	hub := newHub(t)
	trB, trC := newScriptedTransport(), newScriptedTransport()
	trC.setDown(true)
	node := leaseNode(t, "hub0", hub,
		cluster.Member{ID: "hub1", Transport: trB}, cluster.Member{ID: "hub2", Transport: trC})
	ask := accept(t, trB, "g1").await(t, wire.TypeLease, "the ask on contact").Lease
	if ask.From != "hub0" {
		t.Fatalf("ask %+v not from hub0", *ask)
	}
	if node.MayArm() {
		t.Fatal("an accepted link counted as a grant")
	}
	b := peerAt(t, hub, "hub1")
	sendLeaseAck(t, b, wire.LeaseAck{From: "hub1", Epoch: ask.Epoch + 1, Seq: ask.Seq, OK: false})
	if node.MayArm() {
		t.Fatal("a refusal counted as a grant")
	}
	sendLeaseAck(t, b, wire.LeaseAck{From: "hub1", Epoch: ask.Epoch, Seq: ask.Seq, OK: true})
	if !node.MayArm() {
		t.Fatal("two grants of three members did not acquire the lease")
	}
}

// TestLeaseHealReacquiresOnEpochAdvance: the minority side of a healed
// partition asks on contact and is refused — it has not merged the
// partition-era membership yet. The merge advances its epoch, and it
// asks again at once instead of at the next tick.
func TestLeaseHealReacquiresOnEpochAdvance(t *testing.T) {
	hub := newHub(t)
	trB, trC := newScriptedTransport(), newScriptedTransport()
	trC.setDown(true)
	node := leaseNode(t, "hub0", hub,
		cluster.Member{ID: "hub1", Transport: trB}, cluster.Member{ID: "hub2", Transport: trC})
	s := accept(t, trB, "g1")
	first := s.await(t, wire.TypeLease, "the ask on contact").Lease
	b := peerAt(t, hub, "hub1")
	const majorityEpoch = 5
	sendLeaseAck(t, b, wire.LeaseAck{From: "hub1", Epoch: majorityEpoch, Seq: first.Seq, OK: false})
	// The majority's snapshot: it marked hub0 down during the split.
	s.recv(wire.Message{V: wire.Version, Type: wire.TypeMemberUpdate, Member: &wire.MemberUpdate{
		Epoch:   majorityEpoch,
		Members: []wire.MemberInfo{{ID: "hub0", Down: true}, {ID: "hub1"}, {ID: "hub2"}}}})
	again := s.await(t, wire.TypeLease, "the ask after the merge").Lease
	if again.Epoch < majorityEpoch || again.Seq != first.Seq {
		t.Fatalf("ask after the merge %+v; want epoch ≥ %d in round %d", *again, majorityEpoch, first.Seq)
	}
	sendLeaseAck(t, b, wire.LeaseAck{From: "hub1", Epoch: again.Epoch, Seq: again.Seq, OK: true})
	if !node.MayArm() {
		t.Fatal("the healed minority's grant did not acquire the lease")
	}
}
