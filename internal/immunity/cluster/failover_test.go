package cluster_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// switchTransport retargets loopback dials at runtime so a test can
// model a hub crash (Swap(nil): dials fail transiently, peer links keep
// redialing) and restart (Swap(newHub): the next redial lands on the
// reborn Exchange, like a TCP reconnect to a restarted daemon).
type switchTransport struct {
	hub atomic.Pointer[immunity.Exchange]
}

func (s *switchTransport) Dial(recv func(wire.Message), down func(err error)) (immunity.Session, error) {
	hub := s.hub.Load()
	if hub == nil {
		return nil, fmt.Errorf("hub is down")
	}
	sess, err := immunity.NewLoopback(hub).Dial(recv, down)
	if err != nil {
		// %v not %w: strip the loopback's permanent classification — a
		// hub behind a switch can restart.
		return nil, fmt.Errorf("dial: %v", err)
	}
	return sess, nil
}

// switchCluster federates n restartable hubs on the fleet's clock:
// every peer link runs through a switchTransport, and each hub persists
// to its own store so a restart resumes its provenance.
func switchCluster(f *fleet, n, threshold int, failoverAfter time.Duration) (
	hubs []*immunity.Exchange, nodes []*cluster.Node,
	switches []*switchTransport, restart func(i int),
) {
	t := f.t
	t.Helper()
	ids := hubNames(n)
	stores := make([]*immunity.MemProvenance, n)
	switches = make([]*switchTransport, n)
	for i := range switches {
		stores[i] = immunity.NewMemProvenance()
		switches[i] = &switchTransport{}
	}
	hubs = make([]*immunity.Exchange, n)
	nodes = make([]*cluster.Node, n)
	start := func(i int) {
		hub := f.hub(threshold, immunity.WithProvenanceStore(stores[i]))
		var peers []cluster.Member
		for j := range switches {
			if j != i {
				peers = append(peers, cluster.Member{ID: ids[j], Transport: switches[j]})
			}
		}
		node, err := cluster.New(cluster.Config{
			Self: ids[i], Hub: hub, Peers: peers, FailoverAfter: failoverAfter,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close) // before the hub's
		hubs[i], nodes[i] = hub, node
		switches[i].hub.Store(hub)
	}
	for i := range hubs {
		start(i)
	}
	return hubs, nodes, switches, start
}

// provenanceOf returns the hub's provenance entry for key.
func provenanceOf(hub *immunity.Exchange, key string) (immunity.Provenance, bool) {
	for _, p := range hub.Provenance() {
		if p.Key == key {
			return p, true
		}
	}
	return immunity.Provenance{}, false
}

// TestClusterOwnerFailoverDeputyArms is the chaos acceptance scenario,
// scripted: the owner of an in-flight signature is killed
// mid-confirmation (one confirmation short of threshold, the pending
// set replicated to its deputy), the deputy assumes ownership and arms
// at threshold from the inherited set, the deposed owner's stale
// arm-broadcast replay is fenced, and the restarted owner resyncs to
// the same armed state — federation equivalence with zero double-arms.
func TestClusterOwnerFailoverDeputyArms(t *testing.T) {
	f := newFleet(t)
	hubs, nodes, switches, restart := switchCluster(f, 3, 2, 25*time.Millisecond)
	// Owner hub2, deputy hub1; devices attach to hub0, so every report
	// is forwarded and no device session dies with the victim.
	sig := sigOwnedDeputy(t, nodes[0].Ring(), "hub2", "hub1")
	key := sig.Key()
	ws := wire.FromCore(sig)

	// One confirmation: pending at the owner, replicated to the deputy.
	d1 := f.phone("d1", "hub0", hubs[0])
	f.publish(sig, d1)
	f.settle()
	if p, ok := provenanceOf(hubs[2], key); !ok || p.Confirmations != 1 || p.Armed {
		t.Fatalf("owner's entry %+v, want one pending confirmation", p)
	}
	if _, ok := provenanceOf(hubs[1], key); !ok {
		t.Fatal("the deputy holds no replica")
	}
	preEpoch := nodes[0].Epoch()

	// Crash the owner: no leave, no drain.
	switches[2].hub.Store(nil)
	nodes[2].Close()
	hubs[2].Close()
	nodes[2], hubs[2] = nil, nil
	f.within(time.Second, "survivors to fail the owner over to its deputy", func() bool {
		return len(nodes[0].Members()) == 2 && len(nodes[1].Members()) == 2 &&
			nodes[0].Ring().Owner(key) == "hub1"
	})

	// The second confirmation arrives while the owner is dead: only the
	// deputy's inherited set can cross the threshold.
	d2 := f.phone("d2", "hub0", hubs[0])
	f.publish(sig, d2)
	f.within(time.Second, "deputy to arm at threshold from the inherited set", func() bool {
		return hubs[1].ArmedCount() == 1 && hubs[0].ArmedCount() == 1
	})
	p, ok := provenanceOf(hubs[1], key)
	if !ok || !p.Armed || p.Confirmations != 2 {
		t.Fatalf("deputy's armed entry: %+v", p)
	}
	inherited := false
	for _, dev := range p.ConfirmedBy {
		if dev == "d1" {
			inherited = true
		}
	}
	if !inherited {
		t.Fatalf("deputy armed without the replicated confirmation: confirmedBy=%v", p.ConfirmedBy)
	}

	// The deposed owner replays its arm-broadcast stamped with the
	// pre-failover epoch: fenced — refused, not counted, no seq state.
	_, err := hubs[0].InstallRemote(wire.ArmBroadcast{
		Owner: "hub2", Seq: 9, Confirmations: 2, Sig: ws, Fence: preEpoch,
	})
	if !errors.Is(err, immunity.ErrFenced) {
		t.Fatalf("stale owner's replay: err=%v, want ErrFenced", err)
	}
	if got := hubs[0].Stats().Fenced; got != 1 {
		t.Fatalf("fenced count = %d, want 1", got)
	}
	if seq := hubs[0].RemoteSeqs()["hub2"]; seq != 0 {
		t.Fatalf("fenced replay advanced hub2's resume seq to %d", seq)
	}

	// Restart the owner over its own store: it rejoins, takes the key
	// back by handoff, and converges to the same armed state.
	restart(2)
	f.within(5*time.Second, "the restarted owner to rejoin and resync", func() bool {
		for _, n := range nodes {
			if len(n.Members()) != 3 {
				return false
			}
		}
		return hubs[2].ArmedCount() == 1
	})
	for i, hub := range hubs {
		if got := hub.ArmedCount(); got != 1 {
			t.Fatalf("hub%d armed count = %d, want 1", i, got)
		}
		if st := hub.Stats(); st.Epoch != 1 {
			t.Fatalf("hub%d delta epoch = %d, want 1 (double-arm)", i, st.Epoch)
		}
	}
	// And both devices hold the antibody.
	f.within(time.Second, "devices to hold the armed signature", func() bool {
		return d1.holds(key) && d2.holds(key)
	})
}
