package cluster_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/clock"
	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/fault"
)

// fleet is a federation on one mock clock: every machine of its hubs,
// nodes and devices runs on the test goroutine, time moves only when the
// test moves it, and every path runs through one fault network.
type fleet struct {
	t          *testing.T
	clk        *clock.Mock
	net        *fault.Network
	goroutines int // when the fleet was built
}

// fleetStart is every fleet's t0: with the mock's seed sequence it seeds
// every redialer's jitter, so a fleet replays the same waits each run.
var fleetStart = time.Unix(1_000_000, 0)

func newFleet(t *testing.T) *fleet {
	return &fleet{t: t, clk: clock.NewMock(fleetStart), net: fault.NewNetwork(), goroutines: runtime.NumGoroutine()}
}

// hub builds a hub on the fleet's clock; Cleanup closes it.
func (f *fleet) hub(threshold int, opts ...immunity.ExchangeOption) *immunity.Exchange {
	f.t.Helper()
	return newHub(f.t, threshold, append(opts, immunity.WithClock[immunity.ExchangeOption](f.clk))...)
}

// cluster federates n hubs, hub<i> each, with the given
// failure-detection budget (0: none), every peer path through the
// network; Cleanup closes them.
func (f *fleet) cluster(n, threshold int, failoverAfter time.Duration, opts ...immunity.ExchangeOption) ([]*immunity.Exchange, []*cluster.Node) {
	f.t.Helper()
	ids := hubNames(n)
	hubs := make([]*immunity.Exchange, n)
	for i := range hubs {
		hubs[i] = f.hub(threshold, opts...)
	}
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		var peers []cluster.Member
		for j := range hubs {
			if j != i {
				peers = append(peers, cluster.Member{ID: ids[j],
					Transport: f.net.Wrap(ids[i], ids[j], immunity.NewLoopback(hubs[j]))})
			}
		}
		node, err := cluster.New(cluster.Config{Self: ids[i], Hub: hubs[i], Peers: peers, FailoverAfter: failoverAfter})
		if err != nil {
			f.t.Fatal(err)
		}
		f.t.Cleanup(node.Close)
		nodes[i] = node
	}
	f.settle()
	return hubs, nodes
}

// phone connects a new device on the fleet's clock to hub, whose id is
// hubID, through the network.
func (f *fleet) phone(name, hubID string, hub *immunity.Exchange, opts ...immunity.ClientOption) *phone {
	f.t.Helper()
	svc := newService(f.t, name)
	return &phone{svc: svc, client: f.connect(svc, name, hubID, hub, opts...)}
}

// connect attaches svc to hub as device name, on the fleet's clock.
func (f *fleet) connect(svc *immunity.Service, name, hubID string, hub *immunity.Exchange, opts ...immunity.ClientOption) *immunity.ExchangeClient {
	f.t.Helper()
	return connect(f.t, f.net.Wrap(name, hubID, immunity.NewLoopback(hub)), name, svc,
		append(opts, immunity.WithClock[immunity.ClientOption](f.clk))...)
}

// publish records a local detection of sig on each phone.
func (f *fleet) publish(sig *core.Signature, phones ...*phone) {
	f.t.Helper()
	for _, p := range phones {
		if _, _, err := p.svc.Publish("local", sig); err != nil {
			f.t.Fatal(err)
		}
	}
}

// settle steps every machine until none has work at the current time,
// and fails if a goroutine was added since the fleet was built: every
// machine must run on the test goroutine.
func (f *fleet) settle() {
	f.t.Helper()
	if f.clk.Run(); runtime.NumGoroutine() > f.goroutines {
		f.t.Fatalf("%d goroutines, %d when the fleet was built: a machine ran off the test goroutine", runtime.NumGoroutine(), f.goroutines)
	}
}

// within moves virtual time a millisecond at a time until cond holds,
// failing once d has passed; it returns how long that took.
func (f *fleet) within(d time.Duration, what string, cond func() bool) time.Duration {
	f.t.Helper()
	start := f.clk.Now()
	for f.settle(); !cond(); f.settle() {
		if took := f.clk.Now().Sub(start); took >= d {
			f.t.Fatalf("%s: not within %v of virtual time", what, d)
		}
		f.clk.Add(time.Millisecond)
	}
	return f.clk.Now().Sub(start)
}

// armedOnce reports whether hub armed each of its keys exactly once,
// locally or from a peer, and pushed each to its devices once.
func armedOnce(hub *immunity.Exchange) bool {
	armed := hub.Metrics().Counter("immunity_hub_armed_total", "").Value()
	n := uint64(hub.ArmedCount())
	return armed == n && hub.Stats().Epoch == n
}

// fleetLog is the first run's event log of TestFleetInVirtualTime;
// every later run in the process (-count) must write the same one.
var fleetLog string

// TestFleetInVirtualTime is the fleet's whole path on one goroutine in
// virtual time: 3 hubs with failure detection and the lease, 4 devices,
// threshold 2, every path through a fault network. Act one: two reports
// are forwarded to the owner, confirmed, armed, broadcast and installed
// on every device. Act two: the owner is partitioned away with its two
// devices; the survivors detect it, promote the deputy, and arm a
// second key reported on their side, while the owner loses its lease
// and arms nothing although its own devices report a third key at
// threshold. Act three: the heal, after which every hub and device
// holds all three keys, each armed once on every hub and decided on
// one hub only. After every step of every act no goroutine has been
// added: every machine runs on the test goroutine.
func TestFleetInVirtualTime(t *testing.T) {
	f := newFleet(t)
	hubs, nodes := f.cluster(3, 2, 40*time.Millisecond)
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	allHold := func(key string, phones ...*phone) bool {
		return !slices.ContainsFunc(phones, func(p *phone) bool { return !p.holds(key) })
	}
	logf("leases after %v", f.within(time.Second, "every hub to hold the lease", func() bool {
		return !slices.ContainsFunc(nodes, func(n *cluster.Node) bool { return !n.MayArm() })
	}))

	// hub0 owns every key; hub1 is their deputy.
	sig1 := sigOwnedDeputy(t, nodes[0].Ring(), "hub0", "hub1")
	sig2 := sigOwnedDeputy(t, nodes[0].Ring(), "hub0", "hub1", sig1)
	sig3 := sigOwnedDeputy(t, nodes[0].Ring(), "hub0", "hub1", sig1, sig2)
	d0, d1 := f.phone("d0", "hub0", hubs[0]), f.phone("d1", "hub0", hubs[0])
	d2, d3 := f.phone("d2", "hub1", hubs[1]), f.phone("d3", "hub2", hubs[2])
	phones := []*phone{d0, d1, d2, d3}

	// Act one: two reports, forwarded from hub1 and hub2 to the owner.
	f.publish(sig1, d2, d3)
	logf("sig1 installed after %v", f.within(time.Second, "every device to install sig1",
		func() bool { return allHold(sig1.Key(), phones...) }))

	// Act two: the owner and its devices are cut off. Each side's
	// devices then report a key of their own, at threshold.
	f.net.Partition([]string{"hub0", "d0", "d1"}, []string{"hub1", "hub2", "d2", "d3"})
	logf("deputy promoted after %v", f.within(time.Second, "the survivors to fail hub0 over to hub1", func() bool {
		return nodes[1].OwnerOf(sig2.Key()) == "hub1" && nodes[2].OwnerOf(sig2.Key()) == "hub1"
	}))
	logf("minority lease lost after %v", f.within(time.Second, "hub0 to lose its lease",
		func() bool { return !nodes[0].MayArm() }))
	f.publish(sig2, d2, d3)
	f.publish(sig3, d0, d1)
	logf("sig2 installed on the majority after %v", f.within(time.Second, "the majority to install sig2",
		func() bool { return allHold(sig2.Key(), d2, d3) && hubs[2].ArmedCount() == 2 }))
	f.clk.Add(200 * time.Millisecond)
	f.settle()
	if armed, pushed, parked := hubs[0].ArmedCount(), hubs[0].Stats().Epoch, hubs[0].Stats().Parked; armed != 1 || pushed != 1 || parked != 1 {
		t.Fatalf("the minority armed during the partition: hub0 holds %d armed keys, pushed %d and parked %d; want 1, 1 and sig3 parked",
			armed, pushed, parked)
	}

	// Act three: the heal. hub0 arms its parked key with the lease back.
	f.net.Heal()
	logf("converged after %v", f.within(5*time.Second, "every hub and device to converge", func() bool {
		return !slices.ContainsFunc(hubs, func(h *immunity.Exchange) bool { return h.ArmedCount() != 3 }) &&
			!slices.ContainsFunc(nodes, func(n *cluster.Node) bool { return len(n.Members()) != 3 }) &&
			allHold(sig2.Key(), phones...) && allHold(sig3.Key(), phones...)
	}))
	// A decision is an owned key armed at threshold, not an install. Each
	// key is armed everywhere, so three decisions mean none was made twice.
	var decided uint64
	for i, hub := range hubs {
		if !armedOnce(hub) {
			t.Fatalf("hub%d armed a key twice: %+v", i, hub.Stats())
		}
		d := hub.Metrics().Counter("immunity_hub_arm_decisions_total", "").Value()
		decided += d
		logf("hub%d decided %d fenced %d remote installs %d", i, d, hub.Stats().Fenced, hub.Stats().RemoteInstalls)
	}
	if decided != 3 {
		t.Fatalf("%d arming decisions across the cluster for 3 keys, want one each", decided)
	}
	for i, n := range nodes {
		held, acquired, lost := n.LeaseStats()
		logf("hub%d lease held=%v acquired=%d lost=%d epoch=%d", i, held, acquired, lost, n.Epoch())
	}
	got := strings.Join(log, "\n")
	if fleetLog == "" {
		fleetLog = got
	} else if got != fleetLog {
		t.Fatalf("event log differs from the first run's:\n%s\nfirst run:\n%s", got, fleetLog)
	}
	t.Logf("event log:\n%s", got)
}
