package main

import (
	"crypto/tls"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// fleet-immunity: the extended headline — a deadlock seen on phones A
// and B makes every process on phone C immune, through the production
// fabric. Per round a fresh three-hub TCP cluster (quorum leases on,
// mutual-TLS peer links, token-authenticated devices, file provenance
// and a metrics registry per hub); phones A, B and C attach to hubs 0, 1
// and 2, each a Service, a Zygote with two forked processes, and an
// ExchangeClient over TLS. Op i publishes signature i on A, then on B
// (threshold 2), and completes when both of C's processes have emitted
// EventSignatureInstalled for it. One op in flight: the workload is
// latency-bound and every layer does a little — client report, forward
// hop to the rendezvous owner, lease gate, arm-broadcast, delta push,
// Service push, InstallSignature — so it shows hop-latency changes the
// throughput workloads hide, and the delay a coarser batch would add.

const (
	fleetHubs  = 3
	fleetProcs = 2
	// The lease TTL sets the renewal tick (TTL/3) and with it how long a
	// fresh cluster waits for its first granted round; the failure
	// detector is slow enough that a loaded two-core box never condemns
	// a live hub mid-round.
	fleetLeaseTTL      = 600 * time.Millisecond
	fleetFailoverAfter = 8 * time.Second
	fleetBootTimeout   = 10 * time.Second
	// gatingWait is how long a warm-up op watches C for an install after
	// A's publish alone: confirm-before-arm must hold it back.
	gatingWait = 20 * time.Millisecond
)

type fleetImmunity struct {
	in    *inputs
	tmp   string
	ca    *auth.CA
	certs [fleetHubs]tls.Certificate
	key   []byte
	token string
}

func hubID(i int) string { return fmt.Sprintf("hub-%d", i) }

func newFleetImmunity(in *inputs, tmp string) (*fleetImmunity, error) {
	fi := &fleetImmunity{in: in, tmp: tmp, key: []byte(fmt.Sprintf("bench-token-key-%d", in.seed))}
	var err error
	if fi.ca, err = auth.NewCA("bench-fleet-ca"); err != nil {
		return nil, err
	}
	for i := range fi.certs {
		// The leaf's common name is the hub id the peer-auth check pins
		// peer-hellos to.
		if fi.certs[i], err = fi.ca.IssueTLS(hubID(i), nil); err != nil {
			return nil, err
		}
	}
	if fi.token, err = auth.Mint(fi.key, auth.Claims{Device: auth.WildcardDevice}); err != nil {
		return nil, err
	}
	return fi, nil
}

// lateTransport is a peer transport whose address is published after
// the cluster node that dials it was built. A hub must know its ring
// before it serves, so nodes are bound first and listeners opened
// second; Dial waits for the address instead of failing into the link's
// redial backoff, which would make cluster boot time a matter of luck.
// Closing ready with t still nil aborts the waiting dials.
type lateTransport struct {
	ready chan struct{}
	t     immunity.Transport
}

func (l *lateTransport) Dial(recv func(wire.Message), down func(error)) (immunity.Session, error) {
	<-l.ready
	if l.t == nil {
		return nil, errors.New("cluster boot aborted")
	}
	return l.t.Dial(recv, down)
}

// fleetCluster is one round's hubs, nodes and listeners.
type fleetCluster struct {
	hubs  []*immunity.Exchange
	nodes []*cluster.Node
	srvs  []*immunity.ExchangeServer
	addrs []string
}

func (c *fleetCluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	for _, s := range c.srvs {
		s.Close()
	}
	for _, h := range c.hubs {
		h.Close()
	}
}

// bootCluster builds the hubs, federates them, opens their listeners,
// and waits until every peer link is up and every node holds the quorum
// lease.
func (fi *fleetImmunity) bootCluster(dir string) (*fleetCluster, error) {
	c := &fleetCluster{}
	if err := fi.boot(c, dir); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (fi *fleetImmunity) boot(c *fleetCluster, dir string) error {
	pool := fi.ca.Pool()
	late := make([][]*lateTransport, fleetHubs)
	// publish opens every waiting peer transport: onto its hub's address
	// once all listeners are up, onto an abort on an early return.
	publish := func() {
		for i := range late {
			for j, l := range late[i] {
				if l == nil {
					continue
				}
				if len(c.addrs) == fleetHubs {
					l.t = immunity.NewTCPTransport(c.addrs[j],
						immunity.WithDialTLS(auth.PeerConfig(fi.certs[i], pool, "")))
				}
				close(l.ready)
			}
		}
		late = nil
	}
	defer publish()
	for i := 0; i < fleetHubs; i++ {
		reg := metrics.NewRegistry()
		hub, err := immunity.NewExchange(2,
			immunity.WithProvenanceStore(immunity.NewFileProvenance(filepath.Join(dir, hubID(i)+".log"))),
			immunity.WithMetricsRegistry(reg),
			immunity.WithAuthVerifier(auth.NewStatic(fi.key)),
			immunity.WithPeerAuth())
		if err != nil {
			return err
		}
		c.hubs = append(c.hubs, hub)
		late[i] = make([]*lateTransport, fleetHubs)
		var peers []cluster.Member
		for j := 0; j < fleetHubs; j++ {
			if j != i {
				late[i][j] = &lateTransport{ready: make(chan struct{})}
				peers = append(peers, cluster.Member{ID: hubID(j), Transport: late[i][j]})
			}
		}
		node, err := cluster.New(cluster.Config{Self: hubID(i), Hub: hub, Peers: peers,
			FailoverAfter: fleetFailoverAfter, LeaseTTL: fleetLeaseTTL, Metrics: reg})
		if err != nil {
			return err
		}
		c.nodes = append(c.nodes, node)
	}
	for i, hub := range c.hubs {
		srv, err := immunity.ServeTCP(hub, "127.0.0.1:0",
			immunity.WithServeTLS(auth.ServerConfig(fi.certs[i], pool)))
		if err != nil {
			return err
		}
		c.srvs = append(c.srvs, srv)
		c.addrs = append(c.addrs, srv.Addr())
	}
	publish()
	booted := pollUntil(fleetBootTimeout, func() bool {
		for _, n := range c.nodes {
			if !n.MayArm() {
				return false
			}
			for _, p := range n.Status() {
				if !p.Connected {
					return false
				}
			}
		}
		return true
	})
	if !booted {
		return fmt.Errorf("fleet-immunity: cluster did not acquire its leases within %v", fleetBootTimeout)
	}
	return nil
}

// fleetPhone is one phone: the on-device service, its forked
// processes, and the client that bridges it to a hub.
type fleetPhone struct {
	svc    *immunity.Service
	zygote *vm.Zygote
	procs  []*vm.Process
	client *immunity.ExchangeClient
}

func (p *fleetPhone) close() {
	if p.client != nil {
		p.client.Close()
	}
	if p.zygote != nil {
		p.zygote.KillAll()
	}
	if p.svc != nil {
		p.svc.Close()
	}
}

func (fi *fleetImmunity) bootPhone(name, addr string, tr *tracer) (*fleetPhone, error) {
	svc, err := immunity.NewService(name, core.NewMemHistory())
	if err != nil {
		return nil, err
	}
	p := &fleetPhone{svc: svc, zygote: vm.NewZygote(vm.WithDimmunix(true), vm.WithSignatureBus(svc))}
	for j := 0; j < fleetProcs; j++ {
		var proc *vm.Process
		tr.time(0, 0, "fork", layerVM, func() { proc, err = p.zygote.Fork(fmt.Sprintf("com.example.app%d", j)) })
		if err != nil {
			p.close()
			return nil, err
		}
		p.procs = append(p.procs, proc)
	}
	transport := immunity.NewTCPTransport(addr, immunity.WithDialTLS(auth.ClientConfig(fi.ca.Pool(), "")))
	tr.time(0, 0, "tls_connect", layerAuth, func() {
		p.client, err = immunity.Connect(transport, name, svc, immunity.WithClientToken(fi.token))
	})
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (fi *fleetImmunity) round(tr *tracer, warm bool) (res roundResult, err error) {
	res = roundResult{ops: fleetOps, failed: fleetOps}
	dir, err := os.MkdirTemp(fi.tmp, "fleet-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	var cl *fleetCluster
	tr.time(0, 0, "cluster_boot", layerCluster, func() { cl, err = fi.bootCluster(dir) })
	if err != nil {
		return res, err
	}
	defer cl.close()
	var phones [fleetHubs]*fleetPhone
	for i := range phones {
		if phones[i], err = fi.bootPhone(fmt.Sprintf("phone-%c", 'a'+i), cl.addrs[i], tr); err != nil {
			return res, err
		}
		defer phones[i].close()
	}
	a, b, c := phones[0], phones[1], phones[2]

	// Event sources. One passive raw session per hub counts the armings
	// that hub pushed (and, on C's hub, timestamps them for the trace);
	// C's Service and C's two cores report each signature's arrival.
	hubDeltas := make(chan delivery, fleetOps)
	var observers [fleetHubs]*sigCounter
	for i := range observers {
		observers[i] = newSigCounter(fleetOps)
		onMsg := observers[i].onMsg
		if i == fleetHubs-1 {
			counter := observers[i]
			onMsg = func(m wire.Message) {
				if m.Type == wire.TypeDelta {
					at := time.Now()
					for range m.Delta.Sigs {
						hubDeltas <- delivery{at: at}
					}
				}
				counter.onMsg(m)
			}
		}
		transport := immunity.NewTCPTransport(cl.addrs[i], immunity.WithDialTLS(auth.ClientConfig(fi.ca.Pool(), "")))
		sess, err := dialRaw(transport, fmt.Sprintf("observer-%d", i), fi.token, onMsg)
		if err != nil {
			return res, err
		}
		defer sess.Close()
	}
	svcDeltas := make(chan delivery, fleetOps)
	cancel := watchService(c.svc, svcDeltas)
	defer cancel()
	installs := make(chan install, fleetProcs)
	var watchers sync.WaitGroup
	for j, p := range c.procs {
		watchInstalls(p, j, installs, &watchers)
	}
	// C's processes are killed (closing their event channels) before the
	// watchers are awaited; both defers run after the checks below.
	defer watchers.Wait()
	defer c.zygote.KillAll()

	set := fi.in.fleet
	dl := newDeadline()
	lats := make([]time.Duration, 0, fleetOps)
	cpu0, t0 := cpuTime(), time.Now()
	var paused time.Duration // warm-up gating checks, taken off the clock
	for i := 0; i < fleetOps; i++ {
		dl.arm()
		op := tr.newOp()
		start := time.Now()
		if _, _, err = a.svc.Publish("bench", set.sigs[i]); err != nil {
			return res, err
		}
		pubA := time.Now()
		if warm && i < 8 {
			// Confirm-before-arm: one phone's report must not arm C.
			select {
			case in := <-installs:
				return res, fmt.Errorf("fleet-immunity: op %d: C installed %s after A's report alone", i, in.key)
			case <-time.After(gatingWait):
			}
			paused += time.Since(pubA)
		}
		pubB0 := time.Now()
		if _, _, err = b.svc.Publish("bench", set.sigs[i]); err != nil {
			return res, err
		}
		pubB := time.Now()
		var last time.Time
		for got := 0; got < fleetProcs; got++ {
			in, ok := recv(dl, installs)
			if !ok {
				return res, fmt.Errorf("fleet-immunity: op %d: C's processes installed %d of %d within %v", i, got, fleetProcs, opTimeout)
			}
			if in.key != set.keys[i] {
				return res, fmt.Errorf("fleet-immunity: op %d: installed %s, published %s", i, in.key, set.keys[i])
			}
			last = in.at
		}
		lats = append(lats, last.Sub(start)-(pubB0.Sub(pubA)))
		if tr != nil {
			// The hub and service timestamps were queued before the
			// installs they caused.
			hub, okHub := recv(dl, hubDeltas)
			svc, okSvc := recv(dl, svcDeltas)
			if !okHub || !okSvc {
				return res, fmt.Errorf("fleet-immunity: op %d: no delta at C's hub or service within %v", i, opTimeout)
			}
			hubAt, svcAt := hub.at, svc.at
			if svcAt.Before(hubAt) {
				hubAt = svcAt // the observer's copy lost the race to C's own
			}
			root := tr.add(0, op, "op", layerBench, start, last)
			tr.add(root, op, "publish_a", layerImmunity, start, pubA)
			tr.add(root, op, "publish_b", layerImmunity, pubB0, pubB)
			tr.add(root, op, "fleet_arm", layerCluster, pubB, hubAt)
			tr.add(root, op, "service_delta", layerImmunity, hubAt, svcAt)
			tr.add(root, op, "core_installed", layerCore, svcAt, last)
		}
	}
	res.wall, res.cpu = time.Since(t0)-paused, cpuTime()-cpu0
	// Every hub must have armed the whole set before the round is
	// checked; hubs 0 and 1 install C's last op from a broadcast that
	// may still be in flight.
	dl.arm()
	for i, o := range observers {
		if _, ok := recv(dl, o.done); !ok {
			return res, fmt.Errorf("fleet-immunity: hub %d pushed fewer than %d armings", i, fleetOps)
		}
	}
	res.heap = liveHeap()

	var forwards uint64
	for i, hub := range cl.hubs {
		st := hub.Stats()
		forwards += st.Forwards
		if n := hub.ArmedCount(); n != fleetOps {
			return res, fmt.Errorf("fleet-immunity: hub %d armed %d signatures, want %d", i, n, fleetOps)
		}
		if st.Fenced != 0 || st.PersistErrors != 0 {
			return res, fmt.Errorf("fleet-immunity: hub %d: %d fenced broadcasts, %d persist errors", i, st.Fenced, st.PersistErrors)
		}
	}
	for _, p := range phones {
		if n := p.client.Reconnects(); n != 0 {
			return res, fmt.Errorf("fleet-immunity: %s reconnected %d times", p.svc.Name(), n)
		}
	}
	res.counts = map[string]float64{"cluster.forwards_per_op": float64(forwards) / fleetOps}
	res.failed = 0
	res.lats = lats
	return res, nil
}
