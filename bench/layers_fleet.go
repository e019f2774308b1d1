package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// The isolated calls into the fleet tier: the on-device service, the
// hub, its provenance store and push queue, the cluster, and the auth
// fabric. See layers.go for how calls are timed.

// tap is a Transport that shows every hub→client message to see before
// handing it to the client.
type tap struct {
	inner immunity.Transport
	see   func(wire.Message)
}

func (t tap) Dial(recv func(wire.Message), down func(error)) (immunity.Session, error) {
	return t.inner.Dial(func(m wire.Message) {
		t.see(m)
		recv(m)
	}, down)
}

func (lr *layerRun) serviceLayer() error {
	// Service.Publish of a fresh key, no subscriber.
	fresh := lr.in.gen.sigSet(layerCalls)
	svc, err := immunity.NewService("layer-publish", core.NewMemHistory())
	if err != nil {
		return err
	}
	defer svc.Close()
	var pubErr error
	ns := lr.each("immunity.service_publish_us", layerImmunity, layerCalls, func(i int) {
		if _, _, err := svc.Publish("bench", fresh.sigs[i]); err != nil {
			pubErr = err
		}
	})
	if pubErr != nil {
		return pubErr
	}
	lr.set("immunity.service_publish_us", ns/1e3, "us")

	// Publish → the last of two subscribed processes' install event.
	fresh = lr.in.gen.sigSet(layerCalls)
	push, err := immunity.NewService("layer-push", core.NewMemHistory())
	if err != nil {
		return err
	}
	defer push.Close()
	z := vm.NewZygote(vm.WithDimmunix(true), vm.WithSignatureBus(push))
	installs := make(chan install, 2)
	var watchers sync.WaitGroup
	defer watchers.Wait()
	defer z.KillAll()
	for j := 0; j < 2; j++ {
		p, err := z.Fork(fmt.Sprintf("com.example.push%d", j))
		if err != nil {
			return err
		}
		watchInstalls(p, j, installs, &watchers)
	}
	dl := newDeadline()
	ns = lr.each("immunity.service_push_us", layerImmunity, layerCalls, func(i int) {
		dl.arm()
		if _, _, err := push.Publish("bench", fresh.sigs[i]); err != nil {
			pubErr = err
			return
		}
		for got := 0; got < 2; got++ {
			if _, ok := recv(dl, installs); !ok {
				pubErr = fmt.Errorf("service push %d: no install within %v", i, opTimeout)
				return
			}
		}
	})
	if pubErr != nil {
		return pubErr
	}
	lr.set("immunity.service_push_us", ns/1e3, "us")

	// Publish on a connected phone → the hub's receipt for the report,
	// seen at the client's transport (loopback).
	fresh = lr.in.gen.sigSet(layerCalls)
	hub, err := immunity.NewExchange(2, immunity.WithProvenanceStore(immunity.NewMemProvenance()))
	if err != nil {
		return err
	}
	defer hub.Close()
	phone, err := immunity.NewService("layer-client", core.NewMemHistory())
	if err != nil {
		return err
	}
	defer phone.Close()
	confirms := make(chan struct{}, 1)
	client, err := immunity.Connect(tap{immunity.NewLoopback(hub), func(m wire.Message) {
		if m.Type == wire.TypeConfirm {
			confirms <- struct{}{}
		}
	}}, "layer-client", phone)
	if err != nil {
		return err
	}
	defer client.Close()
	ns = lr.each("immunity.client_report_us", layerImmunity, layerCalls, func(i int) {
		dl.arm()
		if _, _, err := phone.Publish("bench", fresh.sigs[i]); err != nil {
			pubErr = err
			return
		}
		if _, ok := recv(dl, confirms); !ok {
			pubErr = fmt.Errorf("client report %d: no confirm within %v", i, opTimeout)
		}
	})
	lr.set("immunity.client_report_us", ns/1e3, "us")
	return pubErr
}

// reportHub is a hub with one raw loopback device attached.
type reportHub struct {
	hub  *immunity.Exchange
	sess *rawSession
}

func newReportHub(threshold int, store immunity.ProvenanceStore, onMsg func(wire.Message)) (*reportHub, error) {
	hub, err := immunity.NewExchange(threshold, immunity.WithProvenanceStore(store))
	if err != nil {
		return nil, err
	}
	sess, err := dialRaw(immunity.NewLoopback(hub), "layer-device", "", onMsg)
	if err != nil {
		hub.Close()
		return nil, err
	}
	return &reportHub{hub, sess}, nil
}

func (h *reportHub) close() {
	h.sess.Close()
	h.hub.Close()
}

func (lr *layerRun) hubLayer() error {
	dir, err := os.MkdirTemp(lr.tmp, "layer-hub-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// A loopback Session.Send runs Conn.Handle synchronously: the call is
	// the hub's whole report path. One device never reaches threshold 2,
	// so nothing arms.
	report := func(name string, store immunity.ProvenanceStore, allocs string) error {
		h, err := newReportHub(2, store, func(wire.Message) {})
		if err != nil {
			return err
		}
		defer h.close()
		fresh := lr.in.gen.sigSet(2 * layerCalls)
		var sendErr error
		send := func(i int) {
			if err := h.sess.Send(fresh.report(i, h.sess.ver)); err != nil {
				sendErr = err
			}
		}
		lr.set(name, lr.each(name, layerImmunity, layerCalls, send)/1e3, "us")
		if allocs != "" {
			lr.set(allocs, allocsPerCall(lr.n(layerCalls), func(i int) { send(layerCalls + i) }), "1/op")
		}
		return sendErr
	}
	if err := report("immunity.hub_report_us", immunity.NewMemProvenance(), "immunity.hub_report_allocs"); err != nil {
		return err
	}
	if err := report("immunity.hub_report_persist_us",
		immunity.NewFileProvenance(filepath.Join(dir, "report.log")), ""); err != nil {
		return err
	}

	// An arming report → the last of ingestObs loopback observers' delta.
	got := make(chan struct{}, ingestObs)
	h, err := newReportHub(1, immunity.NewMemProvenance(), func(wire.Message) {})
	if err != nil {
		return err
	}
	defer h.close()
	for i := 0; i < ingestObs; i++ {
		sess, err := dialRaw(immunity.NewLoopback(h.hub), fmt.Sprintf("layer-observer-%d", i), "", func(m wire.Message) {
			if m.Type == wire.TypeDelta {
				for range m.Delta.Sigs {
					got <- struct{}{}
				}
			}
		})
		if err != nil {
			return err
		}
		defer sess.Close()
	}
	fresh := lr.in.gen.sigSet(layerCalls / 2)
	dl := newDeadline()
	var fanErr error
	ns := lr.each("immunity.hub_fanout_us", layerImmunity, layerCalls/2, func(i int) {
		dl.arm()
		if err := h.sess.Send(fresh.report(i, h.sess.ver)); err != nil {
			fanErr = err
			return
		}
		for o := 0; o < ingestObs; o++ {
			if _, ok := recv(dl, got); !ok {
				fanErr = fmt.Errorf("hub fan-out %d: %d of %d observers within %v", i, o, ingestObs, opTimeout)
				return
			}
		}
	})
	lr.set("immunity.hub_fanout_us", ns/1e3, "us")
	return fanErr
}

func (lr *layerRun) provenanceLayer() error {
	dir, err := os.MkdirTemp(lr.tmp, "layer-prov-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	set := lr.in.fleet

	// AppendBatch of one record for a fresh key: no dead line, so no
	// compaction comes due.
	store := immunity.NewFileProvenance(filepath.Join(dir, "append.log"))
	var appendErr error
	ns := lr.each("immunity.provenance_append_us", layerImmunity, layerCalls, func(i int) {
		rec := immunity.ProvenanceRecord{Seq: i + 1, Key: set.keys[i], Sig: set.ws[i],
			FirstSeen: "device-0", ConfirmedBy: []string{"device-0"}}
		if err := store.AppendBatch([]immunity.ProvenanceRecord{rec}); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	lr.set("immunity.provenance_append_us", ns/1e3, "us")

	// The seeded log of hub-recover: load it, resume a hub over it, and
	// catch one device up from epoch 0.
	seed := filepath.Join(dir, "seed.log")
	if err := seedProvenance(seed, set, recoverSigs); err != nil {
		return err
	}
	seeded, err := os.ReadFile(seed)
	if err != nil {
		return err
	}
	copies := make([]string, 2*layerSlow)
	for i := range copies {
		copies[i] = filepath.Join(dir, fmt.Sprintf("copy-%d.log", i))
		if err := os.WriteFile(copies[i], seeded, 0o644); err != nil {
			return err
		}
	}
	var loadErr error
	ns = lr.each("immunity.provenance_load_ms", layerImmunity, layerSlow, func(int) {
		if _, err := immunity.NewFileProvenance(seed).Load(); err != nil {
			loadErr = err
		}
	})
	if loadErr != nil {
		return loadErr
	}
	lr.set("immunity.provenance_load_ms", ns/1e6, "ms")

	hubs := make([]*immunity.Exchange, len(copies))
	defer func() {
		for _, hub := range hubs {
			if hub != nil {
				hub.Close()
			}
		}
	}()
	resume := func(i int) {
		hubs[i], loadErr = immunity.NewExchange(2,
			immunity.WithProvenanceStore(immunity.NewFileProvenance(copies[i])))
	}
	ns = lr.each("immunity.hub_resume_ms", layerImmunity, layerSlow, resume)
	if loadErr != nil {
		return loadErr
	}
	lr.set("immunity.hub_resume_ms", ns/1e6, "ms")

	dl := newDeadline()
	catchups := make([]float64, lr.n(layerSlow))
	for i := range catchups {
		if resume(layerSlow + i); loadErr != nil {
			return loadErr
		}
		hub := hubs[layerSlow+i]
		counter := newSigCounter(recoverSigs)
		dl.arm()
		t0 := time.Now()
		sess, err := dialRaw(immunity.NewLoopback(hub), "layer-device", "", counter.onMsg)
		if err != nil {
			return err
		}
		_, ok := recv(dl, counter.done)
		t1 := time.Now()
		sess.Close()
		if !ok {
			return fmt.Errorf("hub catch-up %d: armed set not received within %v", i, opTimeout)
		}
		catchups[i] = float64(t1.Sub(t0))
		lr.tr.add(0, 0, "immunity.hub_catchup_ms", layerImmunity, t0, t1)
	}
	lr.set("immunity.hub_catchup_ms", median(catchups)/1e6, "ms")
	return nil
}

func (lr *layerRun) queueLayer() error {
	// Enqueue → Deliver per item through a queue whose merge hook
	// coalesces everything adjacent; items per delivery is the coalesce
	// ratio a consumer sees when it cannot keep up.
	const items = 10000
	var ns, ratios []float64
	for b := 0; b < lr.n(layerSlow); b++ {
		var delivered, deliveries int
		done := make(chan struct{})
		q := immunity.NewQueue(immunity.QueueConfig[int]{
			Merge: func(prev, next int) (int, bool) { return prev + next, true },
			Deliver: func(n int) error {
				deliveries++
				if delivered += n; delivered == items {
					close(done)
				}
				return nil
			},
		})
		t0 := time.Now()
		for i := 0; i < items; i++ {
			q.Enqueue(1)
		}
		<-done
		t1 := time.Now()
		q.Close()
		lr.tr.add(0, 0, "immunity.queue_item_ns", layerImmunity, t0, t1)
		ns = append(ns, float64(t1.Sub(t0))/items)
		ratios = append(ratios, items/float64(deliveries))
	}
	lr.set("immunity.queue_item_ns", median(ns), "ns")
	lr.set("immunity.queue_coalesce_ratio", median(ratios), "ratio")
	return nil
}

// loopbackCluster federates n fresh hubs over loopback peer links and
// waits until the links are up and, with leases on, held.
type loopbackCluster struct {
	hubs  []*immunity.Exchange
	nodes []*cluster.Node
}

func (c *loopbackCluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	for _, h := range c.hubs {
		h.Close()
	}
}

func bootLoopbackCluster(n, threshold int, leases bool) (*loopbackCluster, error) {
	c := &loopbackCluster{}
	for i := 0; i < n; i++ {
		hub, err := immunity.NewExchange(threshold)
		if err != nil {
			c.close()
			return nil, err
		}
		c.hubs = append(c.hubs, hub)
	}
	// As in fleet-immunity, no link dials before every hub knows its
	// ring.
	ready := make(chan struct{})
	for i, hub := range c.hubs {
		var peers []cluster.Member
		for j, other := range c.hubs {
			if j != i {
				peers = append(peers, cluster.Member{ID: hubID(j),
					Transport: &lateTransport{ready: ready, t: immunity.NewLoopback(other)}})
			}
		}
		cfg := cluster.Config{Self: hubID(i), Hub: hub, Peers: peers}
		if leases {
			cfg.FailoverAfter, cfg.LeaseTTL = fleetFailoverAfter, fleetLeaseTTL
		}
		node, err := cluster.New(cfg)
		if err != nil {
			close(ready)
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	close(ready)
	booted := pollUntil(fleetBootTimeout, func() bool {
		for _, node := range c.nodes {
			if !node.MayArm() {
				return false
			}
			for _, p := range node.Status() {
				if !p.Connected {
					return false
				}
			}
		}
		return true
	})
	if !booted {
		c.close()
		return nil, fmt.Errorf("loopback cluster of %d did not come up within %v", n, fleetBootTimeout)
	}
	return c, nil
}

func (lr *layerRun) clusterLayer() error {
	ring, err := cluster.NewRing(hubID(0), hubID(1), hubID(2))
	if err != nil {
		return err
	}
	keys, k := lr.in.fleet.keys, 0
	lr.set("cluster.ring_owner_ns", lr.batched("cluster.ring_owner_ns", layerCluster, func() {
		ring.Owner(keys[k%len(keys)])
		k++
	}), "ns")

	// Two threshold-1 hubs over loopback; a device on hub 0, an observer
	// on hub 1. A report for a key hub 1 owns takes the forward hop and
	// its receipt comes back as a forward-confirm; a report for a key
	// hub 0 owns arms there and reaches the observer by arm-broadcast.
	c, err := bootLoopbackCluster(2, 1, false)
	if err != nil {
		return err
	}
	defer c.close()
	confirms := make(chan struct{}, 1)
	device, err := dialRaw(immunity.NewLoopback(c.hubs[0]), "layer-device", "", func(m wire.Message) {
		if m.Type == wire.TypeConfirm {
			confirms <- struct{}{}
		}
	})
	if err != nil {
		return err
	}
	defer device.Close()
	deltas := make(chan struct{}, 1)
	observer, err := dialRaw(immunity.NewLoopback(c.hubs[1]), "layer-observer", "", func(m wire.Message) {
		if m.Type == wire.TypeDelta {
			for range m.Delta.Sigs {
				deltas <- struct{}{}
			}
		}
	})
	if err != nil {
		return err
	}
	defer observer.Close()

	const calls = layerCalls / 2
	fresh := lr.in.gen.sigSet(3 * calls)
	var local, remote []int
	for i, key := range fresh.keys {
		if c.nodes[0].OwnerOf(key) == hubID(0) {
			local = append(local, i)
		} else {
			remote = append(remote, i)
		}
	}
	if len(local) < calls || len(remote) < calls {
		return fmt.Errorf("cluster layer: ring split %d/%d of %d keys, need %d each", len(local), len(remote), len(fresh.keys), calls)
	}
	dl := newDeadline()
	var hopErr error
	hop := func(name string, picks []int, arrived <-chan struct{}, alsoDrain <-chan struct{}) {
		ns := lr.each(name, layerCluster, calls, func(i int) {
			dl.arm()
			if err := device.Send(fresh.report(picks[i], device.ver)); err != nil {
				hopErr = err
				return
			}
			if _, ok := recv(dl, arrived); !ok {
				hopErr = fmt.Errorf("%s: call %d did not complete within %v", name, i, opTimeout)
				return
			}
			// The other signal of the same op (each report both confirms
			// and, at threshold 1, arms) is drained so it cannot be taken
			// for the next call's.
			if _, ok := recv(dl, alsoDrain); !ok {
				hopErr = fmt.Errorf("%s: call %d left a signal undelivered after %v", name, i, opTimeout)
			}
		})
		lr.set(name, ns/1e3, "us")
	}
	hop("cluster.forward_hop_us", remote, confirms, deltas)
	if hopErr != nil {
		return hopErr
	}
	hop("cluster.arm_broadcast_us", local, deltas, confirms)
	return hopErr
}

func (lr *layerRun) leaseLayer() error {
	// cluster.New × 3 → every node holds the quorum lease.
	var booted []*loopbackCluster
	defer func() {
		for _, c := range booted {
			c.close()
		}
	}()
	var bootErr error
	ns := lr.each("cluster.lease_acquire_ms", layerCluster, 6, func(int) {
		c, err := bootLoopbackCluster(fleetHubs, 2, true)
		if err != nil {
			bootErr = err
			return
		}
		booted = append(booted, c)
	})
	if bootErr != nil {
		return bootErr
	}
	lr.set("cluster.lease_acquire_ms", ns/1e6, "ms")
	node := booted[0].nodes[0]
	lr.set("cluster.lease_gate_ns", lr.batched("cluster.lease_gate_ns", layerCluster, func() { node.MayArm() }), "ns")
	return nil
}

func (lr *layerRun) authLayer() error {
	key := []byte("layer-token-key")
	token, err := auth.Mint(key, auth.Claims{Device: auth.WildcardDevice})
	if err != nil {
		return err
	}
	verifier := auth.NewStatic(key)
	now := time.Now()
	var verifyErr error
	lr.set("auth.token_verify_us", lr.each("auth.token_verify_us", layerAuth, layerCalls, func(int) {
		if _, err := verifier.Verify(token, now); err != nil {
			verifyErr = err
		}
	})/1e3, "us")
	if verifyErr != nil {
		return verifyErr
	}

	ca, err := auth.NewCA("layer-ca")
	if err != nil {
		return err
	}
	cert, err := ca.IssueTLS("layer-hub", nil)
	if err != nil {
		return err
	}
	// hop boots one threshold-1 hub over TCP — plaintext, or TLS with
	// token auth — with a publishing phone and a subscribing phone, and
	// returns the median publish→install latency.
	hop := func(secure bool) (p50 float64, handshake float64, err error) {
		var hubOpts []immunity.ExchangeOption
		var serveOpts []immunity.ServeOption
		var dialOpts []immunity.TCPOption
		var clientOpts []immunity.ClientOption
		tok := ""
		if secure {
			hubOpts = append(hubOpts, immunity.WithAuthVerifier(verifier))
			serveOpts = append(serveOpts, immunity.WithServeTLS(auth.ServerConfig(cert, nil)))
			dialOpts = append(dialOpts, immunity.WithDialTLS(auth.ClientConfig(ca.Pool(), "")))
			clientOpts = append(clientOpts, immunity.WithClientToken(token))
			tok = token
		}
		hub, err := immunity.NewExchange(1, hubOpts...)
		if err != nil {
			return 0, 0, err
		}
		defer hub.Close()
		srv, err := immunity.ServeTCP(hub, "127.0.0.1:0", serveOpts...)
		if err != nil {
			return 0, 0, err
		}
		defer srv.Close()
		transport := immunity.NewTCPTransport(srv.Addr(), dialOpts...)

		if secure {
			// TLS dial + hello/ack, one fresh connection per call.
			var dialErr error
			handshake = lr.each("auth.tls_handshake_ms", layerAuth, 2*layerSlow, func(i int) {
				sess, err := dialRaw(transport, fmt.Sprintf("layer-dial-%d", i), tok, func(wire.Message) {})
				if err != nil {
					dialErr = err
					return
				}
				sess.Close()
			})
			if dialErr != nil {
				return 0, 0, dialErr
			}
		}

		pub, err := immunity.NewService("layer-pub", core.NewMemHistory())
		if err != nil {
			return 0, 0, err
		}
		defer pub.Close()
		pubClient, err := immunity.Connect(transport, "layer-pub", pub, clientOpts...)
		if err != nil {
			return 0, 0, err
		}
		defer pubClient.Close()
		sub, err := immunity.NewService("layer-sub", core.NewMemHistory())
		if err != nil {
			return 0, 0, err
		}
		defer sub.Close()
		subClient, err := immunity.Connect(transport, "layer-sub", sub, clientOpts...)
		if err != nil {
			return 0, 0, err
		}
		defer subClient.Close()
		z := vm.NewZygote(vm.WithDimmunix(true), vm.WithSignatureBus(sub))
		installs := make(chan install, 1)
		var watchers sync.WaitGroup
		defer watchers.Wait()
		defer z.KillAll()
		p, err := z.Fork("com.example.hop")
		if err != nil {
			return 0, 0, err
		}
		watchInstalls(p, 0, installs, &watchers)

		ops := lr.n(300)
		fresh := lr.in.gen.sigSet(ops)
		dl := newDeadline()
		lats := make([]float64, 0, ops)
		for i := 0; i < ops; i++ {
			dl.arm()
			t0 := time.Now()
			if _, _, err := pub.Publish("bench", fresh.sigs[i]); err != nil {
				return 0, 0, err
			}
			in, ok := recv(dl, installs)
			if !ok {
				return 0, 0, fmt.Errorf("tls hop: op %d: no install within %v", i, opTimeout)
			}
			lats = append(lats, float64(in.at.Sub(t0)))
			lr.tr.add(0, 0, "auth.tls_hop_x", layerAuth, t0, in.at)
		}
		return median(lats), handshake, nil
	}
	plain, _, err := hop(false)
	if err != nil {
		return err
	}
	secure, handshake, err := hop(true)
	if err != nil {
		return err
	}
	lr.set("auth.tls_handshake_ms", handshake/1e6, "ms")
	lr.set("auth.tls_hop_x", secure/plain, "ratio")
	return nil
}
