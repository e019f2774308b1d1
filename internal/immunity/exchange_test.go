package immunity

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/clock"
	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// newTestHub builds a hub that is torn down with the test.
func newTestHub(t *testing.T, threshold int, opts ...ExchangeOption) *Exchange {
	t.Helper()
	hub, err := NewExchange(threshold, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	return hub
}

// report records a single default-tenant confirmation, driving the hub's
// dedup guards directly.
func (x *Exchange) report(device string, sig *core.Signature) (confirmations int, armed bool) {
	confirms := x.reportFrom("", device, checked(sig), 0)
	if len(confirms) == 0 {
		return 0, false
	}
	return confirms[0].Confirmations, confirms[0].Armed
}

// checked is sigs as the hub takes them off the wire: encoded, then
// Checked.
func checked(sigs ...*core.Signature) []wire.Checked {
	out := make([]wire.Checked, len(sigs))
	for i, sig := range sigs {
		c, err := wire.FromCore(sig).Check()
		if err != nil {
			panic(err)
		}
		out[i] = c
	}
	return out
}

// phoneSim is one simulated device: a service with a live subscribed core.
type phoneSim struct {
	svc    *Service
	proc   *core.Core
	client *ExchangeClient
}

// fleetSim builds n phones connected to the hub over its loopback
// transport.
func fleetSim(t *testing.T, hub *Exchange, n int) []*phoneSim {
	t.Helper()
	lb := NewLoopback(hub)
	phones := make([]*phoneSim, n)
	for i := range phones {
		svc, err := NewService(fmt.Sprintf("phone%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		proc, _ := attach(t, svc, "app")
		client, err := Connect(lb, svc.Name(), svc)
		if err != nil {
			t.Fatal(err)
		}
		phones[i] = &phoneSim{svc: svc, proc: proc, client: client}
		t.Cleanup(func() { client.Close(); svc.Close() })
	}
	return phones
}

// armedOn reports whether the phone's live process has the signature.
func (p *phoneSim) armedOn(key string) bool {
	for _, info := range p.proc.History() {
		sig := &core.Signature{Kind: info.Kind, Pairs: info.Pairs}
		if sig.Key() == key {
			return true
		}
	}
	return false
}

// TestExchangeThresholdGating: with confirm-before-arm = 2, one device's
// report must NOT arm the fleet; the second distinct device's report must.
func TestExchangeThresholdGating(t *testing.T) {
	hub := newTestHub(t, 2)
	phones := fleetSim(t, hub, 4)
	key := testSig(0).Key()

	// Device 0 detects the deadlock.
	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hub sees first report", func() bool { return len(hub.Provenance()) == 1 })
	prov := hub.Provenance()[0]
	if prov.Armed || prov.Confirmations != 1 || prov.FirstSeen != "phone0" {
		t.Fatalf("after one report: %+v, want unarmed/1 confirm/first-seen phone0", prov)
	}
	// The other devices must stay unarmed. A misfired delta would have
	// been enqueued with the report's event; once every push queue is
	// empty it has returned from recv, which publishes into the Service
	// synchronously.
	pending := hub.Metrics().Gauge("immunity_hub_push_pending", "")
	waitFor(t, "hub push queues drained", func() bool { return pending.Value() == 0 })
	for i := 1; i < 4; i++ {
		if src := phones[i].svc.SourceOf(key); src != "" {
			t.Fatalf("phone%d holds the signature (from %q) below the confirmation threshold", i, src)
		}
	}
	// Re-report from the SAME device: still one confirmation, still
	// gated. The service would dedup a second Publish before it reached
	// the hub, so drive the hub's own same-device guard directly.
	hub.report("phone0", testSig(0))
	if prov := hub.Provenance()[0]; prov.Armed || prov.Confirmations != 1 {
		t.Fatalf("same-device re-report changed provenance: %+v", prov)
	}

	// Device 1 independently confirms: the fleet arms.
	if _, _, err := phones[1].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	for i, p := range phones {
		ph := p
		waitFor(t, fmt.Sprintf("phone%d armed after threshold", i), func() bool { return ph.armedOn(key) })
	}
	prov = hub.Provenance()[0]
	if !prov.Armed || prov.Confirmations != 2 {
		t.Fatalf("after threshold: %+v, want armed with 2 confirmations", prov)
	}
	if got := prov.ConfirmedBy; len(got) != 2 || got[0] != "phone0" || got[1] != "phone1" {
		t.Fatalf("confirmed-by = %v, want [phone0 phone1]", got)
	}
	// The hub's stats agree with the provenance.
	stats := hub.Stats()
	if stats.Epoch != 1 || stats.Confirmations != 2 {
		t.Fatalf("stats = %+v, want epoch 1 with 2 confirmations", stats)
	}
}

// TestExchangeNoEchoConfirmation: a signature pushed to a device by the
// hub must not come back as that device's confirmation.
func TestExchangeNoEchoConfirmation(t *testing.T) {
	hub := newTestHub(t, 1)
	phones := fleetSim(t, hub, 3)
	key := testSig(0).Key()

	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	for i, p := range phones {
		ph := p
		waitFor(t, fmt.Sprintf("phone%d armed", i), func() bool { return ph.armedOn(key) })
	}
	// Everyone has it; only phone0 observed it. An echo would be a
	// report sent from a phone's Service subscriber once the delta
	// reached it, and both hops are synchronous over loopback: once
	// every hub push queue and every phone's subscriber queue is empty,
	// any echo has been counted.
	pending := hub.Metrics().Gauge("immunity_hub_push_pending", "")
	waitFor(t, "push and subscriber queues drained", func() bool {
		if pending.Value() != 0 {
			return false
		}
		for _, p := range phones {
			p.svc.mu.Lock()
			for _, sub := range p.svc.subs {
				if sub.Pending() != 0 {
					p.svc.mu.Unlock()
					return false
				}
			}
			p.svc.mu.Unlock()
		}
		return true
	})
	prov := hub.Provenance()[0]
	if prov.Confirmations != 1 || prov.FirstSeen != "phone0" {
		t.Fatalf("echoed confirmations: %+v, want exactly 1 from phone0", prov)
	}
}

// TestExchangeCatchupOnConnect: a device joining after arming receives the
// armed set immediately; its pre-existing local history is reported
// upward as a confirmation.
func TestExchangeCatchupOnConnect(t *testing.T) {
	hub := newTestHub(t, 1)
	phones := fleetSim(t, hub, 2)
	key := testSig(0).Key()
	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fleet armed", func() bool { return hub.ArmedCount() == 1 })

	// A new phone joins late, with its own pre-existing local antibody.
	svc, err := NewService("phone-late", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, _, err := svc.Publish("local", testSig(5)); err != nil {
		t.Fatal(err)
	}
	proc, _ := attach(t, svc, "app")
	client, err := Connect(NewLoopback(hub), "phone-late", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	late := &phoneSim{svc: svc, proc: proc, client: client}
	waitFor(t, "late phone receives armed set", func() bool { return late.armedOn(key) })
	// Its local history reached the hub (threshold 1 → arms and spreads).
	key5 := testSig(5).Key()
	for i, p := range phones {
		ph := p
		waitFor(t, fmt.Sprintf("phone%d armed with late antibody", i), func() bool { return ph.armedOn(key5) })
	}
	for _, prov := range hub.Provenance() {
		if prov.Key == key5 && prov.FirstSeen != "phone-late" {
			t.Fatalf("late antibody provenance: %+v", prov)
		}
	}
	// Resubscribe-from-epoch: the late client ends at the hub's epoch.
	waitFor(t, "late client at hub epoch", func() bool {
		return late.client.FleetEpoch() == uint64(hub.ArmedCount())
	})
}

// TestExchangeReconnectDoesNotEchoConfirmation: a device that received a
// signature from the hub and then reconnects (its epoch-0 resubscribe
// re-reports its whole local history — which now contains the pushed
// signature) must not be counted as a new confirmation: the hub
// remembers what it pushed to whom.
func TestExchangeReconnectDoesNotEchoConfirmation(t *testing.T) {
	hub := newTestHub(t, 1)
	phones := fleetSim(t, hub, 2)
	key := testSig(0).Key()

	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "phone1 armed", func() bool { return phones[1].armedOn(key) })

	// phone1 reconnects from epoch 0 and re-reports its whole history,
	// which now holds the pushed signature. A fresh ExchangeClient sends
	// that report only when it outraces the catch-up (whose delta its own
	// guard then filters), so the bare session sends it every time.
	phones[1].client.Close()
	echoes := hub.Stats().Echoes
	conn, _ := helloFrom(t, hub, "phone1")
	report := wire.Message{V: wire.Version, Type: wire.TypeReport,
		Report: &wire.Report{Sigs: []wire.Signature{wire.FromCore(testSig(0))}}}
	if err := conn.Handle(report); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the re-report answered as an echo", func() bool { return hub.Stats().Echoes == echoes+1 })
	prov := hub.Provenance()[0]
	if prov.Confirmations != 1 || prov.ConfirmedBy[0] != "phone0" {
		t.Fatalf("reconnect echoed a confirmation: %+v, want exactly 1 from phone0", prov)
	}
}

// TestExchangeDuplicateHelloRefused: a second hello on one session is a
// protocol violation — accepting it would leave the first device id
// mapped to this Conn in the hub's registry, recording pushes against a
// device that never received them.
func TestExchangeDuplicateHelloRefused(t *testing.T) {
	hub := steppedHub(t, 1)
	s := acceptStepped(t, hub)
	if err := s.conn.Handle(helloMsg("phoneA")); err != nil {
		t.Fatal(err)
	}
	if err := s.conn.Handle(helloMsg("phoneB")); err == nil {
		t.Fatal("duplicate hello accepted")
	}
	s.end()
	want := "ack; refused: duplicate hello (session already bound to phoneA); closed"
	if got := strings.Join(s.log, "; "); got != want {
		t.Fatalf("session log %q, want %q", got, want)
	}
	if hub.Stats().Devices != 0 {
		t.Fatalf("device registry leaked an entry: %+v", hub.Stats())
	}
}

// TestLoopbackRefusalIsPermanent: over loopback a handshake refusal
// arrives as over TCP — the failure ack, then the session's death — and
// classifies as a permanent Connect failure, not a retry.
func TestLoopbackRefusalIsPermanent(t *testing.T) {
	hub := newTestHub(t, 1)
	svc, err := NewService("old-phone", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	start := time.Now()
	if _, err := Connect(badVersionTransport{NewLoopback(hub)}, "old-phone", svc); err == nil {
		t.Fatal("version-mismatched loopback Connect succeeded")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("refusal error %q does not carry the hub's reason", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("loopback refusal took a full hello timeout instead of failing on the ack")
	}
}

// TestLoopbackSendRefusedOnDrain: a loopback client answers the hub's
// ack from inside recv — on the Conn's push-queue drain goroutine — with
// a duplicate hello. The hub refuses it, and the session close that
// refusal triggers must not wait for the very goroutine it runs on: Send
// returns nil, as a TCP write does, then the failure ack arrives and
// the session goes down.
func TestLoopbackSendRefusedOnDrain(t *testing.T) {
	// No t.Cleanup(hub.Close): on a hung session Close would hang too,
	// and the bound below must fail the test instead.
	hub, err := NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.Message{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: "echo", MinV: wire.Version, MaxV: wire.Version}}
	var sess Session
	dialed := make(chan struct{})
	sent := make(chan error, 1)
	events := make(chan string, 2)
	recv := func(m wire.Message) {
		switch {
		case m.Type != wire.TypeAck:
		case m.Ack.OK:
			<-dialed
			sent <- sess.Send(hello)
		default:
			events <- "refused: " + m.Ack.Error
		}
	}
	sess, err = NewLoopback(hub).Dial(recv, func(error) { events <- "down" })
	if err != nil {
		t.Fatal(err)
	}
	close(dialed)
	if err := sess.Send(hello); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("refused Send returned %v, want nil: the refusal arrives as its ack", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a refused Send from recv never returned: the session close waits on its own drain goroutine")
	}
	for _, want := range []string{"refused: duplicate hello", "down"} {
		select {
		case got := <-events:
			if !strings.HasPrefix(got, want) {
				t.Fatalf("session event %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no %q within 5s", want)
		}
	}
	hub.Close()
}

// TestExchangeHandleRejectsMalformedEnvelopes: Handle is the hub's API
// for any transport; a structurally broken envelope (missing or wrong
// payload) must come back as a protocol error, never a panic.
func TestExchangeHandleRejectsMalformedEnvelopes(t *testing.T) {
	hub := newTestHub(t, 1)
	conn, err := hub.Accept(func(wire.Message) error { return nil }, func() {})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cases := []wire.Message{
		{V: wire.Version, Type: wire.TypeHello},  // nil payload
		{V: wire.Version, Type: wire.TypeReport}, // nil payload, pre-hello too
		{V: wire.Version, Type: wire.TypeHello, Hello: &wire.Hello{Device: "d"}, Ack: &wire.Ack{}},
		{V: wire.Version, Type: "teleport"},
	}
	for i, m := range cases {
		if err := conn.Handle(m); err == nil {
			t.Errorf("case %d: malformed envelope %+v accepted", i, m)
		}
	}
}

// TestExchangeSupersedeConnect: a second session for the same device id
// supersedes the first — over TCP a phone redials before the hub notices
// the stale socket died, so a duplicate hello must win, not bounce.
func TestExchangeSupersedeConnect(t *testing.T) {
	hub := newTestHub(t, 2)
	svc, err := NewService("phone0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c1, err := Connect(NewLoopback(hub), "phone0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Connect(NewLoopback(hub), "phone0", svc)
	if err != nil {
		t.Fatalf("superseding connect must succeed: %v", err)
	}
	defer c2.Close()
	waitFor(t, "one device registered", func() bool { return hub.Stats().Devices == 1 })

	// The device's confirmation state accrues to the one identity.
	if _, _, err := svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "report landed", func() bool { return len(hub.Provenance()) == 1 })
	if prov := hub.Provenance()[0]; prov.Confirmations != 1 || prov.FirstSeen != "phone0" {
		t.Fatalf("provenance after supersede: %+v", prov)
	}
}

// TestExchangeSupersedeAcksBeforeTeardown: a hello that supersedes a
// session queues the stale session's final "superseded" ack ahead of
// its teardown, which runs exactly once; and Exchange.Close returns
// only after every session's teardown ran, including one whose drain is
// still sending when Close starts.
func TestExchangeSupersedeAcksBeforeTeardown(t *testing.T) {
	hub, err := NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	logs := map[string][]string{} // per session: "ack <error>" per ack, "closed" per teardown
	record := func(name, ev string) {
		mu.Lock()
		logs[name] = append(logs[name], ev)
		mu.Unlock()
	}
	logOf := func(name string) string {
		mu.Lock()
		defer mu.Unlock()
		return strings.Join(logs[name], "; ")
	}
	inSend, gate := make(chan struct{}), make(chan struct{})
	open := func(name, device string) *Conn {
		conn, err := hub.Accept(func(m wire.Message) error {
			switch m.Type {
			case wire.TypeAck:
				record(name, "ack "+m.Ack.Error)
			case wire.TypeStatus:
				close(inSend)
				<-gate
			}
			return nil
		}, func() {
			record(name, "closed")
			if name == "fresh" {
				close(gate) // the busy drain finishes only after this teardown
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		hello := wire.Message{V: wire.Version, Type: wire.TypeHello,
			Hello: &wire.Hello{Device: device, MinV: wire.Version, MaxV: wire.Version}}
		if err := conn.Handle(hello); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	open("stale", "phone")
	open("fresh", "phone")
	const staleWant = "ack ; ack superseded by a newer session for device phone; closed"
	waitFor(t, "stale session torn down", func() bool { return logOf("stale") == staleWant })

	busy := open("busy", "other")
	if err := busy.Handle(wire.Message{V: wire.Version, Type: wire.TypeStatusReq}); err != nil {
		t.Fatal(err)
	}
	<-inSend
	hub.Close()
	for name, want := range map[string]string{"stale": staleWant, "fresh": "ack ; closed", "busy": "ack ; closed"} {
		if got := logOf(name); got != want {
			t.Errorf("%s session after Close: %q, want %q", name, got, want)
		}
	}
}

// TestExchangeSendFailureDetaches: a failed send ends the session by
// itself — no transport Close needed — so a peer that vanished without
// closing its socket frees its device slot, and the teardown hook runs
// once.
func TestExchangeSendFailureDetaches(t *testing.T) {
	hub := steppedHub(t, 1)
	s := acceptStepped(t, hub)
	s.fail = true
	if err := s.conn.Handle(helloMsg("lost")); err != nil {
		t.Fatal(err)
	}
	if s.conn.out.step() {
		t.Fatal("a session whose send failed was not torn down")
	}
	hub.Close()
	if got, d := strings.Join(s.log, "; "), hub.Stats().Devices; got != "closed" || d != 0 {
		t.Fatalf("session log %q, devices = %d after a failed send, want one teardown and 0", got, d)
	}
}

// TestExchangeSteppedPushPath: three raw sessions on one goroutine, the
// hub's push queues stepped by the test, from hello through two reports
// to the arming and its delta. Each session's messages are exactly these
// and in this order, run after run.
func TestExchangeSteppedPushPath(t *testing.T) {
	hub := steppedHub(t, 2)
	a, b, c := acceptStepped(t, hub), acceptStepped(t, hub), acceptStepped(t, hub)
	sessions := []*stepped{a, b, c}
	for i, s := range sessions {
		if err := s.conn.Handle(helloMsg(fmt.Sprintf("phone%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	report := wire.Message{V: wire.Version, Type: wire.TypeReport,
		Report: &wire.Report{Sigs: []wire.Signature{wire.FromCore(testSig(0))}}}
	for _, s := range []*stepped{a, b} {
		if err := s.conn.Handle(report); err != nil {
			t.Fatal(err)
		}
		for _, s := range sessions {
			s.flush()
		}
	}
	for _, s := range sessions {
		s.end()
	}
	for i, want := range []string{
		"ack; confirm 1 armed=false; delta epoch 1 sigs 1; closed",
		"ack; delta epoch 1 sigs 1; confirm 2 armed=true; closed",
		"ack; delta epoch 1 sigs 1; closed",
	} {
		if got := strings.Join(sessions[i].log, "; "); got != want {
			t.Errorf("phone%d: %q, want %q", i, got, want)
		}
	}
	if st := hub.Stats(); st.Epoch != 1 || st.Devices != 0 || st.DeltaBatches != 3 {
		t.Fatalf("stats = %+v, want epoch 1, no device attached and 3 delta batches", st)
	}
}

// steppedHub is a hub whose session push queues run only when the test
// steps them: on a mock clock they start no goroutine. Exchange.Close
// waits on every registered session's Done, so a cleanup that runs
// before it ends any session a failed test left.
func steppedHub(t *testing.T, threshold int) *Exchange {
	hub := newTestHub(t, threshold, WithClock[ExchangeOption](clock.NewMock(time.Unix(0, 0))))
	t.Cleanup(func() {
		hub.mu.Lock()
		var conns []*Conn
		for _, c := range hub.conns {
			conns = append(conns, c)
		}
		hub.mu.Unlock()
		for _, c := range conns {
			c.Close()
			for c.out.step() {
			}
		}
	})
	return hub
}

// stepped is one raw session of a stepped hub. Its log holds each message
// the hub sent it, then "closed" for its teardown; with fail set, every
// send fails instead.
type stepped struct {
	conn *Conn
	log  []string
	fail bool
}

// acceptStepped attaches a raw session to a stepped hub.
func acceptStepped(t *testing.T, hub *Exchange) *stepped {
	t.Helper()
	s := &stepped{}
	conn, err := hub.Accept(func(m wire.Message) error {
		if s.fail {
			return errors.New("peer gone")
		}
		s.log = append(s.log, describe(m))
		return nil
	}, func() { s.log = append(s.log, "closed") })
	if err != nil {
		t.Fatal(err)
	}
	s.conn = conn
	return s
}

// flush steps the session's queue until it holds nothing.
func (s *stepped) flush() {
	for s.conn.out.Pending() > 0 && s.conn.out.step() {
	}
}

// end closes the session and steps its queue to its exit.
func (s *stepped) end() {
	s.conn.Close()
	for s.conn.out.step() {
	}
}

// describe renders one hub→client message for a session log.
func describe(m wire.Message) string {
	switch m.Type {
	case wire.TypeAck:
		if !m.Ack.OK {
			return "refused: " + m.Ack.Error
		}
	case wire.TypeConfirm:
		return fmt.Sprintf("confirm %d armed=%v", m.Confirm.Confirmations, m.Confirm.Armed)
	case wire.TypeDelta:
		return fmt.Sprintf("delta epoch %d sigs %d", m.Delta.Epoch, len(m.Delta.Sigs))
	}
	return string(m.Type)
}

// helloMsg is a device hello at the hub's version.
func helloMsg(device string) wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: device, MinV: wire.Version, MaxV: wire.Version}}
}

// TestBroadcastSupersedeRaceKeepsFramesIntact (-race gated like the
// whole package): views of one arming log are handed to every session's
// queue; a device redialing in a tight loop — superseding its own
// sessions while armings broadcast — must never corrupt a delta already
// queued to a stable session. The stable observer decodes every frame
// it receives and must end up with every armed signature, bit-exact.
func TestBroadcastSupersedeRaceKeepsFramesIntact(t *testing.T) {
	hub := newTestHub(t, 1)
	srv, err := ServeTCP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Stable observer phone over real TCP.
	obsSvc, err := NewService("observer", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer obsSvc.Close()
	obsProc, _ := attach(t, obsSvc, "app")
	obsClient, err := Connect(NewTCPTransport(srv.Addr()), "observer", obsSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer obsClient.Close()

	// Flapper: redials under one device id as fast as it can, tearing
	// down the superseded sessions while broadcasts are in flight.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr := NewTCPTransport(srv.Addr())
		for !stop.Load() {
			sess, err := tr.Dial(func(wire.Message) {}, func(error) {})
			if err != nil {
				continue
			}
			sess.Send(wire.Message{V: wire.MinVersion, Type: wire.TypeHello,
				Hello: &wire.Hello{Device: "flapper", MinV: wire.MinVersion, MaxV: wire.Version}})
			time.Sleep(200 * time.Microsecond)
			sess.Close()
		}
	}()

	// Publisher: arms a stream of signatures (threshold 1), each one a
	// delta to every live session.
	pubSvc, err := NewService("publisher", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pubSvc.Close()
	pubClient, err := Connect(NewTCPTransport(srv.Addr()), "publisher", pubSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer pubClient.Close()

	const arms = 40
	for i := 0; i < arms; i++ {
		if _, _, err := pubSvc.Publish("local", testSig(100+i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	// Every armed signature must reach the stable observer uncorrupted:
	// a mutated shared frame would fail decode (killing the session) or
	// deliver a wrong signature key.
	obs := &phoneSim{svc: obsSvc, proc: obsProc}
	for i := 0; i < arms; i++ {
		key := testSig(100 + i).Key()
		waitFor(t, fmt.Sprintf("observer armed on sig %d", i), func() bool { return obs.armedOn(key) })
	}
	if got := obsClient.Reconnects(); got != 0 {
		t.Fatalf("stable observer had to reconnect %d times (corrupt frame killed its session?)", got)
	}
	stop.Store(true)
	wg.Wait()
}

// TestHubReportAllocs pins the hub's report path from the wire form: a
// fresh signature checked and recorded as one device's confirmation on a
// hub with memory provenance and no sessions. Neither the check nor the
// arbiter builds a core.Signature or re-renders its key.
func TestHubReportAllocs(t *testing.T) {
	const runs, limit = 200, 20
	hub := newTestHub(t, 2, WithProvenanceStore(NewMemProvenance()))
	fresh := make([]wire.Signature, runs+1) // AllocsPerRun warms up once
	for i := range fresh {
		fresh[i] = wire.FromCore(testSig(i))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c, err := fresh[next].Check()
		if err != nil {
			t.Fatal(err)
		}
		next++
		if confirms := hub.reportFrom("", "d1", []wire.Checked{c}, 0); len(confirms) != 1 || confirms[0].Key != c.Key {
			t.Fatalf("confirms %+v for %s", confirms, c.Key)
		}
	})
	t.Logf("%.2f allocations per fresh report", allocs)
	if allocs > limit {
		t.Fatalf("a fresh report costs %.2f allocations, want <= %d", allocs, limit)
	}
}

// failingStore loads like its inner store and refuses every append.
type failingStore struct{ ProvenanceStore }

func (failingStore) AppendBatch([]ProvenanceRecord) error { return errors.New("disk full") }

// TestExchangeStatsReadTheMetrics: every ExchangeStats counter is the
// immunity_hub_*_total counter /metrics renders, not a second count
// kept beside it.
func TestExchangeStatsReadTheMetrics(t *testing.T) {
	hub := newTestHub(t, 2, WithProvenanceStore(failingStore{NewMemProvenance()}))
	hub.report("d1", testSig(0))
	hub.report("d1", testSig(0)) // the same device again: an echo
	hub.report("d2", testSig(0)) // the threshold: arms
	st := hub.Stats()
	if st.Reports != 3 || st.Confirmations != 2 || st.Echoes != 1 || st.PersistErrors != 2 {
		t.Fatalf("stats = %+v, want 3 reports, 2 confirmations, 1 echo and 2 failed appends", st)
	}
	for name, got := range map[string]uint64{
		"immunity_hub_reports_total":         st.Reports,
		"immunity_hub_confirmations_total":   st.Confirmations,
		"immunity_hub_echoes_total":          st.Echoes,
		"immunity_hub_persist_errors_total":  st.PersistErrors,
		"immunity_hub_forwards_total":        st.Forwards,
		"immunity_hub_remote_installs_total": st.RemoteInstalls,
		"immunity_hub_fenced_total":          st.Fenced,
	} {
		if want := hub.Metrics().Counter(name, "").Value(); got != want {
			t.Errorf("ExchangeStats reads %d where %s reads %d", got, name, want)
		}
	}
}
