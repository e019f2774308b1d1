package cluster_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/clock"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// The resumable-session table: one scripted transport drives the device
// tier's policy (immunity.Connect) and the peer tier's (cluster.New)
// through the same handshake scripts on one mock clock. The test
// goroutine delivers the ack, the traffic and the session's death, and
// steps the machines between them; a wait is virtual time, and the
// jitter, seeded by the clock's start, replays the same waits each run.

// redialFloor is the machine's backoff floor (immunity's backoffMin).
const redialFloor = 5 * time.Millisecond

// scriptedTransport records every Dial as a session. While down is set,
// Dial fails at once, as a dial to a dead hub does, and counts the
// refusal; answer, when set, is delivered inside a hello's Send, hangUp
// then kills the session (a loopback refusal: the ack, then the death,
// and the Send succeeds), and failHello makes that Send fail (a write
// to a dead connection).
type scriptedTransport struct {
	clk       *clock.Mock
	dials     []*scriptedSession // not yet taken by next
	down      bool
	refused   int
	answer    *wire.Message
	hangUp    bool
	failHello bool
}

// scriptedSession is one dialed session: recv and down are the dialer's
// callbacks, sent is everything it sent, in order.
type scriptedSession struct {
	tr     *scriptedTransport
	at     time.Time
	recv   func(wire.Message)
	down   func(error)
	sent   []wire.Message
	closed bool
}

func (tr *scriptedTransport) Dial(recv func(wire.Message), down func(error)) (immunity.Session, error) {
	if tr.down {
		tr.refused++
		return nil, errors.New("scripted: connection refused")
	}
	s := &scriptedSession{tr: tr, at: tr.clk.Now(), recv: recv, down: down}
	tr.dials = append(tr.dials, s)
	return s, nil
}

func (s *scriptedSession) Send(m wire.Message) error {
	s.sent = append(s.sent, m)
	if m.Type != wire.TypeHello && m.Type != wire.TypePeerHello {
		return nil
	}
	if s.tr.answer != nil {
		s.recv(*s.tr.answer)
	}
	if s.tr.hangUp {
		s.kill()
	}
	if s.tr.failHello {
		return errors.New("scripted: hello refused")
	}
	return nil
}

func (s *scriptedSession) Close() error { s.closed = true; return nil }

// next runs the machines, moving virtual time on, until the dialer
// dials; 10 s of virtual time without a dial fails the row.
func (tr *scriptedTransport) next(t *testing.T, why string) *scriptedSession {
	t.Helper()
	for end := tr.clk.Now().Add(10 * time.Second); len(tr.dials) == 0; tr.clk.Add(time.Millisecond) {
		if !tr.clk.Now().Before(end) {
			t.Fatalf("no dial within 10s: %s", why)
		}
	}
	s := tr.dials[0]
	tr.dials = tr.dials[1:]
	return s
}

// hello returns the session's first message, which must be a hello of
// either tier.
func (s *scriptedSession) hello(t *testing.T) wire.Message {
	t.Helper()
	s.tr.clk.Run()
	if len(s.sent) == 0 || (s.sent[0].Type != wire.TypeHello && s.sent[0].Type != wire.TypePeerHello) {
		t.Fatalf("first messages on a session %v, want a hello", s.sent)
	}
	return s.sent[0]
}

// await runs the machines and returns the first message of type typ
// the dialer sent on s.
func (s *scriptedSession) await(t *testing.T, typ wire.Type, why string) wire.Message {
	t.Helper()
	s.tr.clk.Run()
	for i, m := range s.sent {
		if m.Type == typ {
			s.sent = s.sent[i+1:]
			return m
		}
	}
	t.Fatalf("no %s sent: %s", typ, why)
	return wire.Message{}
}

func (s *scriptedSession) awaitClosed(t *testing.T, why string) {
	t.Helper()
	s.tr.clk.Run()
	if !s.closed {
		t.Fatalf("session not closed: %s", why)
	}
}

func (s *scriptedSession) kill() { s.down(errors.New("scripted session death")) }

// ack is an OK ack at the wire version.
func ack(gen string, cursor uint64) wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeAck,
		Ack: &wire.Ack{OK: true, Epoch: cursor, Gen: gen, V: wire.Version}}
}

func refusal(reason string) wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeAck, Ack: &wire.Ack{OK: false, Error: reason}}
}

// tier is one policy under the table: start boots its dialer on tr's
// clock; awaitAccepted runs the machines and checks that the dialer
// treats s as its live session; push is the tier's cursor-bearing
// message (fresh signature i at seq); helloCursor is the resume cursor
// a hello carried for gen, cursor the durable one; installed counts the
// antibodies pushes installed; final reports whether a refusal is final
// for the tier, err is the refusal that stopped it and released that
// the stopped dialer let go of what it held.
type tier interface {
	start(t *testing.T, tr *scriptedTransport)
	awaitAccepted(t *testing.T, s *scriptedSession)
	push(i int, seq uint64) wire.Message
	helloCursor(hello wire.Message, gen string) uint64
	cursor(gen string) uint64
	installed() int
	reconnects() uint64
	final() bool
	err() error
	released() bool
	close()
}

// deviceTier is immunity.Connect over a Service holding one local
// signature, so every accepted handshake re-reports it — the accept
// event the script checks.
type deviceTier struct {
	svc    *immunity.Service
	client *immunity.ExchangeClient
}

const localSig = 9000 // outside the ids the rows push

func (d *deviceTier) start(t *testing.T, tr *scriptedTransport) {
	svc := newService(t, "dev")
	if _, _, err := svc.Publish("local", testSig(localSig)); err != nil {
		t.Fatal(err)
	}
	d.svc = svc
	var err error
	if d.client, err = immunity.Connect(tr, "dev", svc, immunity.WithClock[immunity.ClientOption](tr.clk)); err != nil {
		t.Fatalf("connect: %v", err)
	}
}

func (d *deviceTier) awaitAccepted(t *testing.T, s *scriptedSession) {
	t.Helper()
	s.await(t, wire.TypeReport, "an accepted device session re-reports")
}

func (d *deviceTier) push(i int, seq uint64) wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeDelta,
		Delta: &wire.Delta{Epoch: seq, Sigs: []wire.Signature{wire.FromCore(testSig(i))}}}
}

func (d *deviceTier) helloCursor(hello wire.Message, gen string) uint64 {
	return hello.Hello.Epochs[gen]
}
func (d *deviceTier) cursor(gen string) uint64 { return d.client.FleetEpochs()[gen] }
func (d *deviceTier) installed() int           { return int(d.svc.Stats().Published) - 1 }
func (d *deviceTier) reconnects() uint64       { return d.client.Reconnects() }
func (d *deviceTier) final() bool              { return true }
func (d *deviceTier) err() error               { return d.client.Err() }
func (d *deviceTier) released() bool           { return d.svc.Stats().Subscribers == 0 }
func (d *deviceTier) close()                   { d.client.Close() }

// peerTier is a cluster node with one outbound link, to "peer".
type peerTier struct {
	hub  *immunity.Exchange
	node *cluster.Node
}

func (p *peerTier) start(t *testing.T, tr *scriptedTransport) {
	hub := newHub(t, 1, immunity.WithClock[immunity.ExchangeOption](tr.clk))
	node, err := cluster.New(cluster.Config{Self: "hub0", Hub: hub,
		Peers: []cluster.Member{{ID: "peer", Transport: tr}}})
	if err != nil {
		t.Fatal(err)
	}
	p.hub, p.node = hub, node
	tr.clk.Run()
}

func (p *peerTier) status() cluster.PeerStatus { return p.node.Status()[0] }

func (p *peerTier) awaitAccepted(t *testing.T, s *scriptedSession) {
	t.Helper()
	s.tr.clk.Run()
	if !p.status().Connected {
		t.Fatal("peer link not connected")
	}
}

// push is an arm-broadcast from the peer, fenced by nothing.
func (p *peerTier) push(i int, seq uint64) wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeArmBroadcast,
		Arm: &wire.ArmBroadcast{Owner: "peer", Seq: seq, Confirmations: 1,
			Sig: wire.FromCore(testSig(i)), Fence: 1 << 40}}
}

func (p *peerTier) helloCursor(hello wire.Message, _ string) uint64 { return hello.PeerHello.Seq }
func (p *peerTier) cursor(string) uint64                            { return p.status().LastApplied }
func (p *peerTier) installed() int                                  { return p.hub.ArmedCount() }
func (p *peerTier) reconnects() uint64                              { return p.status().Reconnects }
func (p *peerTier) final() bool                                     { return false }
func (p *peerTier) err() error                                      { return nil }
func (p *peerTier) released() bool                                  { return true }
func (p *peerTier) close()                                          { p.node.Close(); p.hub.Close() }

// script is one booted row: a tier dialing through a scripted
// transport, its first session accepted under gen "g1" at cursor 0.
type script struct {
	t    *testing.T
	tier tier
	tr   *scriptedTransport
	live *scriptedSession
}

func boot(t *testing.T, tr tier) *script {
	t.Helper()
	sc := &script{t: t, tier: tr, tr: &scriptedTransport{clk: clock.NewMock(fleetStart)}}
	first := ack("g1", 0)
	sc.tr.answer = &first // Connect returns only once its handshake settled
	tr.start(t, sc.tr)
	sc.tr.answer = nil
	t.Cleanup(tr.close)
	sc.live = sc.tr.next(t, "the first dial")
	if c := tr.helloCursor(sc.live.hello(t), "g1"); c != 0 {
		t.Fatalf("first hello carried cursor %d", c)
	}
	tr.awaitAccepted(t, sc.live)
	return sc
}

// redial kills the live session and returns the redial's session, its
// hello already read and its cursor checked.
func (sc *script) redial(wantCursor uint64) *scriptedSession {
	sc.t.Helper()
	sc.live.kill()
	s := sc.tr.next(sc.t, "redial after the live session died")
	if c := sc.tier.helloCursor(s.hello(sc.t), "g1"); c != wantCursor {
		sc.t.Fatalf("redial hello carried cursor %d, want %d", c, wantCursor)
	}
	sc.live = s
	return s
}

// expectStopOrRedial is the refusal split: a device stops for good with
// Err set, its subscription released and no further dial; a peer
// redials.
func (sc *script) expectStopOrRedial(refused *scriptedSession, reason string) {
	sc.t.Helper()
	refused.awaitClosed(sc.t, "a refused session must be hung up")
	if !sc.tier.final() {
		sc.tr.next(sc.t, "a peer never takes a refusal as final")
		return
	}
	if err := sc.tier.err(); err == nil || !sc.tier.released() || !strings.Contains(err.Error(), reason) {
		sc.t.Fatalf("Err() = %v, released %v; want the hub's reason %q and the subscription released", err, sc.tier.released(), reason)
	}
	sc.tr.clk.Add(10 * time.Second)
	if n := len(sc.tr.dials); n != 0 {
		sc.t.Fatalf("%d dial(s) after a final refusal", n)
	}
}

func (sc *script) expectCursor(gen string, want uint64, when string) {
	sc.t.Helper()
	if got := sc.tier.cursor(gen); got != want {
		sc.t.Fatalf("cursor %s = %d, want %d", when, got, want)
	}
}

// TestRedialHandshakeTable drives both policies through the session
// machine's rules. Rows marked "parent:" fail on the commit before the
// shared machine for the stated reason; the others pin behaviour no
// other test reaches deterministically.
func TestRedialHandshakeTable(t *testing.T) {
	rows := []struct {
		name string
		run  func(sc *script)
	}{
		{"refused ack", func(sc *script) {
			s := sc.redial(0)
			s.recv(refusal("device banned"))
			sc.expectStopOrRedial(s, "device banned")
		}},
		{"unsolicited failure ack on a live session", func(sc *script) {
			sc.live.recv(refusal("superseded by a newer session"))
			sc.expectStopOrRedial(sc.live, "superseded")
		}},
		{"wrong ack.V never installs a session", func(sc *script) {
			s := sc.redial(0)
			stale := ack("g1", 0)
			stale.Ack.V = wire.Version - 1
			s.recv(stale)
			s.awaitClosed(sc.t, "a wrong-version session must be hung up")
			sc.tr.next(sc.t, "a wrong-version ack is a failed handshake, redialed")
			if n := sc.tier.reconnects(); n != 0 {
				sc.t.Fatalf("wrong-version handshake counted as %d reconnect(s)", n)
			}
			if len(s.sent) != 1 {
				sc.t.Fatalf("dialer sent %q over a session that failed its handshake", s.sent[1].Type)
			}
		}},
		{"cursor regression condemns the attempt", func(sc *script) {
			t := sc.t
			sc.live.recv(sc.tier.push(0, 5))
			sc.expectCursor("g1", 5, "after the accepted session's push")
			s := sc.redial(5)
			s.recv(sc.tier.push(1, 7)) // before the verdict
			s.recv(ack("g1", 3))       // the hub is behind what we resumed from
			s.awaitClosed(t, "a condemned session must be hung up")
			s.recv(sc.tier.push(2, 9)) // after it: a straggler of the condemned session
			if n := sc.tier.installed(); n != 3 {
				t.Fatalf("%d antibodies installed, want 3: a condemned attempt's traffic is still installed", n)
			}
			sc.expectCursor("g1", 0, "after the condemnation")
			s2 := sc.tr.next(t, "a condemned attempt is redialed")
			if c := sc.tier.helloCursor(s2.hello(t), "g1"); c != 0 {
				t.Fatalf("hello after the condemnation carried cursor %d, want 0", c)
			}
			s2.recv(ack("g1", 9))
			sc.tier.awaitAccepted(t, s2)
			s.recv(sc.tier.push(3, 11)) // the condemned session is still twitching
			sc.expectCursor("g1", 0, "on the fresh session: quarantined seqs must not leak into it")
			s2.recv(sc.tier.push(4, 9))
			sc.expectCursor("g1", 9, "after the fresh session's own push")
		}},
		{"replay that raced the ack is merged on accept", func(sc *script) {
			sc.live.recv(sc.tier.push(0, 2))
			s := sc.redial(2)
			s.recv(sc.tier.push(1, 3))
			s.recv(sc.tier.push(2, 4))
			sc.expectCursor("g1", 2, "before the ack: pre-accept traffic is quarantined")
			s.recv(ack("g1", 4))
			sc.tier.awaitAccepted(sc.t, s)
			sc.expectCursor("g1", 4, "after accept")
		}},
		{"a dead session's stragglers move nothing", func(sc *script) {
			old := sc.live
			s := sc.redial(0)
			old.recv(sc.tier.push(0, 6))
			s.recv(ack("g1", 0))
			sc.tier.awaitAccepted(sc.t, s)
			old.recv(sc.tier.push(1, 8))
			sc.expectCursor("g1", 0, "after a dead session's stragglers")
			if n := sc.tier.installed(); n != 2 {
				sc.t.Fatalf("%d antibodies installed, want the 2 stragglers", n)
			}
		}},
		{"session death mid-handshake", func(sc *script) {
			// parent: the device's ack wait had no death arm, so it sat out
			// the 10 s hello timeout here.
			s := sc.redial(0)
			killed := sc.tr.clk.Now()
			s.kill()
			s.awaitClosed(sc.t, "a session that died un-acked must be hung up")
			s2 := sc.tr.next(sc.t, "a handshake whose session died is abandoned")
			if wait := s2.at.Sub(killed); wait > 2*redialFloor {
				sc.t.Fatalf("redial %v after the death mid-handshake, want at once and one backoff step", wait)
			}
			s2.hello(sc.t)
			s2.recv(ack("g1", 0))
			sc.tier.awaitAccepted(sc.t, s2)
		}},
		{"ack-then-drop backs off", func(sc *script) {
			// parent: the device reset its backoff on every drop and redialed
			// with no wait (> 10 000 dials in 500 ms).
			for k := 1; k <= 4; k++ {
				dropped := sc.tr.clk.Now()
				sc.live.kill()
				s := sc.tr.next(sc.t, "redial after a short-lived session")
				if wait, max := s.at.Sub(dropped), redialFloor<<(k-1); wait < max/2 || wait > max {
					sc.t.Fatalf("redial %d came %v after the drop, want floor·2^(k-1) = %v jittered to [%v, %v]", k, wait, max, max/2, max)
				}
				s.hello(sc.t)
				s.recv(ack("g1", 0))
				sc.live = s
			}
		}},
		{"uptime counts from the accept, not the dial", func(sc *script) {
			// A handshake that took 600 ms and a session that then lived
			// 600 ms is a young session: it backs off. One that lived a
			// full second redials at once.
			for _, lived := range []time.Duration{600 * time.Millisecond, time.Second} {
				s := sc.redial(0)
				sc.tr.clk.Add(600 * time.Millisecond)
				s.recv(ack("g1", 0))
				sc.tier.awaitAccepted(sc.t, s)
				sc.tr.clk.Add(lived)
				dropped := sc.tr.clk.Now()
				s.kill()
				s2 := sc.tr.next(sc.t, "redial after the drop")
				if young, wait := lived < time.Second, s2.at.Sub(dropped); young != (wait > 0) {
					sc.t.Fatalf("a session that lived %v redialed %v after its drop", lived, wait)
				}
				s2.hello(sc.t)
				s2.recv(ack("g1", 0))
				sc.live = s2
			}
		}},
		{"a failed hello Send is a dead session", func(sc *script) {
			// A hello Send that errs is the session's death: the attempt
			// fails at once, with no ack wait, and backs off one step.
			sc.tr.failHello = true
			s := sc.redial(0)
			s.awaitClosed(sc.t, "a session whose hello Send failed must be hung up")
			sc.tr.failHello = false
			s2 := sc.tr.next(sc.t, "the redial after a failed hello Send")
			if wait := s2.at.Sub(s.at); wait == 0 || wait > 2*redialFloor {
				sc.t.Fatalf("redial %v after a failed hello Send, want one backoff step", wait)
			}
			s2.hello(sc.t)
			s2.recv(ack("g1", 0))
			sc.tier.awaitAccepted(sc.t, s2)
		}},
		{"a loopback refusal is classified from its ack", func(sc *script) {
			// The hello's Send succeeds and the failure ack, then the
			// session's death, arrive inside it: the refusal settles at
			// once, with no ack wait.
			r := refusal("device banned")
			sc.tr.answer, sc.tr.hangUp = &r, true
			s := sc.redial(0)
			sc.tr.answer, sc.tr.hangUp = nil, false
			if sc.tier.final() && sc.tier.err() == nil {
				sc.t.Fatal("the refused hello had not stopped the device when it was sent")
			}
			sc.expectStopOrRedial(s, "device banned")
		}},
	}
	tiers := []struct {
		name string
		new  func() tier
	}{
		{"device", func() tier { return &deviceTier{} }},
		{"peer", func() tier { return &peerTier{} }},
	}
	for _, row := range rows {
		for _, tr := range tiers {
			t.Run(fmt.Sprintf("%s/%s", row.name, tr.name), func(t *testing.T) {
				row.run(boot(t, tr.new()))
			})
		}
	}
}

// TestRedialPeerGenChangeCondemns: a peer that answers under a new
// incarnation is condemned like a rolled-back one — its seqs are in a
// new namespace. (A device needs no such row: its hello carries a
// cursor per gen, so an unknown gen is simply resumed from 0;
// TestClientHubGenerationResync.)
func TestRedialPeerGenChangeCondemns(t *testing.T) {
	sc := boot(t, &peerTier{})
	sc.live.recv(sc.tier.push(0, 4))
	s := sc.redial(4)
	s.recv(ack("g2", 4))
	s.awaitClosed(t, "a session under a new gen must be hung up")
	sc.expectCursor("", 0, "after the gen change")
	s2 := sc.tr.next(t, "redial after the gen change")
	if seq := s2.hello(t).PeerHello.Seq; seq != 0 {
		t.Fatalf("hello to the new incarnation carried seq %d, want 0", seq)
	}
}

// TestRedialFencedArmFloorsCursor: an arm refused by the fencing rule
// floors the link cursor below its seq, whatever arrives after it, so
// the next handshake's replay still carries the refused arming.
func TestRedialFencedArmFloorsCursor(t *testing.T) {
	p := &peerTier{}
	sc := boot(t, p)
	sc.live.recv(p.push(0, 1))
	// Fenced: a stale fence on a key the ring gives to hub0, not the peer.
	fenced := p.push(0, 3)
	fenced.Arm.Sig = wire.FromCore(sigOwnedBy(t, p.node.Ring(), "hub0"))
	fenced.Arm.Fence = 0
	sc.live.recv(fenced)
	sc.live.recv(p.push(1, 5))
	if n := p.hub.Stats().Fenced; n != 1 {
		t.Fatalf("%d arms fenced, want 1", n)
	}
	sc.expectCursor("", 2, "after an accepted arm past the fenced one")
	sc.redial(2)
}

// TestPeerSeenKicksBackoff: an accepted inbound hello from a peer
// (PeerSeen) ends the outbound link's redial backoff at once and resets
// it to the floor. Without the kick a restarted hub waits out the
// survivors' backoff — jittered to at least 1 s at the 2 s cap — while
// its own 1 s failure detector runs, and condemns them.
func TestPeerSeenKicksBackoff(t *testing.T) {
	tr := &scriptedTransport{clk: clock.NewMock(fleetStart)}
	tr.down = true
	p := &peerTier{}
	p.start(t, tr)
	t.Cleanup(p.close)
	// Failed dial k waits floor·2^(k-1), capped at 2 s from the 10th on.
	for tr.refused < 10 {
		tr.clk.Add(time.Millisecond)
	}
	tr.down = false
	seen := tr.clk.Now()
	p.node.PeerSeen("peer", "")
	// The kicked dial dies mid-handshake: with the backoff back at its
	// floor, the redial after it comes at once too.
	kicked := tr.next(t, "the kicked redial")
	killed := tr.clk.Now()
	kicked.kill()
	s := tr.next(t, "the redial after a failed kicked handshake")
	s.hello(t)
	s.recv(ack("g1", 0))
	p.awaitAccepted(t, s)
	if kicked.at != seen || s.at.Sub(killed) > redialFloor {
		t.Fatalf("dial %v after PeerSeen and redial %v after its death, want at once and within the %v floor",
			kicked.at.Sub(seen), s.at.Sub(killed), redialFloor)
	}
}

// heldAcks passes a loopback session through, but holds back acks
// while hold is set: a real handshake then waits at its last step.
type heldAcks struct {
	immunity.Transport
	hold  bool
	acks  []func()
	sever func() // kills the newest session the way a network would
}

func (h *heldAcks) Dial(recv func(wire.Message), down func(error)) (immunity.Session, error) {
	sess, err := h.Transport.Dial(func(m wire.Message) {
		if m.Type == wire.TypeAck && h.hold {
			h.acks = append(h.acks, func() { recv(m) })
			return
		}
		recv(m)
	}, down)
	h.sever = func() { sess.Close(); down(errors.New("severed")) }
	return sess, err
}

// TestRedialCloseRacesHandshake: Close arriving while a redial's
// handshake waits for its ack must leave no session behind on the hub,
// and the ack arriving after it installs none: the hub's session gauge
// returns to 0.
func TestRedialCloseRacesHandshake(t *testing.T) {
	for _, tier := range []string{"device", "peer"} {
		t.Run(tier, func(t *testing.T) {
			f := newFleet(t)
			hub, h := f.hub(1), &heldAcks{}
			h.Transport = immunity.NewLoopback(hub)
			sessions := hub.Metrics().Gauge("immunity_hub_device_sessions", "Devices currently attached by hello.")
			var dialer interface{ Close() }
			var err error
			if tier == "device" {
				dialer, err = immunity.Connect(h, "dev", newService(t, "dev"), immunity.WithClock[immunity.ClientOption](f.clk))
			} else {
				sessions = hub.Metrics().Gauge("immunity_hub_peer_sessions", "Peer hubs currently attached by peer-hello.")
				if _, err = cluster.New(cluster.Config{Self: "hub1", Hub: hub}); err == nil {
					dialer, err = cluster.New(cluster.Config{Self: "hub0", Hub: f.hub(1),
						Peers: []cluster.Member{{ID: "hub1", Transport: h}}})
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			f.settle()
			h.hold = true
			h.sever()
			f.within(time.Second, "the redial's ack to be held", func() bool { return len(h.acks) == 1 })
			dialer.Close()
			h.acks[0]()
			f.settle()
			if n := sessions.Value(); n != 0 {
				t.Fatalf("%d sessions left on the hub", n)
			}
		})
	}
}

// TestRedialPermanentDialError: a closed in-process hub can never come
// back, and its loopback says so. A device takes that as final; a peer
// takes nothing as final and keeps dialing.
func TestRedialPermanentDialError(t *testing.T) {
	t.Run("device", func(t *testing.T) {
		f := newFleet(t)
		hub := f.hub(1)
		p := f.phone("dev", "hub", hub)
		hub.Close()
		f.within(time.Second, "device to stop on the closed hub", func() bool {
			return p.client.Err() != nil && p.svc.Stats().Subscribers == 0
		})
	})
	t.Run("peer", func(t *testing.T) {
		f := newFleet(t)
		hubs, nodes := f.cluster(2, 1, 0)
		hubs[1].Close()
		base := nodes[0].Status()[0].Dials
		f.within(time.Second, "peer link to keep redialing the closed hub", func() bool {
			st := nodes[0].Status()[0]
			return !st.Connected && st.Dials >= base+3
		})
	})
}
