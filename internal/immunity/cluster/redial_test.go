package cluster_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// The resumable-session table: one scripted transport drives the device
// tier's policy (immunity.Connect) and the peer tier's (cluster.New)
// through the same handshake scripts. The test goroutine delivers the
// ack, the traffic around it and the session's death itself, so the
// order of events is the script's order; nothing sleeps, and the only
// clock is scriptTimeout bounding how long a missing event may take to
// fail the row.

// scriptTimeout is far below the machine's 10 s hello timeout: a dialer
// that sits a handshake out instead of reacting fails its row.
const scriptTimeout = 3 * time.Second

// redialFloor is the machine's backoff floor (immunity's backoffMin).
const redialFloor = 5 * time.Millisecond

// scriptedTransport surfaces every Dial as a session on dials.
type scriptedTransport struct {
	// dials is sized so a runaway redial loop fills it instead of
	// blocking the dialer (rows read at most a handful).
	dials chan *scriptedSession

	// While down is set, Dial fails at once, as a dial to a dead hub
	// does, and counts the refusal.
	mu      sync.Mutex
	down    bool
	refused int
}

func (tr *scriptedTransport) setDown(down bool) {
	tr.mu.Lock()
	tr.down = down
	tr.mu.Unlock()
}

func (tr *scriptedTransport) refusals() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.refused
}

func newScriptedTransport() *scriptedTransport {
	return &scriptedTransport{dials: make(chan *scriptedSession, 1024)}
}

// scriptedSession is one dialed session: recv and down are the dialer's
// callbacks, sent is everything it sent, closed closes when it hangs up.
type scriptedSession struct {
	at     time.Time
	recv   func(wire.Message)
	down   func(error)
	sent   chan wire.Message // sized like dials: never blocks the dialer
	closed chan struct{}
	once   sync.Once
}

func (tr *scriptedTransport) Dial(recv func(wire.Message), down func(error)) (immunity.Session, error) {
	tr.mu.Lock()
	if tr.down {
		tr.refused++
		tr.mu.Unlock()
		return nil, errors.New("scripted: connection refused")
	}
	tr.mu.Unlock()
	s := &scriptedSession{at: time.Now(), recv: recv, down: down,
		sent: make(chan wire.Message, 1024), closed: make(chan struct{})}
	select {
	case tr.dials <- s:
	default:
	}
	return s, nil
}

func (s *scriptedSession) Send(m wire.Message) error {
	select {
	case s.sent <- m:
	default:
	}
	return nil
}

func (s *scriptedSession) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// next waits for the dialer's next Dial.
func (tr *scriptedTransport) next(t *testing.T, why string) *scriptedSession {
	t.Helper()
	select {
	case s := <-tr.dials:
		return s
	case <-time.After(scriptTimeout):
		t.Fatalf("no dial within %v: %s", scriptTimeout, why)
		return nil
	}
}

// hello waits for the session's first message, which must be a hello of
// either tier.
func (s *scriptedSession) hello(t *testing.T) wire.Message {
	t.Helper()
	select {
	case m := <-s.sent:
		if m.Type != wire.TypeHello && m.Type != wire.TypePeerHello {
			t.Fatalf("first message on a session is %q, want a hello", m.Type)
		}
		return m
	case <-time.After(scriptTimeout):
		t.Fatal("dialer sent no hello")
		return wire.Message{}
	}
}

func (s *scriptedSession) awaitClosed(t *testing.T, why string) {
	t.Helper()
	select {
	case <-s.closed:
	case <-time.After(scriptTimeout):
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

// tier is one policy under the table: how to boot its dialer over a
// transport and how to read what the machine and the policy did.
type tier interface {
	// start boots the dialer; it may return before the first handshake.
	start(t *testing.T, tr immunity.Transport)
	// awaitAccepted waits until the dialer treats s as its live session.
	awaitAccepted(t *testing.T, s *scriptedSession)
	// push is the tier's cursor-bearing message: fresh signature i at seq.
	push(i int, seq uint64) wire.Message
	// helloCursor is the resume cursor a hello carried for gen.
	helloCursor(hello wire.Message, gen string) uint64
	// cursor is the durable resume cursor for gen.
	cursor(gen string) uint64
	// installed counts the antibodies push messages installed.
	installed() int
	// reconnects counts accepted handshakes after the first.
	reconnects() uint64
	// final reports whether the tier takes a refusal as final; err is the
	// refusal that stopped it, and released reports that a stopped dialer
	// let go of what it held.
	final() bool
	err() error
	released() bool
	close()
}

// deviceTier is immunity.Connect over a Service holding one local
// signature, so every accepted handshake re-reports it — the accept
// event the script waits on.
type deviceTier struct {
	svc    *immunity.Service
	ready  chan connected
	client *immunity.ExchangeClient // nil until the script saw Connect return
}

type connected struct {
	client *immunity.ExchangeClient
	err    error
}

const localSig = 9000 // outside the ids the rows push

func (d *deviceTier) start(t *testing.T, tr immunity.Transport) {
	svc, err := immunity.NewService("dev", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Publish("local", testSig(localSig)); err != nil {
		t.Fatal(err)
	}
	d.svc, d.ready = svc, make(chan connected, 1)
	go func() {
		// Connect blocks on the first handshake, which the script drives.
		c, err := immunity.Connect(tr, "dev", svc)
		d.ready <- connected{c, err}
	}()
}

func (d *deviceTier) awaitAccepted(t *testing.T, s *scriptedSession) {
	t.Helper()
	select {
	case m := <-s.sent:
		if m.Type != wire.TypeReport {
			t.Fatalf("accepted device session sent %q, want the re-report", m.Type)
		}
	case <-time.After(scriptTimeout):
		t.Fatal("device never re-reported on the accepted session")
	}
	if d.client == nil {
		select {
		case c := <-d.ready:
			if c.err != nil {
				t.Fatalf("connect: %v", c.err)
			}
			d.client = c.client
		case <-time.After(scriptTimeout):
			t.Fatal("Connect did not return after the accepted handshake")
		}
	}
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
func (d *deviceTier) close() {
	if d.client != nil {
		d.client.Close()
	}
	d.svc.Close()
}

// peerTier is a cluster node with one outbound link, to "peer".
type peerTier struct {
	hub  *immunity.Exchange
	node *cluster.Node
}

func (p *peerTier) start(t *testing.T, tr immunity.Transport) {
	hub, err := immunity.NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.New(cluster.Config{Self: "hub0", Hub: hub,
		Peers: []cluster.Member{{ID: "peer", Transport: tr}}})
	if err != nil {
		t.Fatal(err)
	}
	p.hub, p.node = hub, node
}

func (p *peerTier) status() cluster.PeerStatus { return p.node.Status()[0] }

func (p *peerTier) awaitAccepted(t *testing.T, s *scriptedSession) {
	t.Helper()
	waitFor(t, "peer link connected", func() bool { return p.status().Connected })
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
	sc := &script{t: t, tier: tr, tr: newScriptedTransport()}
	tr.start(t, sc.tr)
	t.Cleanup(tr.close)
	sc.live = sc.tr.next(t, "the first dial")
	if c := tr.helloCursor(sc.live.hello(t), "g1"); c != 0 {
		t.Fatalf("first hello carried cursor %d", c)
	}
	sc.live.recv(ack("g1", 0))
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
	waitFor(sc.t, "the device to stop on the refusal", func() bool {
		return sc.tier.err() != nil && sc.tier.released()
	})
	if err := sc.tier.err(); !strings.Contains(err.Error(), reason) {
		sc.t.Fatalf("Err() = %q, want the hub's reason %q", err, reason)
	}
	sc.tier.close() // waits out the redial loop: past here no dial can follow
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
			if len(s.sent) != 0 {
				sc.t.Fatalf("dialer sent %q over a session that failed its handshake", (<-s.sent).Type)
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
			// the 10 s hello timeout here (2 dials in 3 s).
			s := sc.redial(0)
			s.kill()
			s.awaitClosed(sc.t, "a session that died un-acked must be hung up")
			s2 := sc.tr.next(sc.t, "a handshake whose session died is abandoned at once, not at the hello timeout")
			s2.hello(sc.t)
			s2.recv(ack("g1", 0))
			sc.tier.awaitAccepted(sc.t, s2)
		}},
		{"ack-then-drop backs off", func(sc *script) {
			// parent: the device reset its backoff on every drop and redialed
			// with no wait (> 10 000 dials in 500 ms).
			for k := 1; k <= 4; k++ {
				dropped := time.Now()
				sc.live.kill()
				s := sc.tr.next(sc.t, "redial after a short-lived session")
				if wait, min := s.at.Sub(dropped), redialFloor<<(k-1)/2; wait < min {
					sc.t.Fatalf("redial %d came %v after the drop, want ≥ %v (floor·2^(k-1), jittered to half)", k, wait, min)
				}
				s.hello(sc.t)
				s.recv(ack("g1", 0))
				sc.live = s
			}
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
			row, tr := row, tr
			t.Run(fmt.Sprintf("%s/%s", row.name, tr.name), func(t *testing.T) {
				t.Parallel()
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
// its own 1 s failure detector runs, and condemns them. Each run waits
// 1.3–2.6 s for the backoff to reach its cap, so the name stays outside
// the 'Redial|Handshake' pattern CI repeats twenty times.
func TestPeerSeenKicksBackoff(t *testing.T) {
	t.Parallel()
	const budget = 500 * time.Millisecond
	tr := newScriptedTransport()
	tr.setDown(true)
	p := &peerTier{}
	p.start(t, tr)
	t.Cleanup(p.close)
	// Failed dial k waits floor·2^(k-1), capped at 2 s from the 10th on.
	waitFor(t, "ten refused dials: the backoff at its cap", func() bool { return tr.refusals() >= 10 })
	tr.setDown(false)
	seen := time.Now()
	p.node.PeerSeen("peer", "")
	// The kicked dial dies mid-handshake: with the backoff back at its
	// floor, the redial after it comes at once too.
	tr.next(t, "the kicked redial").kill()
	s := tr.next(t, "the redial after a failed kicked handshake")
	s.hello(t)
	s.recv(ack("g1", 0))
	p.awaitAccepted(t, s)
	if took := time.Since(seen); took > budget {
		t.Fatalf("link connected %v after PeerSeen, want ≤ %v", took, budget)
	}
}

// gatedTransport holds back a session's OK ack until the gate opens, to
// park a real handshake at its last step.
type gatedTransport struct {
	inner immunity.Transport
	mu    sync.Mutex
	gate  chan struct{} // nil: open
	held  chan struct{} // receives once an ack is being held
	down  func(error)
	sess  immunity.Session
}

func (g *gatedTransport) Dial(recv func(wire.Message), down func(error)) (immunity.Session, error) {
	sess, err := g.inner.Dial(func(m wire.Message) {
		g.mu.Lock()
		gate, held := g.gate, g.held
		g.mu.Unlock()
		if m.Type == wire.TypeAck && gate != nil {
			held <- struct{}{}
			<-gate
		}
		recv(m)
	}, down)
	g.mu.Lock()
	g.down, g.sess = down, sess
	g.mu.Unlock()
	return sess, err
}

// sever kills the newest session the way a network would, and gates
// every later ack.
func (g *gatedTransport) sever() {
	g.mu.Lock()
	g.gate, g.held = make(chan struct{}), make(chan struct{}, 1)
	down, sess := g.down, g.sess
	g.mu.Unlock()
	sess.Close()
	down(errors.New("severed"))
}

// TestRedialCloseRacesHandshake: Close arriving while a redial's
// handshake is at its last step must leave no session behind on the
// hub, whichever of the two wins — the hub's session gauge returns to 0.
func TestRedialCloseRacesHandshake(t *testing.T) {
	t.Run("device", func(t *testing.T) {
		hub, err := immunity.NewExchange(1)
		if err != nil {
			t.Fatal(err)
		}
		defer hub.Close()
		g := &gatedTransport{inner: immunity.NewLoopback(hub)}
		p := newPhone(t, "dev", g)
		g.sever()
		<-g.held // the redial's hello is registered on the hub, its ack parked
		closed := make(chan struct{})
		go func() { p.client.Close(); close(closed) }()
		close(g.gate)
		<-closed
		waitFor(t, "hub device sessions back to 0", func() bool { return hub.Stats().Devices == 0 })
	})
	t.Run("peer", func(t *testing.T) {
		hubs := make([]*immunity.Exchange, 2)
		for i := range hubs {
			hub, err := immunity.NewExchange(1)
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			hubs[i] = hub
		}
		remote, err := cluster.New(cluster.Config{Self: "hub1", Hub: hubs[1]})
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()
		g := &gatedTransport{inner: immunity.NewLoopback(hubs[1])}
		node, err := cluster.New(cluster.Config{Self: "hub0", Hub: hubs[0],
			Peers: []cluster.Member{{ID: "hub1", Transport: g}}})
		if err != nil {
			t.Fatal(err)
		}
		sessions := hubs[1].Metrics().Gauge("immunity_hub_peer_sessions", "Peer hubs currently attached by peer-hello.")
		waitFor(t, "link up", func() bool { return node.Status()[0].Connected && sessions.Value() == 1 })
		g.sever()
		<-g.held
		closed := make(chan struct{})
		go func() { node.Close(); close(closed) }()
		close(g.gate)
		<-closed
		waitFor(t, "hub peer sessions back to 0", func() bool { return sessions.Value() == 0 })
	})
}

// TestRedialPermanentDialError: a closed in-process hub can never come
// back, and its loopback says so. A device takes that as final; a peer
// takes nothing as final and keeps dialing.
func TestRedialPermanentDialError(t *testing.T) {
	t.Run("device", func(t *testing.T) {
		hub, err := immunity.NewExchange(1)
		if err != nil {
			t.Fatal(err)
		}
		p := newPhone(t, "dev", immunity.NewLoopback(hub))
		hub.Close()
		waitFor(t, "device to stop on the closed hub", func() bool {
			return p.client.Err() != nil && p.svc.Stats().Subscribers == 0
		})
	})
	t.Run("peer", func(t *testing.T) {
		hubs, nodes := loopbackCluster(t, 2, 1)
		waitFor(t, "link up", func() bool { return nodes[0].Status()[0].Connected })
		hubs[1].Close()
		base := nodes[0].Status()[0].Dials
		waitFor(t, "peer link to keep redialing the closed hub", func() bool {
			st := nodes[0].Status()[0]
			return !st.Connected && st.Dials >= base+3
		})
	})
}
