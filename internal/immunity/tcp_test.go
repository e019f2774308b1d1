package immunity

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// tcpFleet builds n phones connected to the hub over real sockets.
func tcpFleet(t *testing.T, hub *Exchange, addr string, n int) []*phoneSim {
	t.Helper()
	tr := NewTCPTransport(addr)
	phones := make([]*phoneSim, n)
	for i := range phones {
		svc, err := NewService(fmt.Sprintf("phone%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		proc, _ := attach(t, svc, "app")
		client, err := Connect(tr, svc.Name(), svc)
		if err != nil {
			t.Fatal(err)
		}
		phones[i] = &phoneSim{svc: svc, proc: proc, client: client}
		t.Cleanup(func() { client.Close(); svc.Close() })
	}
	return phones
}

// TestTCPFleetEndToEnd: the full confirm-before-arm scenario over real
// sockets — gating below threshold, arming and fleet-wide install at it.
func TestTCPFleetEndToEnd(t *testing.T) {
	hub := newTestHub(t, 2)
	srv, err := ServeTCP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	phones := tcpFleet(t, hub, srv.Addr(), 3)
	key := testSig(0).Key()

	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hub sees first report", func() bool { return len(hub.Provenance()) == 1 })
	// Below the threshold the hub arms nothing, so it has nothing to
	// broadcast: no phone can be armed later by this report.
	if st := hub.Stats(); st.Epoch != 0 || hub.ArmedCount() != 0 {
		t.Fatalf("one report below the threshold: epoch %d, %d armed; want 0 and 0", st.Epoch, hub.ArmedCount())
	}
	for i := 1; i < 3; i++ {
		if phones[i].armedOn(key) {
			t.Fatalf("phone%d armed below the confirmation threshold", i)
		}
	}
	if _, _, err := phones[1].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	for i, p := range phones {
		ph := p
		waitFor(t, fmt.Sprintf("phone%d armed", i), func() bool { return ph.armedOn(key) })
	}
	prov := hub.Provenance()[0]
	if !prov.Armed || prov.Confirmations != 2 {
		t.Fatalf("after threshold over TCP: %+v", prov)
	}

	// FetchStatus sees the same picture over its own throwaway session.
	st, err := FetchStatus(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Threshold != 2 || len(st.Provenance) != 1 || !st.Provenance[0].Armed {
		t.Fatalf("status = %+v, want epoch 1, threshold 2, one armed signature", st)
	}
	if len(st.Devices) != 3 {
		t.Fatalf("status devices = %v, want 3", st.Devices)
	}
}

// TestTCPReconnectRestoresConfirmation is the regression test for the
// close-then-reconnect path: ExchangeClient.Close followed by a new
// Connect of the same device id must resume the device's prior
// confirmation state — its earlier confirmation still counts (nothing is
// lost) and its re-report does not count twice (nothing is double
// counted, so a single device bouncing cannot arm the fleet alone).
func TestTCPReconnectRestoresConfirmation(t *testing.T) {
	hub := newTestHub(t, 2)
	srv, err := ServeTCP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	phones := tcpFleet(t, hub, srv.Addr(), 2)

	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first confirmation", func() bool {
		prov := hub.Provenance()
		return len(prov) == 1 && prov[0].Confirmations == 1
	})

	// phone0 disconnects and reconnects as a fresh client over TCP; the
	// epoch-0 resubscription re-reports its whole local history.
	phones[0].client.Close()
	reportsBefore := hub.Stats().Reports
	client, err := Connect(NewTCPTransport(srv.Addr()), "phone0", phones[0].svc)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	phones[0].client = client
	waitFor(t, "re-report landed", func() bool { return hub.Stats().Reports > reportsBefore })

	prov := hub.Provenance()[0]
	if prov.Armed {
		t.Fatalf("reconnect armed the fleet below threshold: %+v", prov)
	}
	if prov.Confirmations != 1 || len(prov.ConfirmedBy) != 1 || prov.ConfirmedBy[0] != "phone0" {
		t.Fatalf("reconnect did not restore confirmation state: %+v, want exactly phone0", prov)
	}

	// The restored state still counts toward the threshold: one more
	// distinct device arms the fleet.
	if _, _, err := phones[1].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	key := testSig(0).Key()
	waitFor(t, "fleet armed at threshold", func() bool {
		prov := hub.Provenance()[0]
		return prov.Armed && prov.Confirmations == 2
	})
	for i, p := range phones {
		ph := p
		waitFor(t, fmt.Sprintf("phone%d armed", i), func() bool { return ph.armedOn(key) })
	}
}

// TestTCPSessionDropReconnects: a dropped socket (server restart) is
// redialed automatically, the hello resubscribes from the last applied
// epoch, and traffic resumes — no client restart needed.
func TestTCPSessionDropReconnects(t *testing.T) {
	hub := newTestHub(t, 1)
	srv, err := ServeTCP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	phones := tcpFleet(t, hub, addr, 2)
	key0 := testSig(0).Key()

	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "phone1 armed", func() bool { return phones[1].armedOn(key0) })

	// Drop every socket; the hub stays up (only the listener bounces).
	srv.Close()
	srv2, err := ServeTCP(hub, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "clients redialed", func() bool {
		return phones[0].client.Reconnects() >= 1 && phones[1].client.Reconnects() >= 1
	})

	// New detections still propagate after the bounce.
	if _, _, err := phones[0].svc.Publish("local", testSig(1)); err != nil {
		t.Fatal(err)
	}
	key1 := testSig(1).Key()
	waitFor(t, "phone1 armed with post-bounce antibody", func() bool { return phones[1].armedOn(key1) })
}

// TestClientEpochRegressionResync: a client whose stored fleet epoch is
// ahead of the hub's (the hub restarted without durable provenance, so
// its epoch counter reset) must detect the regression from the ack and
// resubscribe from zero — otherwise its catch-up filter would skip
// armings that happened while it was disconnected, forever.
func TestClientEpochRegressionResync(t *testing.T) {
	hub := newTestHub(t, 1)
	srv, err := ServeTCP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	// A on TCP; B on loopback (unaffected by the TCP bounce).
	svcA, err := NewService("phoneA", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svcA.Close()
	procA, _ := attach(t, svcA, "app")
	clientA, err := Connect(NewTCPTransport(addr), "phoneA", svcA)
	if err != nil {
		t.Fatal(err)
	}
	defer clientA.Close()
	svcB, err := NewService("phoneB", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svcB.Close()
	clientB, err := Connect(NewLoopback(hub), "phoneB", svcB)
	if err != nil {
		t.Fatal(err)
	}
	defer clientB.Close()

	if _, _, err := svcB.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	a := &phoneSim{svc: svcA, proc: procA}
	waitFor(t, "A armed with sig0", func() bool { return a.armedOn(testSig(0).Key()) })

	// Simulate A having synced with a pre-restart hub whose epochs ran
	// far ahead of this one's.
	clientA.mu.Lock()
	clientA.fleetEpochs[clientA.hubGen] = 99
	clientA.mu.Unlock()

	// Drop A's socket; while A is disconnected, the fleet arms sig1.
	srv.Close()
	if _, _, err := svcB.Publish("local", testSig(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sig1 armed while A is away", func() bool { return hub.ArmedCount() == 2 })
	srv2, err := ServeTCP(hub, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// A's redial hellos with epoch 99, sees the ack's lower epoch,
	// resets, and the epoch-0 catch-up replays what it missed.
	waitFor(t, "A armed with sig1 after resync", func() bool { return a.armedOn(testSig(1).Key()) })
	waitFor(t, "A's epoch matches the hub", func() bool { return clientA.FleetEpoch() == 2 })
}

// TestClientHubGenerationResync: a hub restarted WITHOUT durable
// provenance whose epoch counter has regrown to meet the client's is
// undetectable by epoch comparison alone — the ack's generation id must
// trigger the resubscribe-from-zero, or the client silently skips
// armings filtered against an epoch from the previous incarnation.
func TestClientHubGenerationResync(t *testing.T) {
	hub1, err := NewExchange(1)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := ServeTCP(hub1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	svcA, err := NewService("phoneA", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svcA.Close()
	procA, _ := attach(t, svcA, "app")
	clientA, err := Connect(NewTCPTransport(addr), "phoneA", svcA)
	if err != nil {
		t.Fatal(err)
	}
	defer clientA.Close()
	a := &phoneSim{svc: svcA, proc: procA}

	svcB1, err := NewService("phoneB", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svcB1.Close()
	clientB1, err := Connect(NewLoopback(hub1), "phoneB", svcB1)
	if err != nil {
		t.Fatal(err)
	}
	defer clientB1.Close()
	if _, _, err := svcB1.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "A armed with sig0 at epoch 1", func() bool { return a.armedOn(testSig(0).Key()) })

	// The hub dies with its state (no store). Before the TCP port comes
	// back — so A cannot reconnect early — a fresh hub arms a DIFFERENT
	// signature, regrowing its epoch to exactly A's (1).
	srv1.Close()
	hub1.Close()
	clientB1.Close()
	hub2 := newTestHub(t, 1)
	svcB2, err := NewService("phoneB2", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svcB2.Close()
	clientB2, err := Connect(NewLoopback(hub2), "phoneB2", svcB2)
	if err != nil {
		t.Fatal(err)
	}
	defer clientB2.Close()
	if _, _, err := svcB2.Publish("local", testSig(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "new hub armed sig1 at its epoch 1", func() bool { return hub2.ArmedCount() == 1 })

	srv2, err := ServeTCP(hub2, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// A reconnects with epoch 1 against a hub whose epoch is also 1 —
	// only the generation change reveals that sig1 is news to A.
	waitFor(t, "A armed with sig1 after generation resync", func() bool { return a.armedOn(testSig(1).Key()) })
}

// TestTCPVersionMismatchRejected: a hello whose version range does not
// contain wire.Version — or that is not even framed in the binary codec
// — is answered with a clean failure ack (where the frame could be
// read at all) and a closed connection, never a hang; a range that
// does contain it is acked at wire.Version.
func TestTCPVersionMismatchRejected(t *testing.T) {
	hub := newTestHub(t, 1)
	srv, err := ServeTCP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hello := func(v, minV, maxV int) []byte {
		b, err := wire.AppendFrame(nil, wire.Message{V: v, Type: wire.TypeHello,
			Hello: &wire.Hello{Device: "museum-piece", MinV: minV, MaxV: maxV}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	jsonHello := `{"v":2,"type":"hello","hello":{"device":"museum-piece","min_v":1,"max_v":2}}`
	cases := []struct {
		name  string
		frame []byte
		acked bool // an ack frame comes back (refusal or ok)
		ok    bool
	}{
		{"bare hello far ahead", hello(wire.Version+41, 0, 0), true, false},
		{"range below", hello(wire.Version-1, 1, wire.Version-1), true, false},
		{"range above", hello(wire.Version+1, wire.Version+1, wire.Version+9), true, false},
		{"envelope outside its own range", hello(wire.Version-1, wire.Version, wire.Version), true, false},
		{"range reaching past", hello(wire.Version, wire.Version, wire.Version+1), true, true},
		{"JSON-flagged frame", append([]byte{0, 0, 0, byte(len(jsonHello))}, jsonHello...), false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := nc.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			if tc.acked {
				m, err := wire.ReadFrame(nc)
				if err != nil {
					t.Fatalf("want an ack, got read error %v", err)
				}
				if m.Type != wire.TypeAck || m.Ack.OK != tc.ok {
					t.Fatalf("want ack ok=%v, got %+v", tc.ok, m)
				}
				if tc.ok {
					if m.V != wire.Version || m.Ack.V != wire.Version {
						t.Fatalf("acked at envelope v%d / ack v%d, want v%d", m.V, m.Ack.V, wire.Version)
					}
					return
				}
				if !strings.Contains(m.Ack.Error, "version") {
					t.Fatalf("ack error %q does not name the version", m.Ack.Error)
				}
			}
			// The hub hangs up after the refusal: the next read fails fast
			// rather than deadline-expiring (which would mean a hang).
			start := time.Now()
			if _, err := wire.ReadFrame(nc); err == nil {
				t.Fatal("connection still open after version refusal")
			}
			if time.Since(start) > 4*time.Second {
				t.Fatal("refused client hung instead of being disconnected")
			}
		})
	}

	// And the client-side API surfaces it as a permanent connect error.
	svc, err := NewService("old-phone", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := Connect(badVersionTransport{NewTCPTransport(srv.Addr())}, "old-phone", svc); err == nil {
		t.Fatal("version-mismatched Connect succeeded")
	}
}

// badVersionTransport rewrites outgoing hellos to a wrong version,
// simulating an old client binary on the real TCP path.
type badVersionTransport struct{ inner Transport }

func (b badVersionTransport) Dial(recv func(wire.Message), down func(err error)) (Session, error) {
	s, err := b.inner.Dial(recv, down)
	if err != nil {
		return nil, err
	}
	return badVersionSession{s}, nil
}

type badVersionSession struct{ Session }

func (s badVersionSession) Send(m wire.Message) error {
	if m.Type == wire.TypeHello {
		m.V = 0
	}
	return s.Session.Send(m)
}

// gatedConn is one end of a net.Pipe whose writes the test holds: each
// Write hands a copy of its bytes to writes and returns once the test
// sends on release — nil to succeed, an error to fail it. Reads come
// from the pipe, so the session's read loop blocks until the conn
// closes; closed is closed with it.
type gatedConn struct {
	net.Conn
	writes  chan []byte // buffered past the writes any test leaves unread
	release chan error
	closed  chan struct{}
	once    sync.Once
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.writes <- append([]byte(nil), b...)
	if err := <-c.release; err != nil {
		return 0, err
	}
	return len(b), nil
}

func (c *gatedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// gatedSession runs a client session on a gatedConn; every down it
// fires lands on downs.
func gatedSession(t *testing.T) (*tcpSession, *gatedConn, chan error) {
	t.Helper()
	end, peer := net.Pipe()
	c := &gatedConn{Conn: end, writes: make(chan []byte, 16), release: make(chan error), closed: make(chan struct{})}
	downs := make(chan error, 2)
	s := newTCPSession(c, func(wire.Message) {}, func(err error) { downs <- err })
	t.Cleanup(func() {
		s.Close()
		close(c.release) // every held and later write succeeds
		peer.Close()
	})
	return s, c, downs
}

// seqPing is frame i of a contract test; pad pads it to a chosen size.
func seqPing(i int, pad string) wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypePing, Ping: &wire.Ping{From: pad, Target: "hub", Seq: uint64(i)}}
}

// frameSeqs decodes one write and returns its frames' sequence numbers.
func frameSeqs(t *testing.T, b []byte) []uint64 {
	t.Helper()
	r := wire.NewReader(bytes.NewReader(b))
	var seqs []uint64
	for {
		m, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			return seqs
		}
		if err != nil {
			t.Fatalf("write of %d bytes: %v", len(b), err)
		}
		seqs = append(seqs, m.Ping.Seq)
	}
}

func mustSend(t *testing.T, s *tcpSession, m wire.Message) {
	t.Helper()
	if err := s.Send(m); err != nil {
		t.Fatalf("send %d: %v", m.Ping.Seq, err)
	}
}

// TestTCPSessionCoalescesWhileAWriteIsBlocked: the frames sent while a
// write is in flight leave together, in Send order, in the next write.
func TestTCPSessionCoalescesWhileAWriteIsBlocked(t *testing.T) {
	s, c, _ := gatedSession(t)
	mustSend(t, s, seqPing(0, ""))
	if got := frameSeqs(t, <-c.writes); !slices.Equal(got, []uint64{0}) {
		t.Fatalf("first write carries %v, want [0]", got)
	}
	for i := 1; i <= 3; i++ {
		mustSend(t, s, seqPing(i, ""))
	}
	c.release <- nil
	if got := frameSeqs(t, <-c.writes); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("the write after the blocked one carries %v, want [1 2 3]", got)
	}
	c.release <- nil
}

// TestTCPSessionWriteErrorIsSticky: a failed write fails every later
// Send with its error and fires down once; Close after it fires none.
func TestTCPSessionWriteErrorIsSticky(t *testing.T) {
	s, c, downs := gatedSession(t)
	boom := errors.New("boom")
	mustSend(t, s, seqPing(0, ""))
	<-c.writes
	c.release <- boom
	if err := <-downs; !errors.Is(err, boom) {
		t.Fatalf("down fired with %v, want %v", err, boom)
	}
	for i := 1; i <= 2; i++ {
		if err := s.Send(seqPing(i, "")); !errors.Is(err, boom) {
			t.Fatalf("send %d after the failed write: %v, want %v", i, err, boom)
		}
	}
	s.Close()
	if len(downs) != 0 {
		t.Fatalf("down fired again: %v", <-downs)
	}
}

// TestTCPSessionPendingBound: while a write is blocked, Send parks once
// pendingLimit bytes are pending — never more than the bound plus one
// frame — and every frame still leaves, in order, in writes of at most
// that size.
func TestTCPSessionPendingBound(t *testing.T) {
	s, c, _ := gatedSession(t)
	pad := strings.Repeat("x", 1000)
	frame, err := wire.AppendFrame(nil, seqPing(0, pad))
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * pendingLimit / len(frame)
	mustSend(t, s, seqPing(0, pad))
	got := frameSeqs(t, <-c.writes)
	sent := make(chan error, 1)
	go func() {
		for i := 1; i < n; i++ {
			if err := s.Send(seqPing(i, pad)); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	waitFor(t, "a Send parked on the bound", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.parked > 0
	})
	s.mu.Lock()
	pending := len(s.pending)
	s.mu.Unlock()
	if pending < pendingLimit || pending >= pendingLimit+len(frame) {
		t.Fatalf("a Send parked with %d bytes pending, want [%d, %d)", pending, pendingLimit, pendingLimit+len(frame))
	}
	for len(got) < n {
		c.release <- nil
		w := <-c.writes
		if len(w) >= pendingLimit+len(frame) {
			t.Fatalf("a write of %d bytes, want under %d", len(w), pendingLimit+len(frame))
		}
		got = append(got, frameSeqs(t, w)...)
	}
	c.release <- nil
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("frame %d of %d arrived as %d", i, n, seq)
		}
	}
}

// TestTCPSessionCloseFlushes: Close returns while a write is blocked;
// the frames sent before it still leave, then the conn closes, and down
// never fires.
func TestTCPSessionCloseFlushes(t *testing.T) {
	s, c, downs := gatedSession(t)
	mustSend(t, s, seqPing(0, ""))
	<-c.writes
	mustSend(t, s, seqPing(1, ""))
	mustSend(t, s, seqPing(2, ""))
	s.Close()
	if err := s.Send(seqPing(3, "")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("send after Close: %v, want %v", err, net.ErrClosed)
	}
	c.release <- nil
	select {
	case w := <-c.writes:
		if got := frameSeqs(t, w); !slices.Equal(got, []uint64{1, 2}) {
			t.Fatalf("the flush carries %v, want [1 2]", got)
		}
	case <-c.closed:
		t.Fatal("the conn closed with frames 1 and 2 unwritten")
	}
	c.release <- nil
	<-c.closed
	if len(downs) != 0 {
		t.Fatalf("down fired after Close: %v", <-downs)
	}
}

// recordingConn records the size of every Write.
type recordingConn struct {
	net.Conn
	writes []int
	out    bytes.Buffer
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.writes = append(c.writes, len(b))
	return c.out.Write(b)
}

// TestTCPSessionWriteFramesWithoutWritev: on a conn without writev (TLS
// among them) writeFrames gathers runs of frames into writes of at most
// writeChunk bytes, writes a frame too big for a run as it is, and keeps
// the order.
func TestTCPSessionWriteFramesWithoutWritev(t *testing.T) {
	var frames [][]byte
	var want bytes.Buffer
	for i, size := range []int{100, writeChunk - 150, 100, 2 * writeChunk, 10, 20} {
		f, err := wire.AppendFrame(nil, seqPing(i, strings.Repeat("x", size)))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		want.Write(f)
	}
	// Runs: frames 0-1 fit one chunk; 2 alone (3 would overflow it); 3
	// alone, past the chunk; 4-5 together.
	wantWrites := []int{len(frames[0]) + len(frames[1]), len(frames[2]), len(frames[3]), len(frames[4]) + len(frames[5])}
	c := &recordingConn{}
	if err := writeFrames(c, frames); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.writes, wantWrites) {
		t.Fatalf("writes %v, want %v", c.writes, wantWrites)
	}
	if !bytes.Equal(c.out.Bytes(), want.Bytes()) {
		t.Fatal("the written bytes are not the frames in order")
	}
}

// pipeDevice is a device's end of a net.Pipe whose other end the hub
// serves as ServeTCP serves an accepted conn. Each write is one Write,
// so its frames reach the hub's read buffer together. The end carries a
// deadline: a hub that stops answering fails the test instead of
// hanging it.
type pipeDevice struct {
	t  *testing.T
	nc net.Conn
	fr *wire.Reader
}

func pipeHub(t *testing.T, hub *Exchange) *pipeDevice {
	t.Helper()
	end, dev := net.Pipe()
	s := &ExchangeServer{hub: hub, socks: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.serve(end)
	t.Cleanup(func() { dev.Close(); s.wg.Wait() })
	dev.SetDeadline(time.Now().Add(10 * time.Second))
	return &pipeDevice{t: t, nc: dev, fr: wire.NewReader(dev)}
}

func (d *pipeDevice) frames(ms ...wire.Message) []byte {
	d.t.Helper()
	var b []byte
	for _, m := range ms {
		var err error
		if b, err = wire.AppendFrame(b, m); err != nil {
			d.t.Fatal(err)
		}
	}
	return b
}

func (d *pipeDevice) write(b []byte) {
	d.t.Helper()
	if _, err := d.nc.Write(b); err != nil {
		d.t.Fatal(err)
	}
}

func (d *pipeDevice) read() wire.Message {
	d.t.Helper()
	m, err := d.fr.ReadFrame()
	if err != nil {
		d.t.Fatalf("reading the hub's next frame: %v", err)
	}
	return m
}

// confirms reads one confirm receipt per signature of sigs, in order.
func (d *pipeDevice) confirms(sigs ...int) {
	d.t.Helper()
	for _, i := range sigs {
		if m := d.read(); m.Type != wire.TypeConfirm || m.Confirm.Key != testSig(i).Key() {
			d.t.Fatalf("got %s %+v, want the confirm of signature %d", m.Type, m.Confirm, i)
		}
	}
}

// refusal reads the failure ack naming reason, then the hang-up.
func (d *pipeDevice) refusal(reason string) {
	d.t.Helper()
	if m := d.read(); m.Type != wire.TypeAck || m.Ack.OK || !strings.Contains(m.Ack.Error, reason) {
		d.t.Fatalf("got %s %+v, want a failure ack for %q", m.Type, m.Ack, reason)
	}
	if m, err := d.fr.ReadFrame(); !errors.Is(err, io.EOF) {
		d.t.Fatalf("after the refusal: %s, %v; want the hang-up", m.Type, err)
	}
}

func helloFrame(device string) wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: device, MinV: wire.MinVersion, MaxV: wire.Version}}
}

func reportFrame(sigs ...wire.Signature) wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeReport, Report: &wire.Report{Sigs: sigs}}
}

// reports is one report frame per signature i of ids.
func reports(ids ...int) []wire.Message {
	ms := make([]wire.Message, len(ids))
	for k, i := range ids {
		ms[k] = reportFrame(wire.FromCore(testSig(i)))
	}
	return ms
}

// attached serves a fresh hub over a pipe and attaches device phone0.
func attached(t *testing.T, threshold int) (*Exchange, *countingStore, *pipeDevice) {
	t.Helper()
	store := &countingStore{ProvenanceStore: NewMemProvenance()}
	hub := newTestHub(t, threshold, WithProvenanceStore(store))
	d := pipeHub(t, hub)
	d.write(d.frames(helloFrame("phone0")))
	if m := d.read(); m.Type != wire.TypeAck || !m.Ack.OK {
		t.Fatalf("hello answered with %s %+v", m.Type, m.Ack)
	}
	return hub, store, d
}

// provenanceKeys is the hub's recorded signature keys, in first-report
// order.
func provenanceKeys(hub *Exchange) []string {
	var keys []string
	for _, p := range hub.Provenance() {
		keys = append(keys, p.Key)
	}
	return keys
}

func sigKeys(ids ...int) []string {
	keys := make([]string, len(ids))
	for k, i := range ids {
		keys[k] = testSig(i).Key()
	}
	return keys
}

// TestReportRunIsOneMutation: report frames that reach the hub's read
// buffer together are one mutation — one admission permit, one
// provenance write, one delta — with a confirm receipt per signature in
// frame order and every per-signature count exact.
func TestReportRunIsOneMutation(t *testing.T) {
	const n = 8
	hub, store, d := attached(t, 1)
	batches := store.batches.Load()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	d.write(d.frames(reports(ids...)...))
	if m := d.read(); m.Type != wire.TypeDelta || m.Delta.Epoch != n || len(m.Delta.Sigs) != n {
		t.Fatalf("got %s %+v, want one delta arming all %d signatures", m.Type, m.Delta, n)
	}
	d.confirms(ids...)
	if got := store.batches.Load() - batches; got != 1 {
		t.Errorf("%d report frames made %d provenance writes, want 1", n, got)
	}
	st := hub.Stats()
	if st.Reports != n || st.Confirmations != n || st.Echoes != 0 || st.AdmissionAdmitted != 1 {
		t.Errorf("stats %+v: want %d reports and confirmations, no echo, one admitted run", st, n)
	}
}

// TestReportRunRefusesAtTheMalformedFrame: a frame with a malformed
// signature is refused as it would be alone: the frames before it are
// recorded and confirmed first, and neither its own well-formed
// signature nor any later frame reaches the hub.
func TestReportRunRefusesAtTheMalformedFrame(t *testing.T) {
	hub, _, d := attached(t, 2)
	bad := reportFrame(wire.FromCore(testSig(2)), wire.Signature{Kind: "gridlock", Pairs: []wire.SigPair{{Outer: "A.m:1", Inner: "A.m:1"}}})
	d.write(d.frames(append(reports(0, 1), bad, reports(3)[0])...))
	d.confirms(0, 1)
	d.refusal("malformed reported signature")
	if got, want := provenanceKeys(hub), sigKeys(0, 1); !slices.Equal(got, want) {
		t.Fatalf("provenance %v, want %v", got, want)
	}
	if st := hub.Stats(); st.Reports != 2 {
		t.Fatalf("%d reports counted, want 2", st.Reports)
	}
}

// TestReportRunAnswersInPlace: a status request inside a run of reports
// is answered between the receipts of the frames around it, and sees
// only the frames before it; a duplicate hello inside a run is refused
// after the earlier frames' receipts, and no later frame is recorded.
func TestReportRunAnswersInPlace(t *testing.T) {
	hub, _, d := attached(t, 2)
	statusReq := wire.Message{V: wire.Version, Type: wire.TypeStatusReq}
	d.write(d.frames(append(reports(0, 1), statusReq, reports(2)[0])...))
	d.confirms(0, 1)
	if m := d.read(); m.Type != wire.TypeStatus || len(m.Status.Provenance) != 2 {
		t.Fatalf("got %s %+v, want the status after two reports", m.Type, m.Status)
	}
	d.confirms(2)

	d.write(d.frames(reports(3)[0], helloFrame("phone0"), reports(4)[0]))
	d.confirms(3)
	d.refusal("duplicate hello")
	if got, want := provenanceKeys(hub), sigKeys(0, 1, 2, 3); !slices.Equal(got, want) {
		t.Fatalf("provenance %v, want %v", got, want)
	}
}

// TestReportRunStopsAtAPartialFrame: a run ends at the last whole frame
// in the read buffer: the hub answers it without waiting for the rest
// of a frame that is still arriving, then answers that one when it is
// whole.
func TestReportRunStopsAtAPartialFrame(t *testing.T) {
	_, store, d := attached(t, 2)
	batches := store.batches.Load()
	b := d.frames(reports(0, 1, 2)...)
	cut := len(b) - 5
	d.write(b[:cut])
	d.confirms(0, 1)
	d.write(b[cut:])
	d.confirms(2)
	if got := store.batches.Load() - batches; got != 2 {
		t.Fatalf("%d provenance writes, want 2: the two whole frames, then the third", got)
	}
}
