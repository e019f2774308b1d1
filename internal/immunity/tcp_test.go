package immunity

import (
	"fmt"
	"net"
	"strings"
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
	time.Sleep(20 * time.Millisecond)
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
