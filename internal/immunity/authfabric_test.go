package immunity

import (
	"crypto/tls"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// authFleetKey signs every token in these tests.
var authFleetKey = []byte("test-fleet-signing-key")

// authTLSHub boots a TLS hub requiring token auth: the listener serves
// a CA-issued certificate (client certs verified against the same CA
// when presented) and every hello must carry a token under
// authFleetKey. Returns the hub, the server, the CA, and the dial
// options a trusting client uses.
func authTLSHub(t *testing.T, threshold int, opts ...ExchangeOption) (*Exchange, *ExchangeServer, *auth.CA, []TCPOption) {
	t.Helper()
	ca, err := auth.NewCA("test-fleet-ca")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueTLS("hub0", nil)
	if err != nil {
		t.Fatal(err)
	}
	hub := newTestHub(t, threshold,
		append([]ExchangeOption{WithAuthVerifier(auth.NewStatic(authFleetKey))}, opts...)...)
	srv, err := ServeTCP(hub, "127.0.0.1:0", WithServeTLS(auth.ServerConfig(leaf, ca.Pool())))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return hub, srv, ca, []TCPOption{WithDialTLS(auth.ClientConfig(ca.Pool(), ""))}
}

// mintFor signs a token for the given claims under the fleet key.
func mintFor(t *testing.T, c auth.Claims) string {
	t.Helper()
	token, err := auth.Mint(authFleetKey, c)
	if err != nil {
		t.Fatal(err)
	}
	return token
}

// authPhone connects one device through the TLS+token path.
func authPhone(t *testing.T, name, token string, addr string, dial []TCPOption) *phoneSim {
	t.Helper()
	svc, err := NewService(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc, _ := attach(t, svc, "app")
	client, err := Connect(NewTCPTransport(addr, dial...), name, svc, WithClientToken(token))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); svc.Close() })
	return &phoneSim{svc: svc, proc: proc, client: client}
}

// TestTLSAuthFleetEndToEnd: the confirm-before-arm scenario with the
// full fabric on — TLS on the sockets, a device-bound token on one
// phone and a tenant-wide wildcard token on the other. Arming still
// gates at the threshold and propagates to both.
func TestTLSAuthFleetEndToEnd(t *testing.T) {
	hub, srv, _, dial := authTLSHub(t, 2)
	p0 := authPhone(t, "phone0", mintFor(t, auth.Claims{Device: "phone0"}), srv.Addr(), dial)
	p1 := authPhone(t, "phone1", mintFor(t, auth.Claims{Device: auth.WildcardDevice}), srv.Addr(), dial)
	key := testSig(0).Key()

	if _, _, err := p0.svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hub sees first report", func() bool { return len(hub.Provenance()) == 1 })
	time.Sleep(20 * time.Millisecond)
	if p1.armedOn(key) {
		t.Fatal("armed below the confirmation threshold")
	}
	if _, _, err := p1.svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	for i, p := range []*phoneSim{p0, p1} {
		ph := p
		waitFor(t, fmt.Sprintf("phone%d armed over TLS", i), func() bool { return ph.armedOn(key) })
	}
	if n := hub.met.authFailures.With("missing-token").Value(); n != 0 {
		t.Fatalf("clean run counted %d auth failures", n)
	}
}

// TestAuthRefusalMatrix: every way a hello can fail authentication is
// refused with a clean error — never a registered session — and counted
// under its own reason label.
func TestAuthRefusalMatrix(t *testing.T) {
	hub, srv, _, dial := authTLSHub(t, 1)
	otherKey := []byte("not-the-fleet-key")
	badMac, err := auth.Mint(otherKey, auth.Claims{Device: "phone0"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		token  string
		reason string
		errHas string
	}{
		{"missing-token", "", "missing-token", "no token"},
		{"malformed", "not-a-token", "malformed", "malformed"},
		{"bad-signature", badMac, "bad-signature", "signature"},
		{"expired", mintFor(t, auth.Claims{Device: "phone0", Exp: time.Now().Add(-time.Hour).Unix()}), "expired", "expired"},
		{"device-mismatch", mintFor(t, auth.Claims{Device: "someone-else"}), "device-mismatch", "not issued for device"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewService("phone0", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			before := hub.met.authFailures.With(tc.reason).Value()
			var opts []ClientOption
			if tc.token != "" {
				opts = append(opts, WithClientToken(tc.token))
			}
			client, err := Connect(NewTCPTransport(srv.Addr(), dial...), "phone0", svc, opts...)
			if err == nil {
				client.Close()
				t.Fatalf("%s hello was accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("%s error %q does not mention %q", tc.name, err, tc.errHas)
			}
			if got := hub.met.authFailures.With(tc.reason).Value(); got != before+1 {
				t.Fatalf("%s counted %d → %d, want one %q refusal", tc.name, before, got, tc.reason)
			}
		})
	}
	// No refused hello leaked a registered device session.
	if st := hub.Status(); len(st.Devices) != 0 {
		t.Fatalf("refused hellos registered devices: %v", st.Devices)
	}
}

// TestTokenIgnoredByAuthDisabledHub: a v5 client carrying a token
// interoperates with an auth-disabled hub — the token rides the hello
// and is simply ignored, so fleets can roll tokens out to devices
// before the hubs start enforcing them.
func TestTokenIgnoredByAuthDisabledHub(t *testing.T) {
	hub := newTestHub(t, 1)
	srv, err := ServeTCP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	svc, err := NewService("phone0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	proc, _ := attach(t, svc, "app")
	client, err := Connect(NewTCPTransport(srv.Addr()), "phone0", svc,
		WithClientToken("junk-the-hub-never-reads"))
	if err != nil {
		t.Fatalf("token-carrying client refused by auth-disabled hub: %v", err)
	}
	defer client.Close()
	if _, _, err := svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	p := &phoneSim{svc: svc, proc: proc, client: client}
	waitFor(t, "armed through auth-disabled hub", func() bool { return p.armedOn(testSig(0).Key()) })
}

// TestPeerHelloIdentityEnforced: with peer auth on, a peer-hello is
// only accepted when the claimed hub id is backed by a fleet-CA
// client certificate naming it. A rogue hub with a certificate from a
// different CA completes the handshake certless (its cert cannot chain
// to the hub's client CA pool) and is refused at the hello; so is a
// fleet member claiming an id its certificate does not carry.
func TestPeerHelloIdentityEnforced(t *testing.T) {
	ca, err := auth.NewCA("test-fleet-ca")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueTLS("hub0", nil)
	if err != nil {
		t.Fatal(err)
	}
	hub := newTestHub(t, 1, WithPeerAuth())
	srv, err := ServeTCP(hub, "127.0.0.1:0", WithServeTLS(auth.ServerConfig(leaf, ca.Pool())))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rogueCA, err := auth.NewCA("rogue-ca")
	if err != nil {
		t.Fatal(err)
	}
	rogueLeaf, err := rogueCA.IssueTLS("hub1", nil)
	if err != nil {
		t.Fatal(err)
	}
	fleetLeaf, err := ca.IssueTLS("hub1", nil)
	if err != nil {
		t.Fatal(err)
	}

	peerHello := func(cert tls.Certificate, claim string) *wire.Ack {
		t.Helper()
		nc, err := tls.Dial("tcp", srv.Addr(), auth.PeerConfig(cert, ca.Pool(), ""))
		if err != nil {
			t.Fatalf("handshake as %s: %v", claim, err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		m := wire.Message{V: wire.Version, Type: wire.TypePeerHello,
			PeerHello: &wire.PeerHello{Hub: claim, MinV: wire.Version, MaxV: wire.Version}}
		if err := wire.WriteFrame(nc, m); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatalf("want an ack for %s, got read error %v", claim, err)
		}
		if resp.Type != wire.TypeAck {
			t.Fatalf("want an ack for %s, got %+v", claim, resp)
		}
		return resp.Ack
	}

	before := hub.met.authFailures.With("peer-identity").Value()
	if ack := peerHello(rogueLeaf, "hub1"); ack.OK || !strings.Contains(ack.Error, "transport identity") {
		t.Fatalf("rogue-CA peer-hello not refused on identity: %+v", ack)
	}
	if ack := peerHello(fleetLeaf, "impostor"); ack.OK || !strings.Contains(ack.Error, "transport identity") {
		t.Fatalf("misclaimed peer-hello not refused on identity: %+v", ack)
	}
	if got := hub.met.authFailures.With("peer-identity").Value(); got != before+2 {
		t.Fatalf("peer-identity refusals counted %d → %d, want two", before, got)
	}
	// A fleet certificate whose CN matches the claim clears the identity
	// gate (this unclustered hub then refuses on clustering, not auth).
	if ack := peerHello(fleetLeaf, "hub1"); ack.OK || !strings.Contains(ack.Error, "not clustered") {
		t.Fatalf("matching peer identity refused on the wrong gate: %+v", ack)
	}
}
