package auth

import (
	"crypto/tls"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var t0 = time.Unix(1700000000, 0)

// TestTokenMatrix is the negative-path matrix: a good token verifies to
// its claims, and every tampering — expiry, wrong key, truncation,
// claim surgery — is refused with the right typed error.
func TestTokenMatrix(t *testing.T) {
	key := []byte("fleet-signing-key")
	v := NewStatic(key)
	good, err := Mint(key, Claims{Tenant: "acme", Device: "phone-1", Exp: t0.Add(time.Hour).Unix()})
	if err != nil {
		t.Fatal(err)
	}

	c, err := v.Verify(good, t0)
	if err != nil {
		t.Fatalf("good token refused: %v", err)
	}
	if c.Tenant != "acme" || c.Device != "phone-1" {
		t.Fatalf("wrong claims: %+v", c)
	}

	cases := []struct {
		name  string
		token string
		at    time.Time
		want  error
	}{
		{"expired", good, t0.Add(2 * time.Hour), ErrExpired},
		{"expiry boundary", good, t0.Add(time.Hour), ErrExpired},
		{"truncated", good[:len(good)-5], t0, ErrBadSignature},
		{"no dot", "nodotatall", t0, ErrMalformed},
		{"empty", "", t0, ErrMalformed},
		{"garbage payload", "!!!!.AAAA", t0, ErrMalformed},
	}
	// Claim surgery: re-mint the same claims under a different key.
	forged, err := Mint([]byte("attacker-key"), Claims{Tenant: "acme", Device: "phone-1"})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct {
		name  string
		token string
		at    time.Time
		want  error
	}{"wrong key", forged, t0, ErrBadSignature})

	for _, tc := range cases {
		if _, err := v.Verify(tc.token, tc.at); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// A token with no expiry never expires.
	forever, err := Mint(key, Claims{Device: "phone-2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(forever, t0.Add(100*365*24*time.Hour)); err != nil {
		t.Fatalf("no-expiry token refused: %v", err)
	}
}

func TestKeyring(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys")
	if err := os.WriteFile(path, []byte("# fleet keys\nv1:old-key\nv2:new-key\ndefault-key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	kr, err := LoadKeyring(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kid, key string
	}{{"v1", "old-key"}, {"v2", "new-key"}, {"", "default-key"}} {
		tok, err := Mint([]byte(tc.key), Claims{Device: "d", Kid: tc.kid})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := kr.Verify(tok, t0); err != nil {
			t.Errorf("kid %q refused: %v", tc.kid, err)
		}
	}
	// Unknown kid and cross-kid key reuse both refuse.
	tok, _ := Mint([]byte("old-key"), Claims{Device: "d", Kid: "v9"})
	if _, err := kr.Verify(tok, t0); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown kid: got %v", err)
	}
	tok, _ = Mint([]byte("old-key"), Claims{Device: "d", Kid: "v2"})
	if _, err := kr.Verify(tok, t0); !errors.Is(err, ErrBadSignature) {
		t.Errorf("cross-kid key: got %v", err)
	}
}

// TestTLSHandshakes drives the three config shapes over a real socket:
// a token-only client (no cert) and a cert-bearing peer both complete
// against one listener; the peer's identity comes out of the handshake;
// and a certificate from a different CA is refused.
func TestTLSHandshakes(t *testing.T) {
	ca, err := NewCA("fleet-ca")
	if err != nil {
		t.Fatal(err)
	}
	hubCert, err := ca.IssueTLS("hub0", nil)
	if err != nil {
		t.Fatal(err)
	}
	peerCert, err := ca.IssueTLS("hub1", nil)
	if err != nil {
		t.Fatal(err)
	}
	rogueCA, err := NewCA("rogue-ca")
	if err != nil {
		t.Fatal(err)
	}
	rogueCert, err := rogueCA.IssueTLS("hub1", nil)
	if err != nil {
		t.Fatal(err)
	}

	srvCfg := ServerConfig(hubCert, ca.Pool())
	ln, err := tls.Listen("tcp", "127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		id  string
		err error
	}
	accepted := make(chan result, 3)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				tc := nc.(*tls.Conn)
				if err := tc.Handshake(); err != nil {
					accepted <- result{err: err}
					return
				}
				accepted <- result{id: PeerIdentity(tc.ConnectionState())}
			}(nc)
		}
	}()

	dial := func(cfg *tls.Config) error {
		c, err := tls.Dial("tcp", ln.Addr().String(), cfg)
		if err != nil {
			return err
		}
		defer c.Close()
		return c.Handshake()
	}

	// Device shape: no client cert, server verified against the CA.
	if err := dial(ClientConfig(ca.Pool(), "")); err != nil {
		t.Fatalf("device handshake: %v", err)
	}
	if r := <-accepted; r.err != nil || r.id != "" {
		t.Fatalf("device session: identity %q err %v", r.id, r.err)
	}
	// Peer shape: mutual, identity = cert CN.
	if err := dial(PeerConfig(peerCert, ca.Pool(), "")); err != nil {
		t.Fatalf("peer handshake: %v", err)
	}
	if r := <-accepted; r.err != nil || r.id != "hub1" {
		t.Fatalf("peer session: identity %q err %v", r.id, r.err)
	}
	// Wrong-CA peer, polite client: Go withholds a cert whose issuer is
	// not in the server's advertised CA list, so the session completes
	// with NO identity — and the exchange's peer-hello identity check is
	// what refuses it. The invariant here: a wrong-CA cert never comes
	// out of PeerIdentity as an authenticated identity.
	if err := dial(PeerConfig(rogueCert, ca.Pool(), "")); err != nil {
		t.Fatalf("polite wrong-CA dial: %v", err)
	}
	if r := <-accepted; r.err != nil || r.id != "" {
		t.Fatalf("wrong-CA cert yielded identity %q (err %v)", r.id, r.err)
	}
	// Wrong-CA peer, hostile client: force the cert onto the wire —
	// the server's verification must kill the handshake.
	hostile := ClientConfig(ca.Pool(), "")
	hostile.GetClientCertificate = func(*tls.CertificateRequestInfo) (*tls.Certificate, error) {
		return &rogueCert, nil
	}
	if err := dial(hostile); err == nil {
		if r := <-accepted; r.err == nil {
			t.Fatal("forced wrong-CA peer cert accepted")
		}
	} else {
		<-accepted
	}
	// Client without the CA refuses the server.
	if err := dial(ClientConfig(rogueCA.Pool(), "")); err == nil {
		t.Fatal("client trusted a server outside its CA")
	}
}

// TestCASaveLoad round-trips the CA through PEM files and issues a
// working cert from the reloaded CA.
func TestCASaveLoad(t *testing.T) {
	dir := t.TempDir()
	ca, err := NewCA("fleet-ca")
	if err != nil {
		t.Fatal(err)
	}
	certFile, keyFile := filepath.Join(dir, "ca.pem"), filepath.Join(dir, "ca-key.pem")
	if err := ca.Save(certFile, keyFile); err != nil {
		t.Fatal(err)
	}
	ca2, err := LoadCA(certFile, keyFile)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca2.IssueTLS("hub0", nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", ServerConfig(cert, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { nc.(*tls.Conn).Handshake(); nc.Close() }()
		}
	}()
	// Verified against the original CA's pool: same root.
	c, err := tls.Dial("tcp", ln.Addr().String(), ClientConfig(ca.Pool(), ""))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
