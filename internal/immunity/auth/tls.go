// TLS material for the fleet fabric: a dev CA (one ECDSA P-256 root,
// minted in one command), leaf issuance for hubs and peers, and the
// three tls.Config shapes every connection path uses:
//
//   - device → hub: server-cert verification only; the device proves
//     itself with a bearer token, not a cert, so fleets need no
//     per-device PKI.
//   - hub accept: serves the hub cert; when a client CA pool is
//     configured, any *presented* client cert must chain to it
//     (VerifyClientCertIfGiven) — which lets one listener serve both
//     token-only device sessions and cert-bearing peer sessions.
//   - hub → hub: mutual TLS; the peer's certificate common name is its
//     cluster identity, checked against the peer-hello, so a rogue hub
//     without a fleet-CA cert can neither join the mesh nor replay
//     arm-broadcasts.
package auth

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"os"
	"time"
)

// DefaultHosts are the SANs a dev cert is issued for when the caller
// names none — enough for loopback CI topologies and local operation.
var DefaultHosts = []string{"127.0.0.1", "::1", "localhost"}

// CA is a certificate authority: the self-signed root plus its key,
// able to issue leaf certificates for hubs and peers.
type CA struct {
	cert    *x509.Certificate
	key     *ecdsa.PrivateKey
	certPEM []byte
}

func serial() (*big.Int, error) {
	limit := new(big.Int).Lsh(big.NewInt(1), 128)
	return rand.Int(rand.Reader, limit)
}

// NewCA mints a fresh dev CA named name (10-year validity).
func NewCA(name string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("auth: ca key: %w", err)
	}
	sn, err := serial()
	if err != nil {
		return nil, fmt.Errorf("auth: ca serial: %w", err)
	}
	tpl := &x509.Certificate{
		SerialNumber:          sn,
		Subject:               pkix.Name{CommonName: name},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, tpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("auth: ca cert: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("auth: ca cert: %w", err)
	}
	return &CA{cert: cert, key: key,
		certPEM: pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})}, nil
}

// LoadCA reads a CA minted by Save.
func LoadCA(certFile, keyFile string) (*CA, error) {
	certPEM, err := os.ReadFile(certFile)
	if err != nil {
		return nil, fmt.Errorf("auth: load ca: %w", err)
	}
	keyPEM, err := os.ReadFile(keyFile)
	if err != nil {
		return nil, fmt.Errorf("auth: load ca: %w", err)
	}
	cb, _ := pem.Decode(certPEM)
	kb, _ := pem.Decode(keyPEM)
	if cb == nil || kb == nil {
		return nil, fmt.Errorf("auth: load ca: not PEM")
	}
	cert, err := x509.ParseCertificate(cb.Bytes)
	if err != nil {
		return nil, fmt.Errorf("auth: load ca cert: %w", err)
	}
	key, err := x509.ParseECPrivateKey(kb.Bytes)
	if err != nil {
		return nil, fmt.Errorf("auth: load ca key: %w", err)
	}
	return &CA{cert: cert, key: key, certPEM: certPEM}, nil
}

// Save writes the CA certificate and key as PEM files (the key 0600).
func (ca *CA) Save(certFile, keyFile string) error {
	if err := os.WriteFile(certFile, ca.certPEM, 0o644); err != nil {
		return fmt.Errorf("auth: save ca: %w", err)
	}
	kder, err := x509.MarshalECPrivateKey(ca.key)
	if err != nil {
		return fmt.Errorf("auth: save ca key: %w", err)
	}
	kpem := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: kder})
	if err := os.WriteFile(keyFile, kpem, 0o600); err != nil {
		return fmt.Errorf("auth: save ca key: %w", err)
	}
	return nil
}

// Pool returns a cert pool holding only this CA.
func (ca *CA) Pool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(ca.cert)
	return pool
}

// Issue mints a leaf certificate under this CA: CommonName = name (the
// identity mutual-TLS peers are checked against), SANs = hosts
// (DefaultHosts when empty), valid for client and server use so one
// cert serves a hub's listener and its outbound peer dials.
func (ca *CA) Issue(name string, hosts []string) (certPEM, keyPEM []byte, err error) {
	if len(hosts) == 0 {
		hosts = DefaultHosts
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("auth: leaf key: %w", err)
	}
	sn, err := serial()
	if err != nil {
		return nil, nil, fmt.Errorf("auth: leaf serial: %w", err)
	}
	tpl := &x509.Certificate{
		SerialNumber: sn,
		Subject:      pkix.Name{CommonName: name},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(2 * 365 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tpl.IPAddresses = append(tpl.IPAddresses, ip)
		} else {
			tpl.DNSNames = append(tpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return nil, nil, fmt.Errorf("auth: leaf cert: %w", err)
	}
	kder, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		return nil, nil, fmt.Errorf("auth: leaf key: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}),
		pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: kder}), nil
}

// IssueTLS is Issue returning a ready tls.Certificate.
func (ca *CA) IssueTLS(name string, hosts []string) (tls.Certificate, error) {
	certPEM, keyPEM, err := ca.Issue(name, hosts)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.X509KeyPair(certPEM, keyPEM)
}

// ServerConfig builds a hub listener's TLS config: serve cert, and —
// when clientCAs is non-nil — verify any presented client certificate
// against it. VerifyClientCertIfGiven (not RequireAndVerify) is what
// lets one listener carry both token-authenticated device sessions
// (no cert) and mutually-authenticated peer sessions (fleet-CA cert);
// the exchange separately refuses a peer-hello on a session with no
// verified cert identity when peer auth is required.
func ServerConfig(cert tls.Certificate, clientCAs *x509.CertPool) *tls.Config {
	cfg := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	if clientCAs != nil {
		cfg.ClientCAs = clientCAs
		cfg.ClientAuth = tls.VerifyClientCertIfGiven
	}
	return cfg
}

// ClientConfig builds a device-side TLS config: verify the hub's
// server certificate against roots. serverName overrides the dial
// address for certificate verification ("" uses the dialed host).
func ClientConfig(roots *x509.CertPool, serverName string) *tls.Config {
	return &tls.Config{
		RootCAs:    roots,
		ServerName: serverName,
		MinVersion: tls.VersionTLS12,
	}
}

// PeerConfig builds a hub's outbound peer-link TLS config: mutual —
// present cert, verify the answering hub against roots.
func PeerConfig(cert tls.Certificate, roots *x509.CertPool, serverName string) *tls.Config {
	cfg := ClientConfig(roots, serverName)
	cfg.Certificates = []tls.Certificate{cert}
	return cfg
}

// PeerIdentity extracts the verified client-certificate identity (leaf
// CommonName) from a completed handshake, or "" when the client
// presented no certificate. With VerifyClientCertIfGiven a presented
// cert has already chained to the client CA pool by the time the
// handshake completes, so a non-empty return is an authenticated
// identity.
func PeerIdentity(state tls.ConnectionState) string {
	if len(state.PeerCertificates) == 0 {
		return ""
	}
	return state.PeerCertificates[0].Subject.CommonName
}
