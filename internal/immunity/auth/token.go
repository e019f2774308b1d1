// Package auth is the trust fabric of the fleet exchange: bearer-token
// device authentication with tenant scoping, and the TLS material that
// encrypts and authenticates every device and hub-to-hub link.
//
// # Tokens
//
// A token is a compact HMAC-SHA256 bearer credential minted by the
// fleet operator and carried in the wire hello:
//
//	base64url(JSON claims) "." base64url(HMAC-SHA256(key, claims))
//
// The claims name a principal — the tenant the device belongs to, the
// device id the token is good for, an expiry, and the id of the signing
// key — and the hub's Verifier resolves a presented token back to that
// (tenant, device) principal or refuses it with a typed error (expired,
// bad signature, malformed), which the hub counts per reason. The
// device claim must match the hello's device id (WildcardDevice opts a
// token out, tenant-wide), so a stolen device-bound token cannot be
// replayed under a different identity and one socket cannot hello as N
// devices to defeat the confirm-before-arm threshold.
//
// Two Verifier implementations ship: a single static key (Static) and a
// file-backed keyring (Keyring) mapping key ids to keys, so operators
// can rotate keys by issuing under a new kid while old tokens age out.
//
// # Trust model
//
// Tokens authenticate devices to hubs; TLS server certificates
// authenticate hubs to devices; mutual TLS authenticates hubs to each
// other (see tls.go). In auth-disabled mode (no verifier, no TLS) any
// socket may claim any identity, which is acceptable on a trusted
// network.
package auth

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
)

// WildcardDevice is the device claim of a tenant-wide enrollment
// token: it authenticates any hello device id within its tenant. Use
// device-bound tokens in production; the wildcard is the dev/CI
// convenience for fleets of generated device names.
const WildcardDevice = "*"

// Claims is the principal a token asserts: the tenant the device
// belongs to ("" = the default single-tenant fleet), the device id the
// token is bound to (WildcardDevice for a tenant-wide token), the
// unix-seconds expiry (0 = never expires), and the id of the key that
// signed it (keyring lookup; "" with a static verifier).
type Claims struct {
	Tenant string `json:"tenant,omitempty"`
	Device string `json:"device"`
	Exp    int64  `json:"exp,omitempty"`
	Kid    string `json:"kid,omitempty"`
}

// Typed verification failures, distinguishable so refusals can be
// counted per reason.
var (
	ErrMalformed    = errors.New("auth: malformed token")
	ErrBadSignature = errors.New("auth: bad token signature")
	ErrExpired      = errors.New("auth: token expired")
	ErrUnknownKey   = errors.New("auth: unknown signing key")
)

// Verifier resolves a presented bearer token to its claims or refuses
// it with one of the typed errors above. Implementations must be safe
// for concurrent use — the hub verifies on session handshake
// goroutines.
type Verifier interface {
	Verify(token string, now time.Time) (Claims, error)
}

var enc = base64.RawURLEncoding

func sign(key []byte, payload string) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte(payload))
	return mac.Sum(nil)
}

// Mint signs c under key and returns the encoded token.
func Mint(key []byte, c Claims) (string, error) {
	if c.Device == "" {
		return "", fmt.Errorf("auth: mint: empty device claim")
	}
	body, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("auth: mint: %w", err)
	}
	payload := enc.EncodeToString(body)
	return payload + "." + enc.EncodeToString(sign(key, payload)), nil
}

// parse splits and decodes a token without verifying the signature,
// returning the claims, the signed payload, and the presented MAC.
func parse(token string) (Claims, string, []byte, error) {
	payload, macStr, ok := strings.Cut(token, ".")
	if !ok || payload == "" || macStr == "" {
		return Claims{}, "", nil, ErrMalformed
	}
	body, err := enc.DecodeString(payload)
	if err != nil {
		return Claims{}, "", nil, ErrMalformed
	}
	mac, err := enc.DecodeString(macStr)
	if err != nil {
		return Claims{}, "", nil, ErrMalformed
	}
	var c Claims
	if err := json.Unmarshal(body, &c); err != nil || c.Device == "" {
		return Claims{}, "", nil, ErrMalformed
	}
	return c, payload, mac, nil
}

// verifyWith checks the MAC (constant time) and the expiry.
func verifyWith(key []byte, c Claims, payload string, mac []byte, now time.Time) (Claims, error) {
	if !hmac.Equal(mac, sign(key, payload)) {
		return Claims{}, ErrBadSignature
	}
	if c.Exp != 0 && now.Unix() >= c.Exp {
		return Claims{}, ErrExpired
	}
	return c, nil
}

// Static is a Verifier holding one signing key; the claims' kid is
// ignored. It is the single-key deployment (`immunityd -auth-key`).
type Static struct{ key []byte }

// NewStatic wraps key as a single-key verifier.
func NewStatic(key []byte) *Static { return &Static{key: append([]byte(nil), key...)} }

// Verify implements Verifier.
func (s *Static) Verify(token string, now time.Time) (Claims, error) {
	c, payload, mac, err := parse(token)
	if err != nil {
		return Claims{}, err
	}
	return verifyWith(s.key, c, payload, mac, now)
}

// Keyring is a Verifier mapping key ids to signing keys — the rotation
// story: issue new tokens under a fresh kid, keep the old key listed
// until its tokens expire, then drop it.
type Keyring struct{ keys map[string][]byte }

// NewKeyring copies keys (kid → key bytes).
func NewKeyring(keys map[string][]byte) *Keyring {
	kr := &Keyring{keys: make(map[string][]byte, len(keys))}
	for kid, k := range keys {
		kr.keys[kid] = append([]byte(nil), k...)
	}
	return kr
}

// LoadKeyring reads a keyring file: one `kid:key` pair per line, the
// key in raw form ('#' comments and blank lines skipped). A line with
// no ':' names a key with kid "" — the default key a kid-less token
// verifies against.
func LoadKeyring(path string) (*Keyring, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("auth: keyring: %w", err)
	}
	defer f.Close()
	keys := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		kid, key, ok := strings.Cut(line, ":")
		if !ok {
			kid, key = "", line
		}
		keys[kid] = []byte(key)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("auth: keyring: %w", err)
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("auth: keyring %s holds no keys", path)
	}
	return NewKeyring(keys), nil
}

// Verify implements Verifier: the claims' kid selects the key.
func (kr *Keyring) Verify(token string, now time.Time) (Claims, error) {
	c, payload, mac, err := parse(token)
	if err != nil {
		return Claims{}, err
	}
	key, ok := kr.keys[c.Kid]
	if !ok {
		return Claims{}, ErrUnknownKey
	}
	return verifyWith(key, c, payload, mac, now)
}
