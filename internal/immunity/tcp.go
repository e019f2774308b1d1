package immunity

import (
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// The real network transport: length-prefixed wire frames over TCP,
// optionally under TLS (see auth.ServerConfig and friends for the
// config shapes). ServeTCP is the hub side (one goroutine per accepted
// connection feeding frames into Exchange.Conn.Handle, one push-queue
// goroutine writing frames back); TCPTransport is the phone side.
// Reconnect and resubscribe-from-epoch live in the session machine
// (redial.go), not here — the transport only reports the session's
// death.

// writeTimeout bounds every frame write. A peer that stopped reading
// (wedged phone, half-dead socket) errors the session out instead of
// parking the writer goroutine forever on a full kernel send buffer.
const writeTimeout = 30 * time.Second

// handshakeTimeout bounds a server-side TLS handshake: a port scanner
// or plaintext client connecting to a TLS listener must fail fast (and
// be counted), not park an accept goroutine.
const handshakeTimeout = 10 * time.Second

// TCPTransport dials a fleet exchange served with ServeTCP.
type TCPTransport struct {
	addr        string
	dialTimeout time.Duration
	tlsCfg      *tls.Config
}

var _ Transport = (*TCPTransport)(nil)

// TCPOption configures a TCPTransport (and the dial side of
// FetchStatus).
type TCPOption func(*TCPTransport)

// WithDialTLS makes the transport dial TLS with cfg — auth.ClientConfig
// for a device (server-cert verification only), auth.PeerConfig for a
// hub's outbound peer link (mutual). Nil keeps plaintext.
func WithDialTLS(cfg *tls.Config) TCPOption {
	return func(t *TCPTransport) { t.tlsCfg = cfg }
}

// NewTCPTransport creates a transport for the hub at addr
// (host:port).
func NewTCPTransport(addr string, opts ...TCPOption) *TCPTransport {
	t := &TCPTransport{addr: addr, dialTimeout: 5 * time.Second}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// dialConn opens (and, under TLS, handshakes) one connection.
func (t *TCPTransport) dialConn() (net.Conn, error) {
	if t.tlsCfg != nil {
		d := &net.Dialer{Timeout: t.dialTimeout}
		nc, err := tls.DialWithDialer(d, "tcp", t.addr, t.tlsCfg)
		if err != nil {
			return nil, fmt.Errorf("tcp transport: %w", err)
		}
		return nc, nil
	}
	nc, err := net.DialTimeout("tcp", t.addr, t.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcp transport: %w", err)
	}
	return nc, nil
}

// Dial implements Transport.
func (t *TCPTransport) Dial(recv func(wire.Message), down func(err error)) (Session, error) {
	nc, err := t.dialConn()
	if err != nil {
		return nil, err
	}
	s := &tcpSession{nc: nc}
	go s.readLoop(recv, down)
	return s, nil
}

// tcpSession is one client-side TCP wire session.
type tcpSession struct {
	nc net.Conn

	wmu    sync.Mutex
	cmu    sync.Mutex
	closed bool
}

// Send writes one frame; concurrent senders are serialized.
func (s *tcpSession) Send(m wire.Message) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	return wire.WriteFrame(s.nc, m)
}

// Close implements Session; the read loop exits without firing down.
func (s *tcpSession) Close() error {
	s.cmu.Lock()
	s.closed = true
	s.cmu.Unlock()
	return s.nc.Close()
}

// readLoop delivers inbound frames until the connection dies; down fires
// exactly once, and only for remote deaths. The Reader's reused scratch
// makes the steady-state frame read one buffered read and no
// allocation.
func (s *tcpSession) readLoop(recv func(wire.Message), down func(err error)) {
	fr := wire.NewReader(s.nc)
	for {
		m, err := fr.ReadFrame()
		if err != nil {
			s.cmu.Lock()
			closed := s.closed
			s.cmu.Unlock()
			s.nc.Close()
			if !closed {
				down(err)
			}
			return
		}
		recv(m)
	}
}

// ExchangeServer serves a fleet exchange over TCP.
type ExchangeServer struct {
	hub    *Exchange
	ln     net.Listener
	tlsCfg *tls.Config
	// tlsFailures counts server-side handshake failures (nil-safe no-op
	// without TLS): plaintext clients, wrong-CA forced certs, scanners.
	tlsFailures *metrics.Counter

	mu     sync.Mutex
	socks  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeOption configures an ExchangeServer.
type ServeOption func(*ExchangeServer)

// WithServeTLS serves the listener under TLS with cfg (typically
// auth.ServerConfig: hub cert, and the fleet CA as the client pool so
// peer sessions carry a verified certificate identity into the hub's
// peer-auth check). Handshake failures are counted on the hub registry
// as immunity_hub_tls_handshake_failures_total. Nil keeps plaintext.
func WithServeTLS(cfg *tls.Config) ServeOption {
	return func(s *ExchangeServer) { s.tlsCfg = cfg }
}

// ServeTCP starts serving hub on addr (use "127.0.0.1:0" for an
// OS-assigned test port) and returns once the listener is live.
func ServeTCP(hub *Exchange, addr string, opts ...ServeOption) (*ExchangeServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("exchange serve: %w", err)
	}
	s := &ExchangeServer{hub: hub, ln: ln, socks: make(map[net.Conn]struct{})}
	for _, opt := range opts {
		opt(s)
	}
	if s.tlsCfg != nil {
		s.tlsFailures = hub.Metrics().Counter("immunity_hub_tls_handshake_failures_total",
			"Server-side TLS handshakes that failed (plaintext probes, bad certs).")
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *ExchangeServer) Addr() string { return s.ln.Addr().String() }

func (s *ExchangeServer) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.socks[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(nc)
	}
}

// serve runs the hub side of one connection: frames in → Conn.Handle,
// pushes out via the Conn's queue writing frames back. The write side
// is a stream session (AcceptStream): each queue drain hands over every
// pending frame — shared broadcast frames byte-identical across
// sessions — and writev pushes them to the kernel in one syscall.
func (s *ExchangeServer) serve(raw net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.socks, raw)
		s.mu.Unlock()
	}()
	nc := raw
	transportIdentity := ""
	if s.tlsCfg != nil {
		// Handshake explicitly (instead of letting the first read drive
		// it) so a failure is counted and the session's certificate
		// identity — the peer-auth input — is extracted before any frame
		// is handled.
		tc := tls.Server(nc, s.tlsCfg)
		tc.SetDeadline(time.Now().Add(handshakeTimeout))
		if err := tc.Handshake(); err != nil {
			s.tlsFailures.Inc()
			nc.Close()
			return
		}
		tc.SetDeadline(time.Time{})
		transportIdentity = auth.PeerIdentity(tc.ConnectionState())
		nc = tc
	}
	var wmu sync.Mutex
	conn, err := s.hub.AcceptStream(
		func(frames [][]byte) error {
			wmu.Lock()
			defer wmu.Unlock()
			nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			// net.Buffers advances through our local slice on partial
			// writes; the shared frame bytes themselves are never touched.
			bufs := net.Buffers(frames)
			_, err := bufs.WriteTo(nc)
			return err
		},
		func() { nc.Close() },
	)
	if err != nil {
		nc.Close()
		return
	}
	if transportIdentity != "" {
		conn.SetTransportIdentity(transportIdentity)
	}
	defer conn.Close()
	fr := wire.NewReader(nc)
	for {
		m, err := fr.ReadFrame()
		if err != nil {
			return // dead or misbehaving peer; deferred Close cleans up
		}
		if err := conn.Handle(m); err != nil {
			// Protocol violation: the failure ack is already queued; let
			// the push queue flush it before the deferred Close tears the
			// socket down.
			return
		}
	}
}

// Close stops accepting, drops every live connection, and waits for the
// per-connection goroutines to exit.
func (s *ExchangeServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	socks := make([]net.Conn, 0, len(s.socks))
	for nc := range s.socks {
		socks = append(socks, nc)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, nc := range socks {
		nc.Close()
	}
	s.wg.Wait()
}

// FetchStatus asks the hub at addr for its status snapshot over a
// throwaway TCP session (status-req needs no hello). It is how the fleet
// workload's client mode and external monitors observe gating. Pass
// WithDialTLS to probe a TLS-served hub.
func FetchStatus(addr string, timeout time.Duration, opts ...TCPOption) (wire.Status, error) {
	t := NewTCPTransport(addr, opts...)
	if timeout > 0 {
		t.dialTimeout = timeout
	}
	nc, err := t.dialConn()
	if err != nil {
		return wire.Status{}, fmt.Errorf("fetch status: %w", err)
	}
	defer nc.Close()
	if timeout > 0 {
		nc.SetDeadline(time.Now().Add(timeout))
	}
	if err := wire.WriteFrame(nc, wire.Message{V: wire.Version, Type: wire.TypeStatusReq}); err != nil {
		return wire.Status{}, fmt.Errorf("fetch status: %w", err)
	}
	fr := wire.NewReader(nc)
	for {
		m, err := fr.ReadFrame()
		if err != nil {
			return wire.Status{}, fmt.Errorf("fetch status: %w", err)
		}
		if m.Type == wire.TypeStatus {
			return *m.Status, nil
		}
	}
}
