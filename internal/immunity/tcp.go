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
// drain writing frames back); TCPTransport is the phone side.
// Reconnect and resubscribe-from-epoch live in the session machine
// (redial.go), not here — the transport only reports the session's
// death.
//
// Both sides write the same way: what queued up while the previous
// write was in flight leaves in the next one, through writeFrames. The
// hub's drain hands over every pending frame at once; a client
// session's Send encodes into a pending buffer that its writer
// goroutine swaps out and writes whole (tcpSession).
//
// The hub reads the same way round: after each blocking frame read,
// serve also takes every frame already whole in its read buffer
// (wire.Reader.Ready) and hands them to Conn.Handle in one call, where
// consecutive reports commit as one mutation — one admission permit,
// one Exchange.mu section, one provenance write — with the same
// receipts, refusals and counts as one call per frame.

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
	return newTCPSession(nc, recv, down), nil
}

// pendingLimit is the backpressure bound of a client session: Send
// blocks while this many encoded bytes wait for the writer.
const pendingLimit = 64 << 10

// tcpSession is one client-side TCP wire session. Send encodes a frame
// into the pending buffer and returns; the writer goroutine swaps the
// pending buffer with its spare and writes it in one call, so every
// frame sent while a write is in flight leaves in the next one. Its
// contract:
//
//  1. Order: frames leave in Send order.
//  2. Errors: a write error is sticky — every later Send returns it —
//     and the writer closes the conn, so the read loop fires down
//     exactly once, as for a read failure. A read failure is sticky
//     the same way. A write stall is a dead session (Redialer.Send).
//  3. Backpressure: Send blocks while pendingLimit or more bytes are
//     pending, so pending never exceeds the bound plus one frame and a
//     forward outbox's Cap still bounds a partition's backlog. What a
//     dying session can lose stays below a kernel socket buffer; the
//     device's full re-report on reconnect and the hub's dedup restore
//     at-least-once delivery.
//  4. Close returns at once and stops the reads. The writer flushes what
//     was sent before Close, within writeTimeout of it, then closes the
//     conn; down does not fire.
type tcpSession struct {
	nc net.Conn

	mu   sync.Mutex
	cond sync.Cond // on mu: pending grew, pending was taken, or the session ended
	// pending is what Send encoded since the writer's last swap; spare
	// is the buffer the writer hands back after a write.
	pending, spare []byte
	err            error // sticky: the first write or read failure
	closed         bool
	parked         int       // Sends waiting on pendingLimit
	frames         [1][]byte // the writer's writeFrames argument
}

// newTCPSession runs a client session on nc: its read loop delivers to
// recv and reports a remote death to down, its writer drains Send.
func newTCPSession(nc net.Conn, recv func(wire.Message), down func(err error)) *tcpSession {
	s := &tcpSession{nc: nc}
	s.cond.L = &s.mu
	go s.readLoop(recv, down)
	go s.writeLoop()
	return s
}

// Send queues one frame for the writer. An encode error returns at once
// and queues nothing.
func (s *tcpSession) Send(m wire.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) >= pendingLimit && s.err == nil && !s.closed {
		s.parked++
		s.cond.Wait()
		s.parked--
	}
	switch {
	case s.err != nil:
		return s.err
	case s.closed:
		return errSessionClosed
	}
	b, err := wire.AppendFrame(s.pending, m)
	s.pending = b
	if err != nil {
		return err
	}
	s.cond.Broadcast()
	return nil
}

// errSessionClosed is Send's error after Close.
var errSessionClosed = fmt.Errorf("tcp session: %w", net.ErrClosed)

// Close implements Session: the reads stop now, the writer flushes and
// closes the conn, and down does not fire. Idempotent.
func (s *tcpSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		// Under mu, so no write the writer starts later gets a later
		// deadline.
		s.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		s.nc.SetReadDeadline(time.Now())
		s.cond.Broadcast()
	}
	return nil
}

// writeLoop writes the pending buffer, whole, until the session fails
// or is closed and flushed; then it closes the conn. The two buffers
// swap roles every write, so a steady session allocates nothing.
func (s *tcpSession) writeLoop() {
	defer s.nc.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.pending) == 0 && s.err == nil && !s.closed {
			s.cond.Wait()
		}
		if s.err != nil || len(s.pending) == 0 {
			return
		}
		buf := s.pending
		s.pending, s.spare = s.spare[:0], nil
		if !s.closed {
			s.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		if s.parked > 0 {
			s.cond.Broadcast() // room for the parked Sends
		}
		s.mu.Unlock()
		s.frames[0] = buf
		err := writeFrames(s.nc, s.frames[:])
		s.mu.Lock()
		if cap(buf) <= 2*pendingLimit {
			s.spare = buf[:0]
		}
		if err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("tcp session write: %w", err)
			}
			s.cond.Broadcast()
			return
		}
	}
}

// readLoop delivers inbound frames until the connection dies; down fires
// exactly once, with the session's first failure, and only for remote
// deaths — a failed write closes the conn, so it ends here too. The
// Reader's reused scratch makes the steady-state frame read one
// buffered read and no allocation.
func (s *tcpSession) readLoop(recv func(wire.Message), down func(err error)) {
	fr := wire.NewReader(s.nc)
	for {
		m, err := fr.ReadFrame()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			if !closed && s.err == nil {
				s.err = fmt.Errorf("tcp session read: %w", err)
			}
			first := s.err
			s.cond.Broadcast()
			s.mu.Unlock()
			if !closed {
				s.nc.Close()
				down(first)
			}
			return
		}
		recv(m)
	}
}

// writeChunk caps the buffer writeFrames gathers frames into on a conn
// without writev.
const writeChunk = 64 << 10

// chunkPool recycles writeFrames' gather buffers.
var chunkPool = sync.Pool{New: func() any { b := make([]byte, 0, writeChunk); return &b }}

// writeFrames writes frames to nc in order, in as few calls as nc
// allows. One frame is one Write. A plain TCP conn takes several in one
// writev. Any other conn — TLS above all, where net.Buffers would write
// one record and make one syscall per frame — gets runs of frames
// copied into one buffer of at most writeChunk bytes each; a frame that
// fills a run alone is written as it is.
func writeFrames(nc net.Conn, frames [][]byte) error {
	if len(frames) == 1 {
		_, err := nc.Write(frames[0])
		return err
	}
	if _, ok := nc.(*net.TCPConn); ok {
		// net.Buffers advances through the caller's slice on partial
		// writes; the frame bytes themselves are never touched.
		bufs := net.Buffers(frames)
		_, err := bufs.WriteTo(nc)
		return err
	}
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	for len(frames) > 0 {
		n, size := 1, len(frames[0])
		for n < len(frames) && size+len(frames[n]) <= writeChunk {
			size += len(frames[n])
			n++
		}
		out := frames[0]
		if n > 1 {
			out = (*bp)[:0]
			for _, f := range frames[:n] {
				out = append(out, f...)
			}
			*bp = out
		}
		if _, err := nc.Write(out); err != nil {
			return err
		}
		frames = frames[n:]
	}
	return nil
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
// pushes out via the Conn's queue writing frames back. The read side
// hands Handle every frame that one read brought in, so a run of report
// frames is one hub mutation. The write side is a stream session
// (AcceptStream): each queue drain hands over every pending frame —
// shared broadcast frames byte-identical across sessions — and
// writeFrames pushes them to the kernel in one writev, or under TLS in
// one Write per 64 KiB.
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
	conn, err := s.hub.AcceptStream(
		func(frames [][]byte) error {
			nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			return writeFrames(nc, frames)
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
	defer func() { conn.Close(); <-conn.out.Done() }()
	fr := wire.NewReader(nc)
	var run []wire.Message
	for {
		// One blocking read, then every frame already whole in the buffer.
		m, err := fr.ReadFrame()
		for err == nil {
			run = append(run, m)
			if !fr.Ready() {
				break
			}
			m, err = fr.ReadFrame()
		}
		// The frames before a read failure are handled as they would have
		// been one by one. A Handle error is a protocol violation: the
		// failure ack is already queued; the push queue flushes it before
		// the deferred Close tears the socket down.
		if len(run) > 0 && conn.Handle(run...) != nil || err != nil {
			return
		}
		clear(run) // the handled messages are not kept alive
		run = run[:0]
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
