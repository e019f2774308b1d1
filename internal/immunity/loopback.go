package immunity

import (
	"errors"
	"fmt"
	"sync"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// Loopback is the in-process Transport: client→hub messages are handled
// synchronously by the hub's Conn, hub→client messages arrive on the
// Conn's push-queue goroutine. It carries exactly the same wire messages
// as the TCP transport — only the byte movement is elided — so tests and
// workloads that run over loopback exercise the full protocol, and the
// arming decisions they observe are the ones a real network produces.
type Loopback struct {
	hub *Exchange
}

// NewLoopback creates the in-process transport for hub.
func NewLoopback(hub *Exchange) *Loopback { return &Loopback{hub: hub} }

// Dial implements Transport.
func (l *Loopback) Dial(recv func(wire.Message), down func(err error)) (Session, error) {
	s := &loopbackSession{down: down}
	conn, err := l.hub.Accept(
		func(m wire.Message) error { recv(m); return nil },
		s.sessionClosed,
	)
	if err != nil {
		// A closed in-process hub can never come back — this Loopback is
		// bound to that one object — so the client must stop redialing,
		// exactly as it would for a hello refusal. (The TCP transport's
		// dial errors stay transient: its daemon can restart.)
		return nil, errPermanent{err}
	}
	s.conn = conn
	return s, nil
}

// loopbackSession is the client's handle on a loopback conversation.
type loopbackSession struct {
	conn *Conn
	down func(err error)

	mu          sync.Mutex
	localClosed bool
	downOnce    sync.Once
}

// Send hands the message straight to the hub. A protocol violation (the
// hub refusing the message) closes the session, mirroring a TCP hub
// hanging up. The close runs on a fresh goroutine, as Queue.kill runs
// OnDead: Send may be called from recv, on the Conn's own drain
// goroutine, and Conn.Close waits for that goroutine to exit.
func (s *loopbackSession) Send(m wire.Message) error {
	if err := s.conn.Handle(m); err != nil {
		go s.conn.Close()
		return fmt.Errorf("loopback send: %w", err)
	}
	return nil
}

// Close implements Session.
func (s *loopbackSession) Close() error {
	s.mu.Lock()
	s.localClosed = true
	s.mu.Unlock()
	s.conn.Close()
	return nil
}

// sessionClosed is the hub's teardown hook: it fires down unless the
// client closed the session itself (a local Close must not look like a
// drop and trigger a redial).
func (s *loopbackSession) sessionClosed() {
	s.mu.Lock()
	local := s.localClosed
	s.mu.Unlock()
	if !local {
		s.downOnce.Do(func() { s.down(errors.New("loopback: hub closed session")) })
	}
}
