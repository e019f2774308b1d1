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
}

// Send hands the message straight to the hub. A refusal reaches the
// client as it does over TCP, where the write succeeded and the hub
// hangs up: Send returns nil, the failure ack the hub queued arrives,
// then the session goes down. Only a session already closed fails the
// Send.
func (s *loopbackSession) Send(m wire.Message) error {
	switch err := s.conn.Handle(m); {
	case errors.Is(err, errConnClosed):
		return fmt.Errorf("loopback send: %w", err)
	case err != nil:
		s.conn.Close()
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

// sessionClosed is the hub's teardown hook, run once: it fires down
// unless the client closed the session itself (a local Close must not
// look like a drop and trigger a redial).
func (s *loopbackSession) sessionClosed() {
	s.mu.Lock()
	local := s.localClosed
	s.mu.Unlock()
	if !local {
		s.down(errors.New("loopback: hub closed session"))
	}
}
