package fault

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// memSession / memTransport are a minimal in-process transport: every
// Send lands in a shared log, down is controllable — just enough
// surface to watch the fault layer's behavior without a hub.
type memSession struct {
	mu     sync.Mutex
	sent   []wire.Message
	closed bool
}

func (s *memSession) Send(m wire.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("closed")
	}
	s.sent = append(s.sent, m)
	return nil
}

func (s *memSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *memSession) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sent)
}

type memTransport struct {
	mu   sync.Mutex
	sess *memSession
	recv func(wire.Message)
	down func(err error)
}

func (t *memTransport) Dial(recv func(wire.Message), down func(err error)) (immunity.Session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sess = &memSession{}
	t.recv = recv
	t.down = down
	return t.sess, nil
}

// deliver pushes one hub→client frame through whatever recv wrapper
// the fault layer installed.
func (t *memTransport) deliver(m wire.Message) {
	t.mu.Lock()
	recv := t.recv
	t.mu.Unlock()
	if recv != nil {
		recv(m)
	}
}

func ping(seq uint64) wire.Message {
	return wire.Message{Type: wire.TypePing, Ping: &wire.Ping{From: "a", Target: "b", Seq: seq}}
}

func TestBlockSeversAndFailsSends(t *testing.T) {
	n := NewNetwork()
	inner := &memTransport{}
	downCh := make(chan error, 1)
	tr := n.Wrap("a", "b", inner)
	sess, err := tr.Dial(func(wire.Message) {}, func(err error) { downCh <- err })
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(ping(1)); err != nil {
		t.Fatalf("send on open path: %v", err)
	}

	n.Block("a", "b")
	select {
	case <-downCh:
	case <-time.After(time.Second):
		t.Fatal("block did not sever the a->b session")
	}
	if err := sess.Send(ping(2)); err == nil {
		t.Fatal("send on blocked path succeeded")
	}
	if _, err := tr.Dial(func(wire.Message) {}, nil); !errors.Is(err, ErrBlocked) {
		t.Fatalf("dial through blocked path: err=%v, want ErrBlocked", err)
	}

	n.Unblock("a", "b")
	sess2, err := tr.Dial(func(wire.Message) {}, func(error) {})
	if err != nil {
		t.Fatalf("dial after unblock: %v", err)
	}
	if err := sess2.Send(ping(3)); err != nil {
		t.Fatalf("send after unblock: %v", err)
	}
	if got := inner.sess.count(); got != 1 {
		t.Fatalf("reopened session delivered %d sends, want 1", got)
	}
}

func TestReverseBlockDropsRecvSilently(t *testing.T) {
	n := NewNetwork()
	inner := &memTransport{}
	var mu sync.Mutex
	var got int
	tr := n.Wrap("a", "b", inner)
	sess, err := tr.Dial(func(wire.Message) { mu.Lock(); got++; mu.Unlock() }, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	inner.deliver(ping(1))

	// Block only the receive direction (b -> a): sends still flow — the
	// asymmetric half-open link — while inbound frames vanish and the
	// session stays alive.
	n.Block("b", "a")
	inner.deliver(ping(2))
	if err := sess.Send(ping(3)); err != nil {
		t.Fatalf("send with only the reverse path blocked: %v", err)
	}

	n.Heal()
	inner.deliver(ping(4))
	mu.Lock()
	defer mu.Unlock()
	if got != 2 {
		t.Fatalf("received %d frames, want 2 (the blocked one dropped silently)", got)
	}
}

func TestHealSeversHalfDeafSessions(t *testing.T) {
	n := NewNetwork()
	inner := &memTransport{}
	downCh := make(chan error, 1)
	tr := n.Wrap("a", "b", inner)
	if _, err := tr.Dial(func(wire.Message) {}, func(err error) { downCh <- err }); err != nil {
		t.Fatal(err)
	}
	// Reverse-direction block: the session is not severed (its send
	// side is open), it just goes deaf...
	n.Block("b", "a")
	select {
	case <-downCh:
		t.Fatal("reverse block severed the send-side session")
	case <-time.After(10 * time.Millisecond):
	}
	// ...until Heal replaces every session the block touched, so the
	// missed frames are recovered by a fresh handshake's replay.
	n.Heal()
	select {
	case <-downCh:
	case <-time.After(time.Second):
		t.Fatal("heal did not sever the half-deaf session")
	}
}

func TestPartitionBlocksBothDirectionsPairwise(t *testing.T) {
	n := NewNetwork()
	n.Partition([]string{"a", "b"}, []string{"c"})
	for _, p := range [][2]string{{"a", "c"}, {"c", "a"}, {"b", "c"}, {"c", "b"}} {
		if !n.isBlocked(p[0], p[1]) {
			t.Fatalf("path %s->%s not blocked by partition", p[0], p[1])
		}
	}
	for _, p := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if n.isBlocked(p[0], p[1]) {
			t.Fatalf("intra-group path %s->%s blocked", p[0], p[1])
		}
	}
	n.Heal()
	if n.isBlocked("a", "c") {
		t.Fatal("heal left a->c blocked")
	}
}
