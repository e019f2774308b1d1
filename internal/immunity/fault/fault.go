// Package fault is a deterministic network fault-injection layer for
// the immunity fabric: a Network wraps any immunity.Transport with a
// per-directed-path (src → dst) block script and flips it at the times
// the test chooses. It exists to drive the partition chaos scenarios
// (symmetric split, asymmetric split, flapping link) against real hub
// and cluster code with no real network misbehavior required, so the
// same failure unfolds identically on every run.
//
// Faults are directional. A path (src, dst) covers every message
// src sends to dst: the Send side of sessions src dialed, and the
// receive side of sessions dst dialed (a session dialed by dst has its
// hub→client frames traveling src → dst). Blocking therefore composes
// into both partition shapes:
//
//   - symmetric split: Partition(groupA, groupB) blocks every pair in
//     both directions — neither side hears the other at all;
//   - asymmetric split: Block(owner, peer) for each peer blocks only
//     the owner's outbound word — the owner still hears its peers
//     (their pings arrive, proving them alive to it), but its answers,
//     lease requests, and broadcasts vanish, so the peers' probes
//     condemn it while its own lease quietly expires.
//
// Send through a blocked path returns an error — the cluster's retry
// outboxes park exactly as they would on a dead TCP session, nothing
// is silently lost. A frame arriving over a blocked receive path is
// dropped silently — the sender believes it delivered, the one-way
// stall a half-open link really produces. Dial fails while either
// direction is blocked (no handshake completes over a half-open
// path). Blocking also severs the registered live sessions whose send
// side it covers — their owners see the session die and begin
// redialing into the block; Heal severs every session a block touched
// in either direction, so half-deaf survivors are replaced by fresh
// handshakes that resume from their cursors instead of staying
// silently behind.
package fault

import (
	"errors"
	"fmt"
	"sync"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// ErrBlocked is the error a Send or Dial through a blocked path
// returns.
var ErrBlocked = errors.New("fault: path blocked")

type pathKey struct{ src, dst string }

// Network scripts the faults for a set of wrapped transports. The
// zero value is not usable; NewNetwork.
type Network struct {
	mu      sync.Mutex
	blocked map[pathKey]bool
	// touched remembers every path a block covered since the last Heal
	// — Unblock reopens a path without severing anything, so a session
	// that sat deaf behind a since-cleared block (a flapping link) is
	// only found again at Heal time.
	touched  map[pathKey]bool
	sessions map[*faultSession]struct{}
}

func NewNetwork() *Network {
	return &Network{
		blocked:  make(map[pathKey]bool),
		touched:  make(map[pathKey]bool),
		sessions: make(map[*faultSession]struct{}),
	}
}

// Wrap returns t with this network's fault script applied to the
// directed path src → dst (sends, and the receive side of the same
// dialed sessions, which travels dst → src).
func (n *Network) Wrap(src, dst string, t immunity.Transport) immunity.Transport {
	return &faultTransport{net: n, src: src, dst: dst, inner: t}
}

// Block cuts the directed path src → dst and severs the registered
// live sessions whose send side it covers.
func (n *Network) Block(src, dst string) {
	n.mu.Lock()
	n.blocked[pathKey{src, dst}] = true
	n.touched[pathKey{src, dst}] = true
	victims := n.sessionsOnLocked(src, dst)
	n.mu.Unlock()
	sever(victims)
}

// Unblock reopens the directed path src → dst without touching
// sessions (redials flow again on their own).
func (n *Network) Unblock(src, dst string) {
	n.mu.Lock()
	delete(n.blocked, pathKey{src, dst})
	n.mu.Unlock()
}

// Partition blocks every pair across the two groups, both directions —
// the symmetric split. Members within a group stay connected.
func (n *Network) Partition(groupA, groupB []string) {
	n.mu.Lock()
	var victims []*faultSession
	for _, a := range groupA {
		for _, b := range groupB {
			n.blocked[pathKey{a, b}] = true
			n.blocked[pathKey{b, a}] = true
			n.touched[pathKey{a, b}] = true
			n.touched[pathKey{b, a}] = true
			victims = append(victims, n.sessionsOnLocked(a, b)...)
			victims = append(victims, n.sessionsOnLocked(b, a)...)
		}
	}
	n.mu.Unlock()
	sever(victims)
}

// Heal clears every block and severs every session a block has touched
// in either direction since the last Heal — Unblocked (flapped) paths
// included: a session that sat half-deaf behind a block silently
// missed frames, and only a fresh handshake (resuming from its cursor)
// repairs that.
func (n *Network) Heal() {
	n.mu.Lock()
	var victims []*faultSession
	for p := range n.touched {
		victims = append(victims, n.sessionsOnLocked(p.src, p.dst)...)
		victims = append(victims, n.sessionsOnLocked(p.dst, p.src)...)
	}
	n.blocked = make(map[pathKey]bool)
	n.touched = make(map[pathKey]bool)
	n.mu.Unlock()
	sever(victims)
}

func (n *Network) isBlocked(src, dst string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.blocked[pathKey{src, dst}]
}

// sessionsOnLocked collects the registered sessions whose send path is
// src → dst. Caller holds n.mu.
func (n *Network) sessionsOnLocked(src, dst string) []*faultSession {
	var out []*faultSession
	for s := range n.sessions {
		if s.t.src == src && s.t.dst == dst {
			out = append(out, s)
		}
	}
	return out
}

// sever kills sessions outside the network lock: Close and the down
// callback both re-enter the owning link's machinery.
func sever(victims []*faultSession) {
	for _, s := range victims {
		s.sever()
	}
}

type faultTransport struct {
	net      *Network
	src, dst string
	inner    immunity.Transport
}

// Dial opens a session through the fault layer. It fails while either
// direction of the path is blocked — no handshake completes over a
// half-open link — and registers the session for sever-on-block.
func (t *faultTransport) Dial(recv func(wire.Message), down func(err error)) (immunity.Session, error) {
	if t.net.isBlocked(t.src, t.dst) || t.net.isBlocked(t.dst, t.src) {
		return nil, fmt.Errorf("fault: dial %s->%s: %w", t.src, t.dst, ErrBlocked)
	}
	fs := &faultSession{t: t, down: down}
	inner, err := t.inner.Dial(func(m wire.Message) {
		// The receive side of this session travels dst → src: a block
		// there drops the frame silently — the hub already counts it
		// delivered, exactly the half-open stall being simulated.
		if t.net.isBlocked(t.dst, t.src) {
			return
		}
		recv(m)
	}, func(err error) { fs.innerDown(err) })
	if err != nil {
		return nil, err
	}
	fs.inner = inner
	t.net.mu.Lock()
	t.net.sessions[fs] = struct{}{}
	t.net.mu.Unlock()
	return fs, nil
}

type faultSession struct {
	t    *faultTransport
	down func(err error)

	mu       sync.Mutex
	inner    immunity.Session
	closed   bool // locally closed or severed: the down relay stops
	unusable bool // severed: Sends fail even though inner may linger
}

// Send fails while the path is blocked (the owner's outbox parks and
// retries, as on a dead link) and otherwise passes m through.
func (s *faultSession) Send(m wire.Message) error {
	s.mu.Lock()
	inner, unusable := s.inner, s.unusable
	s.mu.Unlock()
	if inner == nil || unusable {
		return fmt.Errorf("fault: send %s->%s: session severed", s.t.src, s.t.dst)
	}
	if s.t.net.isBlocked(s.t.src, s.t.dst) {
		return fmt.Errorf("fault: send %s->%s: %w", s.t.src, s.t.dst, ErrBlocked)
	}
	return inner.Send(m)
}

func (s *faultSession) Close() error {
	s.mu.Lock()
	s.closed = true
	inner := s.inner
	s.mu.Unlock()
	s.t.net.mu.Lock()
	delete(s.t.net.sessions, s)
	s.t.net.mu.Unlock()
	if inner == nil {
		return nil
	}
	return inner.Close()
}

// sever kills the session from the fault script's side: the owner
// sees its down callback fire, exactly as if the TCP peer vanished.
func (s *faultSession) sever() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.unusable = true
	inner := s.inner
	down := s.down
	s.mu.Unlock()
	s.t.net.mu.Lock()
	delete(s.t.net.sessions, s)
	s.t.net.mu.Unlock()
	if inner != nil {
		inner.Close()
	}
	if down != nil {
		down(fmt.Errorf("fault: %s->%s severed", s.t.src, s.t.dst))
	}
}

// innerDown relays the inner session's death unless this layer closed
// or severed it first (the inner close then produced the event, and
// the owner has already been told — or asked for it).
func (s *faultSession) innerDown(err error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	s.t.net.mu.Lock()
	delete(s.t.net.sessions, s)
	s.t.net.mu.Unlock()
	if !closed && s.down != nil {
		s.down(err)
	}
}
