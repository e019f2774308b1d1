package immunity

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// The one resumable-session machine (see "Resumable sessions" in the
// package comment): every dialer of a hub — ExchangeClient, the
// cluster's peer link, the workload storm — reaches it through a
// Redialer, and supplies only what differs as an Attempt per dial.

const (
	// helloTimeout bounds how long a handshake waits for the ack.
	helloTimeout = 10 * time.Second
	// refusalWindow is the ack wait after a failed hello Send. A refused
	// handshake surfaces differently per transport: over TCP the hub
	// queues the failure ack and hangs up (Send itself succeeded), over
	// loopback the refusal IS the Send error while the ack still arrives
	// on the queue goroutine. The window lets a refusal classify the same
	// on both; absent an ack the send error is reported as transient.
	refusalWindow = 500 * time.Millisecond
	// backoffMin and backoffMax bound the redial wait.
	backoffMin = 5 * time.Millisecond
	backoffMax = 2 * time.Second
	// minUptime is how long an accepted session must survive before the
	// backoff resets. A hub that acks and then drops the session at once
	// (crash loop, accept-and-kill proxy, a draining load balancer) would
	// otherwise be redialed at the floor forever — a completed handshake
	// proves nothing about session health.
	minUptime = time.Second
)

// errPermanent wraps errors that redialing cannot fix: the hub refused
// the handshake (version mismatch, bad device id, failed authentication,
// superseded), or the transport can never reach it again.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// errSessionDown is Send's error while no accepted session is live.
var errSessionDown = errors.New("immunity: session down")

var errRedialerClosed = errors.New("immunity: session closed")

// nextBackoff is the redial rule: what to wait (before jitter) after a
// session that lasted uptime — zero for a failed handshake — and the
// backoff to carry forward. Only a session that outlived minUptime
// resets the backoff, and its redial is immediate.
func nextBackoff(backoff, uptime time.Duration) (wait, next time.Duration) {
	if uptime >= minUptime {
		return 0, backoffMin
	}
	if next = 2 * backoff; next > backoffMax {
		next = backoffMax
	}
	return backoff, next
}

// Attempt is one dial's policy half: the dialer's tier decides what the
// hello says and what the traffic means for its resume cursor, the
// machine decides everything else. The methods run on the handshaking
// or transport goroutine with no machine lock held. An Attempt keeps
// its own quarantine — the cursor advances its session's traffic would
// justify — and moves the durable cursor only while Redialer.Live
// reports it accepted, checked in the same critical section as the
// advance.
type Attempt interface {
	// Hello builds the handshake message. It runs after the transport
	// connected, so work that must precede the hello goes first in it.
	Hello() wire.Message
	// Verdict judges an OK ack at wire.Version against the cursor the
	// hello carried. An error condemns the attempt — the policy has reset
	// its cursor, the machine closes the session and redials — but
	// traffic it delivers, before or after, is still handed to Recv.
	Verdict(ack wire.Ack) error
	// Accepted runs once the attempt is the live session: merge the
	// quarantined advances, then resume whatever sends over it.
	Accepted()
	// Recv handles every message but the acks.
	Recv(m wire.Message)
}

// RedialConfig assembles a Redialer. The counters are the machine's only
// counts of dials and reconnects (Dials and Reconnects read them); a nil
// one is replaced by a private counter. Connected may be nil.
type RedialConfig struct {
	Transport Transport
	// Begin opens the policy half of one dial attempt.
	Begin func() Attempt
	// RefusalFinal makes a refusal — a failed handshake ack, a failure
	// ack on the live session, a permanent transport error — stop the
	// machine for good with Err set (a device: the hub told it to go
	// away). Without it every failure is redialed (a peer: the refusal
	// may be a config gap the next attempt outlives).
	RefusalFinal bool
	Dials        *metrics.Counter // dial attempts, the first included
	Reconnects   *metrics.Counter // accepted handshakes after the first
	Connected    *metrics.Gauge   // 1 while an accepted session is live
}

// Redialer keeps one resumable wire session alive: dial, hello, ack
// wait, verdict, install, and — in Run — redial with backoff once the
// session dies. Sending and receiving are direct calls on the caller's
// and the transport's goroutine.
type Redialer struct {
	cfg     RedialConfig
	closeCh chan struct{}
	kick    chan struct{} // capacity 1: Kick's coalesced wake-up
	// cur is the accepted attempt, nil between sessions. Written under
	// mu, read lock-free by Send and Live.
	cur atomic.Pointer[dialAttempt]

	// mu orders install against Close and guards err. It is a leaf: never
	// held across Dial, Send, Close or an Attempt method.
	mu       sync.Mutex
	closed   bool
	accepted bool // a handshake has been accepted before
	err      error
}

// dialAttempt is the machine half of one dial.
type dialAttempt struct {
	policy Attempt
	sess   Session
	up     time.Time     // when the attempt was accepted
	acked  atomic.Bool   // the handshake's ack arrived; later acks are unsolicited
	ack    chan wire.Ack // capacity 1: the handshake's ack
	dead   chan struct{} // closed once the session is known dead
	once   sync.Once
}

func (a *dialAttempt) die() { a.once.Do(func() { close(a.dead) }) }

// NewRedialer builds the machine; nothing is dialed until Handshake or
// Run.
func NewRedialer(cfg RedialConfig) *Redialer {
	if cfg.Dials == nil {
		cfg.Dials = new(metrics.Counter)
	}
	if cfg.Reconnects == nil {
		cfg.Reconnects = new(metrics.Counter)
	}
	return &Redialer{cfg: cfg, closeCh: make(chan struct{}), kick: make(chan struct{}, 1)}
}

// recv is the transport's delivery callback for attempt a.
func (r *Redialer) recv(a *dialAttempt, m wire.Message) {
	switch {
	case m.Type != wire.TypeAck:
		a.policy.Recv(m)
	case a.acked.CompareAndSwap(false, true):
		a.ack <- *m.Ack
	case !m.Ack.OK && r.cur.Load() == a:
		// An unsolicited failure ack tells the live session to go away
		// (superseded by a newer session, evicted).
		if r.cfg.RefusalFinal {
			r.fail(fmt.Errorf("hub: %s", m.Ack.Error))
		}
		a.die()
	}
}

// awaitAck ends on the ack, the timeout, the session's death or Close.
// A hub that refuses queues the ack and hangs up, so an ack already
// delivered wins over the death that followed it.
func (r *Redialer) awaitAck(a *dialAttempt, d time.Duration) (wire.Ack, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case ack := <-a.ack:
		return ack, nil
	case <-a.dead:
		select {
		case ack := <-a.ack:
			return ack, nil
		default:
		}
		// Abort now instead of burning the hello timeout: after a
		// partition heals that stall would delay the reconnect replay.
		return wire.Ack{}, errors.New("session died during handshake")
	case <-timer.C:
		return wire.Ack{}, errors.New("timed out waiting for the handshake ack")
	case <-r.closeCh:
		return wire.Ack{}, errRedialerClosed
	}
}

// Handshake makes one attempt, synchronously, and installs its session
// on success; it does not redial. Call it only while no session is
// live.
func (r *Redialer) Handshake() error {
	select {
	case <-r.closeCh:
		return errRedialerClosed
	default:
	}
	r.cfg.Dials.Inc()
	a := &dialAttempt{policy: r.cfg.Begin(), ack: make(chan wire.Ack, 1), dead: make(chan struct{})}
	sess, err := r.cfg.Transport.Dial(func(m wire.Message) { r.recv(a, m) }, func(error) { a.die() })
	if err != nil {
		return err
	}
	a.sess = sess
	wait := helloTimeout
	sendErr := sess.Send(a.policy.Hello())
	if sendErr != nil {
		wait = refusalWindow
	}
	ack, err := r.awaitAck(a, wait)
	switch {
	case err == nil && !ack.OK:
		err = errPermanent{fmt.Errorf("hub refused: %s", ack.Error)}
	case sendErr != nil:
		err = sendErr
	case err != nil:
	case ack.V != wire.Version:
		// A session at any other version is never installed: leases and
		// probes count only answers from links that speak them.
		err = fmt.Errorf("hub acked protocol version %d, want %d", ack.V, wire.Version)
	default:
		err = a.policy.Verdict(ack)
	}
	if err == nil {
		err = r.install(a)
	}
	if err != nil {
		sess.Close()
		return err
	}
	a.policy.Accepted()
	return nil
}

// install makes a the live session unless Close raced the tail of the
// handshake: Close saw no session to tear down, so installing one now
// would leak it — and keep the dialer registered on the hub — forever.
func (r *Redialer) install(a *dialAttempt) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errRedialerClosed
	}
	a.up = time.Now()
	r.cur.Store(a)
	r.cfg.Connected.Add(1)
	if r.accepted {
		r.cfg.Reconnects.Inc()
	}
	r.accepted = true
	return nil
}

func (r *Redialer) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Run keeps the session alive until Close or a final refusal: it waits
// for the live session to die, then redials — at once after a session
// that outlived minUptime or on a Kick, otherwise after a jittered,
// doubling wait. The caller owns the goroutine.
func (r *Redialer) Run() {
	backoff := backoffMin
	var perm errPermanent
	for {
		var uptime time.Duration
		if a := r.cur.Load(); a != nil {
			select {
			case <-r.closeCh:
				return
			case <-a.dead:
			}
			uptime = time.Since(a.up)
			// Retired before the redial, so a dead session's stragglers
			// move no cursor.
			r.mu.Lock()
			if r.cur.CompareAndSwap(a, nil) {
				r.cfg.Connected.Add(-1)
			}
			r.mu.Unlock()
			// Closed outside mu: Close can wait on the hub's connection
			// teardown, whose in-flight handlers may be blocked on a lock
			// some caller of Send holds.
			a.sess.Close()
		} else if err := r.Handshake(); err == nil {
			continue
		} else if r.cfg.RefusalFinal && errors.As(err, &perm) {
			r.fail(perm.err)
		}
		if r.Err() != nil {
			return
		}
		var wait time.Duration
		wait, backoff = nextBackoff(backoff, uptime)
		if wait > 0 {
			// Jittered to half-to-full: every dialer backs off from a
			// partition on the same clock, and without jitter they would
			// all thunder-herd the healed side at the same instant.
			timer := time.NewTimer(wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1)))
			select {
			case <-r.closeCh:
				timer.Stop()
				return
			case <-timer.C:
			case <-r.kick:
				timer.Stop()
				backoff = backoffMin
			}
		}
	}
}

// Kick tells Run the other end was just seen alive: a pending backoff
// wait ends now and the backoff restarts at its floor. It never blocks;
// kicks that arrive before the wait coalesce into one.
func (r *Redialer) Kick() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Send delivers m on the live session, stamped with the wire version. A
// failed send marks the session dead — a write stall is a dead session
// even while its read side idles along — so Run redials.
func (r *Redialer) Send(m wire.Message) error {
	a := r.cur.Load()
	if a == nil {
		return errSessionDown
	}
	m.V = wire.Version
	if err := a.sess.Send(m); err != nil {
		a.die()
		return err
	}
	return nil
}

// Live reports whether p is the accepted attempt of the live session —
// the only one whose traffic may advance a cursor.
func (r *Redialer) Live(p Attempt) bool {
	a := r.cur.Load()
	return a != nil && a.policy == p
}

// Connected reports a live, accepted session.
func (r *Redialer) Connected() bool { return r.cur.Load() != nil }

// Dials counts dial attempts, successful or not.
func (r *Redialer) Dials() uint64 { return r.cfg.Dials.Value() }

// Reconnects counts accepted handshakes after the first.
func (r *Redialer) Reconnects() uint64 { return r.cfg.Reconnects.Value() }

// Err returns the refusal that stopped the machine for good, if any.
func (r *Redialer) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close tears the live session down and stops Run and any handshake in
// flight. Idempotent.
func (r *Redialer) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	a := r.cur.Swap(nil)
	if a != nil {
		r.cfg.Connected.Add(-1)
	}
	r.mu.Unlock()
	close(r.closeCh)
	if a != nil {
		a.sess.Close()
	}
}
