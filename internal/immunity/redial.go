package immunity

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/clock"
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
// wait, verdict, install, and redial with backoff once the session
// dies. Its timing is one step its clock runs; the callbacks (the ack,
// the death, Kick, Close) only record what happened and wake it.
type Redialer struct {
	cfg   RedialConfig
	clk   clock.Clock
	wake  chan struct{} // capacity 1: the callbacks' coalesced wake-up
	done  chan struct{} // closed when the machine ends
	onEnd func()        // set before the first dial: the machine's last act
	// cur is the accepted attempt, nil between sessions: written by the
	// step, read lock-free by Send and Live.
	cur    atomic.Pointer[dialAttempt]
	dials  atomic.Int32 // what the machine may dial: 0 nothing, 1 once (Handshake), -1 on (Run)
	kicked atomic.Bool
	closed atomic.Bool
	err    atomic.Pointer[error] // the refusal that stopped the machine

	// The machine's own state: only step touches it.
	rng      *rand.Rand    // the backoff jitter
	hs       *dialAttempt  // the attempt awaiting its ack
	due      time.Time     // hs's ack deadline, or when the next dial is due
	backoff  time.Duration // the next wait before jitter
	accepted bool          // a handshake has been accepted before
	first    chan struct{} // closed once the first attempt settled, with firstErr
	firstErr error
}

// dialAttempt is the machine half of one dial.
type dialAttempt struct {
	policy Attempt
	sess   Session
	up     time.Time                // when the attempt was accepted
	ack    atomic.Pointer[wire.Ack] // the handshake's; later acks are unsolicited
	dead   atomic.Bool              // the session is known dead
}

// NewRedialer starts the machine idle on clk (nothing is dialed until
// Handshake or Run), its jitter seeded from clk: a mock replays it.
func NewRedialer(cfg RedialConfig, clk clock.Clock) *Redialer {
	if cfg.Dials == nil {
		cfg.Dials = new(metrics.Counter)
	}
	if cfg.Reconnects == nil {
		cfg.Reconnects = new(metrics.Counter)
	}
	r := &Redialer{cfg: cfg, clk: clk, wake: make(chan struct{}, 1), done: make(chan struct{}), onEnd: func() {},
		rng: rand.New(rand.NewPCG(uint64(clk.Now().UnixNano()), clk.Seed())), backoff: backoffMin, first: make(chan struct{})}
	clk.Start(r.step, r.wake)
	return r
}

func (r *Redialer) die(a *dialAttempt) {
	a.dead.Store(true)
	poke(r.wake)
}

// recv is the transport's delivery callback for attempt a.
func (r *Redialer) recv(a *dialAttempt, m wire.Message) {
	switch {
	case m.Type != wire.TypeAck:
		a.policy.Recv(m)
	case a.ack.CompareAndSwap(nil, m.Ack):
		poke(r.wake)
	case !m.Ack.OK && r.cur.Load() == a:
		// An unsolicited failure ack tells the live session to go away
		// (superseded by a newer session, evicted).
		if r.cfg.RefusalFinal {
			r.fail(fmt.Errorf("hub: %s", m.Ack.Error))
		}
		r.die(a)
	}
}

// Handshake makes the machine's first attempt, synchronously, and
// installs its session on success. A failed attempt ends the machine;
// unless Run follows, it never redials.
func (r *Redialer) Handshake() error {
	r.dials.Store(1)
	poke(r.wake)
	r.clk.Wait(r.first)
	return r.firstErr
}

// Run lets the machine redial: it keeps the session alive until Close
// or a final refusal — redialing at once after a session that outlived
// minUptime or on a Kick, otherwise after a jittered, doubling wait.
func (r *Redialer) Run() {
	r.dials.Store(-1)
	poke(r.wake)
}

// step runs the machine at now — idle → hello sent → live → dead →
// backoff → idle — as far as it goes, and returns when it is next due:
// the ack deadline, the end of the backoff, or never (a live session,
// a machine that may not dial: only a wake moves them).
func (r *Redialer) step(now time.Time) (time.Time, bool) {
	for {
		a := r.cur.Load()
		switch {
		case a != nil && (a.dead.Load() || r.closed.Load()):
			// Retired before the redial, so a dead session's stragglers
			// move no cursor.
			r.cur.Store(nil)
			r.cfg.Connected.Add(-1)
			a.sess.Close()
			r.backOff(now, now.Sub(a.up))
		case r.closed.Load():
			return r.end(errRedialerClosed)
		case r.Err() != nil:
			return r.end(r.Err())
		case a != nil:
			return time.Time{}, true
		case r.hs != nil:
			if !r.settle(now) {
				return r.due, true
			}
		case r.kicked.Swap(false):
			r.backoff, r.due = backoffMin, now
		case r.dials.Load() == 0:
			return time.Time{}, true
		case now.Before(r.due):
			return r.due, true
		default:
			r.dials.CompareAndSwap(1, 0)
			r.dial(now)
		}
	}
}

// end abandons a handshake in flight and ends the machine.
func (r *Redialer) end(err error) (time.Time, bool) {
	if r.hs != nil {
		r.hs.sess.Close()
	}
	r.settleFirst(err)
	r.onEnd()
	close(r.done)
	return time.Time{}, false
}

// dial opens one attempt and sends its hello; the ack wait is the hello
// timeout. A hub's refusal arrives as its failure ack, then the
// session's death, on every transport; a failed hello Send is a dead
// session, failed at once.
func (r *Redialer) dial(now time.Time) {
	r.cfg.Dials.Inc()
	a := &dialAttempt{policy: r.cfg.Begin()}
	sess, err := r.cfg.Transport.Dial(func(m wire.Message) { r.recv(a, m) }, func(error) { r.die(a) })
	if err == nil {
		if err = sess.Send(a.policy.Hello()); err != nil {
			sess.Close()
		}
	}
	if err != nil {
		r.failed(now, err)
		return
	}
	a.sess, r.hs, r.due = sess, a, now.Add(helloTimeout)
}

// settle ends the handshake once it has an outcome — the ack, the
// session's death or the deadline — installing its session or failing
// it, and reports whether it had one.
func (r *Redialer) settle(now time.Time) bool {
	a := r.hs
	// The death first: a hub that refuses queues the ack and hangs up,
	// so an ack delivered before the death wins over it. A death ends
	// the wait at once instead of burning the hello timeout: after a
	// partition heals that stall would delay the reconnect replay.
	dead := a.dead.Load()
	ack := a.ack.Load()
	if ack == nil && !dead && now.Before(r.due) {
		return false
	}
	r.hs = nil
	var err error
	switch {
	case ack != nil && !ack.OK:
		err = errPermanent{fmt.Errorf("hub refused: %s", ack.Error)}
	case ack == nil && dead:
		err = errors.New("session died during handshake")
	case ack == nil:
		err = errors.New("timed out waiting for the handshake ack")
	case ack.V != wire.Version:
		// A session at any other version is never installed: leases and
		// probes count only answers from links that speak them.
		err = fmt.Errorf("hub acked protocol version %d, want %d", ack.V, wire.Version)
	default:
		err = a.policy.Verdict(*ack)
	}
	if err != nil {
		a.sess.Close()
		r.failed(now, err)
		return true
	}
	a.up = now
	r.cur.Store(a)
	r.cfg.Connected.Add(1)
	if r.accepted {
		r.cfg.Reconnects.Inc()
	}
	r.accepted = true
	r.settleFirst(nil)
	a.policy.Accepted()
	return true
}

// failed settles a failed attempt: a final refusal, or any failure of a
// machine that may not redial, stops the machine; otherwise it backs
// off as after a session of no uptime.
func (r *Redialer) failed(now time.Time, err error) {
	r.settleFirst(err)
	var perm errPermanent
	if r.cfg.RefusalFinal && errors.As(err, &perm) {
		r.fail(perm.err)
	} else if r.dials.Load() >= 0 {
		r.fail(err)
	}
	r.backOff(now, 0)
}

// backOff schedules the next dial after a session that lasted uptime.
// The wait is jittered to half-to-full: every dialer backs off from a
// partition on the same clock, and without jitter they would all
// thunder-herd the healed side at the same instant.
func (r *Redialer) backOff(now time.Time, uptime time.Duration) {
	var wait time.Duration
	if wait, r.backoff = nextBackoff(r.backoff, uptime); wait > 0 {
		wait = wait/2 + time.Duration(r.rng.Int64N(int64(wait/2)+1))
	}
	r.due = now.Add(wait)
}

func (r *Redialer) settleFirst(err error) {
	select {
	case <-r.first:
	default:
		r.firstErr = err
		close(r.first)
	}
}

func (r *Redialer) fail(err error) { r.err.CompareAndSwap(nil, &err) }

// Kick tells the machine the other end was just seen alive: a pending
// backoff wait ends now and the backoff restarts at its floor. It never
// blocks; kicks that arrive before the wait coalesce into one.
func (r *Redialer) Kick() {
	r.kicked.Store(true)
	poke(r.wake)
}

// Send delivers m on the live session, stamped with the wire version. A
// failed send marks the session dead — a write stall is a dead session
// even while its read side idles along — so the machine redials.
func (r *Redialer) Send(m wire.Message) error {
	a := r.cur.Load()
	if a == nil {
		return errSessionDown
	}
	m.V = wire.Version
	if err := a.sess.Send(m); err != nil {
		r.die(a)
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
	if err := r.err.Load(); err != nil {
		return *err
	}
	return nil
}

// Close tears the live session down, stops the machine and any
// handshake in flight, and returns once the machine has ended.
// Idempotent.
func (r *Redialer) Close() {
	r.closed.Store(true)
	poke(r.wake)
	r.clk.Wait(r.done)
}
