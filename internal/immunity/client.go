package immunity

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// Transport is a device's path to a fleet exchange: it moves wire
// messages and nothing else. Dial opens one session; recv is invoked for
// every hub→client message in order (on a transport goroutine, with no
// client locks held), and down is invoked at most once when the session
// dies for any reason other than a local Close. The two built-in
// implementations are the in-process Loopback and the TCP transport.
type Transport interface {
	Dial(recv func(wire.Message), down func(err error)) (Session, error)
}

// Session is one live wire session from the client's side.
type Session interface {
	// Send delivers one client→hub message. It may fail when the session
	// has died; the client recovers by redialing.
	Send(m wire.Message) error
	// Close tears the session down. The down callback does not fire for
	// a local Close.
	Close() error
}

// helloTimeout bounds how long a dial waits for the hub's ack.
const helloTimeout = 10 * time.Second

// dialAttempt quarantines one dial's epoch advances until the handshake
// accepts the session. Guarded by ExchangeClient.mu.
type dialAttempt struct {
	maxEpoch uint64 // highest delta epoch received on this attempt's session
}

// errPermanent wraps session errors that redialing cannot fix (the hub
// refused the handshake: version mismatch, bad device id).
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// ExchangeClient bridges one phone's Service to a fleet exchange over a
// Transport. It owns the protocol session: hello/ack handshake carrying
// the fleet epoch already applied (so a reconnect receives only missed
// deltas), upward reports of locally detected signatures, downward delta
// installs into the Service, and automatic redial with backoff when the
// transport session drops.
type ExchangeClient struct {
	id    string
	t     Transport
	svc   *Service
	token string // bearer token carried in every hello (WithClientToken)

	mu        sync.Mutex
	fromFleet map[string]bool // keys received from the hub; not re-reported
	// fleetEpochs is the client's merged multi-hub view: the newest
	// delta epoch applied per hub incarnation (gen, learned from the
	// ack). The whole map travels in every hello, so whichever hub of a
	// federated cluster answers the dial finds its own resume point —
	// epochs are only comparable within one incarnation, and a hub the
	// client never spoke to simply replays from zero (hot-install
	// dedupes). hubGen is the incarnation currently attached.
	fleetEpochs map[string]uint64
	hubGen      string
	sess        Session
	// curAtt is the dial attempt whose session passed the handshake;
	// only its deltas may advance fleetEpochs. A session the handshake
	// later condemns (wrong version, epoch regression) still
	// installs every delta it delivers — an antibody is never refused —
	// but its epochs are quarantined in the attempt: otherwise a
	// condemned session's delta racing the redial would fast-forward the
	// resume point past armings that were filtered out and lose them for
	// good.
	curAtt      *dialAttempt
	ackCh       chan wire.Ack
	cancelLocal func()
	closed      bool
	permErr     error // set when the hub refused us for good

	downCh     chan struct{}
	closeCh    chan struct{}
	wg         sync.WaitGroup
	reconnects atomic.Uint64
	closeOnce  sync.Once

	// Optional mirrors onto a shared registry (WithClientMetrics). All
	// nil — and therefore no-ops — unless the option was given.
	metReconnects *metrics.Counter
	metReports    *metrics.Counter
	metInstalls   *metrics.Counter
}

// ClientOption configures an ExchangeClient.
type ClientOption func(*ExchangeClient)

// WithClientToken attaches a bearer token (see immunity/auth) to every
// hello the client sends — required against an auth-enabled hub, whose
// verifier must accept the token and find this device id in its device
// claim. An auth-disabled hub ignores the token, so the same client
// works against both. An empty token leaves the hello without one.
func WithClientToken(token string) ClientOption {
	return func(c *ExchangeClient) { c.token = token }
}

// WithClientMetrics mirrors the client's session health onto reg,
// labelled by device id: immunity_client_reconnects_total (redials
// after a drop), immunity_client_reports_total (report messages sent
// upward), immunity_client_installs_total (fleet signatures installed
// from deltas). The registry's instruments are lock-free, so the hooks
// are safe on the transport goroutine.
func WithClientMetrics(reg *metrics.Registry) ClientOption {
	return func(c *ExchangeClient) {
		c.metReconnects = reg.CounterVec("immunity_client_reconnects_total",
			"Redials after a dropped hub session, per device.", "device").With(c.id)
		c.metReports = reg.CounterVec("immunity_client_reports_total",
			"Report messages sent to the hub, per device.", "device").With(c.id)
		c.metInstalls = reg.CounterVec("immunity_client_installs_total",
			"Fleet signatures installed from hub deltas, per device.", "device").With(c.id)
	}
}

// Connect attaches a phone's Service to the fleet exchange reachable
// through t, under deviceID. The initial dial and handshake are
// synchronous — a refused handshake (e.g. protocol version mismatch) or
// unreachable hub fails here — after which the client keeps itself
// connected: a dropped session is redialed with backoff, the hello
// carries the last applied fleet epoch, and the device's entire local
// history is re-reported (the hub discards echoes and duplicates, so
// re-reporting is idempotent). Disconnect with Close.
func Connect(t Transport, deviceID string, svc *Service, opts ...ClientOption) (*ExchangeClient, error) {
	if svc == nil {
		return nil, fmt.Errorf("exchange connect %s: nil service", deviceID)
	}
	if deviceID == "" {
		return nil, fmt.Errorf("exchange connect: empty device id")
	}
	c := &ExchangeClient{
		id:          deviceID,
		t:           t,
		svc:         svc,
		fromFleet:   make(map[string]bool),
		fleetEpochs: make(map[string]uint64),
		downCh:      make(chan struct{}, 1),
		closeCh:     make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	if err := c.dial(); err != nil {
		return nil, fmt.Errorf("exchange connect %s: %w", deviceID, err)
	}
	c.resubscribe()
	c.wg.Add(1)
	go c.reconnectLoop()
	return c, nil
}

// dial opens one session and completes the hello/ack handshake.
func (c *ExchangeClient) dial() error {
	ackCh := make(chan wire.Ack, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("client closed")
	}
	c.ackCh = ackCh
	epochs := make(map[string]uint64, len(c.fleetEpochs))
	for g, e := range c.fleetEpochs {
		epochs[g] = e
	}
	c.mu.Unlock()
	clearAck := func() {
		c.mu.Lock()
		if c.ackCh == ackCh {
			c.ackCh = nil
		}
		c.mu.Unlock()
	}

	att := &dialAttempt{}
	sess, err := c.t.Dial(func(m wire.Message) { c.recv(att, m) }, c.down)
	if err != nil {
		clearAck()
		return err
	}
	hello := wire.Message{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: c.id,
			MinV: wire.Version, MaxV: wire.Version, Epochs: epochs, Token: c.token}}
	ackWait := helloTimeout
	if err := sess.Send(hello); err != nil {
		// A refused handshake surfaces differently per transport: over
		// TCP the hub queues the failure ack and hangs up (Send itself
		// succeeded), over loopback the refusal IS the Send error while
		// the ack still arrives on the queue goroutine. Give the ack a
		// short window so a refusal classifies as permanent on both
		// transports; absent one, report the send error as transient.
		ackWait = 500 * time.Millisecond
		defer func() {
			clearAck()
			sess.Close()
		}()
		select {
		case ack := <-ackCh:
			if !ack.OK {
				return errPermanent{fmt.Errorf("hub refused: %s", ack.Error)}
			}
		case <-time.After(ackWait):
		case <-c.closeCh:
		}
		return err
	}
	select {
	case ack := <-ackCh:
		if !ack.OK {
			clearAck()
			sess.Close()
			return errPermanent{fmt.Errorf("hub refused: %s", ack.Error)}
		}
		if ack.V != wire.Version {
			clearAck()
			sess.Close()
			return fmt.Errorf("hub acked protocol version %d, want %d: redialing", ack.V, wire.Version)
		}
		// Compare against the epoch the hello actually carried for this
		// gen — the value the hub's catch-up filtered against. Reading
		// the live map here would race the recv goroutine: a delta
		// applied during the handshake bumps it past ack.Epoch and would
		// masquerade as a regression, tearing down a healthy session.
		sent := epochs[ack.Gen]
		c.mu.Lock()
		c.hubGen = ack.Gen
		c.pruneEpochsLocked()
		c.mu.Unlock()
		if ack.Epoch < sent {
			// The hub's epoch is outright behind the one we stored for
			// this very incarnation (a provenance store rolled back under
			// it): our resume point is fiction and this session's
			// catch-up was filtered against it. Resubscribe from scratch;
			// the redial's epoch-0 entry replays the full armed set
			// (hot-install dedupes whatever we already hold). A *new*
			// incarnation needs no such reset — its gen is absent from
			// our map, so the hub already replayed from zero.
			c.mu.Lock()
			c.fleetEpochs[ack.Gen] = 0
			c.mu.Unlock()
			clearAck()
			sess.Close()
			return fmt.Errorf("hub epoch regressed (gen %q, epoch %d vs our %d): resubscribing from 0", ack.Gen, ack.Epoch, sent)
		}
	case <-time.After(ackWait):
		clearAck()
		sess.Close()
		return errors.New("timed out waiting for hub ack")
	case <-c.closeCh:
		clearAck()
		sess.Close()
		return errors.New("client closed")
	}
	c.mu.Lock()
	if c.closed {
		// Close raced the tail of the handshake and saw no session to
		// tear down; installing sess now would leak it (and keep the
		// device registered on the hub) forever.
		c.mu.Unlock()
		sess.Close()
		return errors.New("client closed")
	}
	c.sess = sess
	c.curAtt = att
	// Merge deltas that arrived before the handshake settled: on an
	// accepted session they are safe resume-point advances.
	if att.maxEpoch > c.fleetEpochs[c.hubGen] {
		c.fleetEpochs[c.hubGen] = att.maxEpoch
	}
	c.ackCh = nil // handshake done; later acks are unsolicited
	c.mu.Unlock()
	return nil
}

// resubscribe (re)wires the local report path: the whole local history
// is replayed from epoch 0 through the report filter, so signatures
// detected before connecting — or while disconnected — reach the hub.
func (c *ExchangeClient) resubscribe() {
	c.mu.Lock()
	old := c.cancelLocal
	c.cancelLocal = nil
	c.mu.Unlock()
	if old != nil {
		old()
	}
	cancel := c.svc.Subscribe("exchange:"+c.id, 0, func(_ uint64, sigs []*core.Signature) {
		c.reportLocal(sigs)
	})
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.cancelLocal = cancel
	}
	c.mu.Unlock()
	if closed {
		cancel()
	}
}

// reportLocal forwards locally accepted signatures to the hub in one
// report message, filtering out signatures that came *from* the hub. A
// failed send marks the session dead (a write stall is a dead session
// even while its read side idles along) so the reconnect resubscribes
// and re-reports the full history — a detection must never be silently
// lost.
func (c *ExchangeClient) reportLocal(sigs []*core.Signature) {
	c.mu.Lock()
	sess := c.sess
	out := make([]wire.Signature, 0, len(sigs))
	for _, sig := range sigs {
		if !c.fromFleet[sig.Key()] {
			out = append(out, wire.FromCore(sig))
		}
	}
	c.mu.Unlock()
	if sess == nil || len(out) == 0 {
		return
	}
	if err := sess.Send(wire.Message{V: wire.Version, Type: wire.TypeReport, Report: &wire.Report{Sigs: out}}); err != nil {
		c.down(err)
		return
	}
	c.metReports.Inc()
}

// recv handles one hub→client message on behalf of dial attempt att
// (transport goroutine).
func (c *ExchangeClient) recv(att *dialAttempt, m wire.Message) {
	switch m.Type {
	case wire.TypeAck:
		c.mu.Lock()
		ackCh := c.ackCh
		if m.Ack.OK && ackCh != nil {
			// Bind the incarnation before handing the ack to dial: the
			// catch-up delta may arrive on this goroutine before dial's
			// select runs, and its epoch must be recorded under the gen
			// that produced it.
			c.hubGen = m.Ack.Gen
		}
		c.mu.Unlock()
		if ackCh != nil {
			select {
			case ackCh <- *m.Ack:
			default:
			}
		} else if !m.Ack.OK {
			// An unsolicited failure ack is the hub telling an
			// established session to go away for good (e.g. superseded
			// by a newer session for the same device): stop redialing.
			c.mu.Lock()
			c.permErr = fmt.Errorf("hub: %s", m.Ack.Error)
			c.mu.Unlock()
		}
	case wire.TypeDelta:
		c.applyDelta(att, m.Delta)
	case wire.TypeConfirm, wire.TypeStatus:
		// Receipts and status snapshots are informational.
	}
}

// applyDelta installs fleet-armed signatures into the phone's Service.
// Each key is marked before publishing so the local delta subscription
// never echoes it back as a confirmation. The resume point only
// advances for the accepted session's deltas — an attempt the
// handshake condemns keeps its epochs quarantined (see curAtt).
func (c *ExchangeClient) applyDelta(att *dialAttempt, d *wire.Delta) {
	applied := true
	for _, ws := range d.Sigs {
		sig, err := ws.ToCore()
		if err != nil {
			// A malformed push must not take the device down — but it
			// must not count as applied either, or the epoch would claim
			// an antibody the device never installed.
			applied = false
			continue
		}
		c.mu.Lock()
		c.fromFleet[sig.Key()] = true
		c.mu.Unlock()
		_, _, _ = c.svc.Publish("fleet", sig)
		c.metInstalls.Inc()
	}
	if !applied {
		return // next reconnect re-requests this delta's range
	}
	c.mu.Lock()
	if d.Epoch > att.maxEpoch {
		att.maxEpoch = d.Epoch
		if c.curAtt == att && att.maxEpoch > c.fleetEpochs[c.hubGen] {
			c.fleetEpochs[c.hubGen] = att.maxEpoch
		}
	}
	c.mu.Unlock()
}

// pruneEpochsLocked bounds the per-gen epoch map: a device that rode
// out many memory-only hub restarts must not accumulate resume points
// for incarnations that no longer exist. Dropping one only costs a full
// replay on a hub that somehow returns under a dropped gen — redundant
// traffic, never a lost antibody. Caller holds c.mu.
func (c *ExchangeClient) pruneEpochsLocked() {
	const maxGens = 16
	for g := range c.fleetEpochs {
		if len(c.fleetEpochs) <= maxGens {
			break
		}
		if g != c.hubGen {
			delete(c.fleetEpochs, g)
		}
	}
}

// down is invoked by the transport when the session dies.
func (c *ExchangeClient) down(error) {
	select {
	case c.downCh <- struct{}{}:
	default:
	}
}

// shutdownSession releases the client's live resources — the local
// report subscription and the wire session — without marking the client
// closed. It backs both the permanent-stop path (a client the hub
// refused must not keep receiving Service deltas on a dead session) and
// Close itself.
func (c *ExchangeClient) shutdownSession() {
	c.mu.Lock()
	cancel := c.cancelLocal
	c.cancelLocal = nil
	sess := c.sess
	c.sess = nil
	c.curAtt = nil // a dead session's stragglers must not move the resume point
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if sess != nil {
		sess.Close()
	}
}

// reconnectLoop redials dropped sessions with exponential backoff. A
// permanent refusal (the hub rejecting the handshake, or superseding
// this session) stops the loop and releases the subscription and
// session.
func (c *ExchangeClient) reconnectLoop() {
	defer c.wg.Done()
	backoffMin, backoffMax := 5*time.Millisecond, 500*time.Millisecond
	for {
		select {
		case <-c.closeCh:
			return
		case <-c.downCh:
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if c.permErr != nil {
			c.mu.Unlock()
			c.shutdownSession()
			return
		}
		if c.sess != nil {
			c.sess.Close()
			c.sess = nil
		}
		c.curAtt = nil
		c.mu.Unlock()

		backoff := backoffMin
		for {
			err := c.dial()
			if err == nil {
				c.reconnects.Add(1)
				c.metReconnects.Inc()
				c.resubscribe()
				break
			}
			var perm errPermanent
			if errors.As(err, &perm) {
				c.mu.Lock()
				c.permErr = perm.err
				c.mu.Unlock()
				c.shutdownSession()
				return
			}
			select {
			case <-c.closeCh:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
		}
	}
}

// DeviceID returns the client's device id.
func (c *ExchangeClient) DeviceID() string { return c.id }

// FleetEpoch returns the newest fleet delta epoch the client applied
// from the hub incarnation it is currently attached to.
func (c *ExchangeClient) FleetEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleetEpochs[c.hubGen]
}

// FleetEpochs returns the client's merged multi-hub view: the newest
// applied epoch per hub incarnation it has spoken to.
func (c *ExchangeClient) FleetEpochs() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.fleetEpochs))
	for g, e := range c.fleetEpochs {
		out[g] = e
	}
	return out
}

// Reconnects returns how many times the client redialed after a drop.
func (c *ExchangeClient) Reconnects() uint64 { return c.reconnects.Load() }

// Err returns the permanent error that stopped the client, if any (e.g.
// the hub refusing the protocol version after an upgrade).
func (c *ExchangeClient) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.permErr
}

// Close disconnects the phone from the hub: local reporting stops, the
// session closes, and the redial loop exits. The hub keeps the device's
// confirmation state — a later Connect with the same device id resumes
// it. Close is idempotent.
func (c *ExchangeClient) Close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		close(c.closeCh)
		c.shutdownSession()
		c.wg.Wait()
	})
}
