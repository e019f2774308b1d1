package immunity

import (
	"fmt"
	"sync"

	"github.com/dimmunix/dimmunix/internal/core"
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

// ExchangeClient bridges one phone's Service to a fleet exchange over a
// Transport. It owns the protocol session: hello/ack handshake carrying
// the fleet epoch already applied (so a reconnect receives only missed
// deltas), upward reports of locally detected signatures, downward delta
// installs into the Service, and automatic redial with backoff when the
// transport session drops.
type ExchangeClient struct {
	id    string
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
	cancelLocal func()

	// rd owns the wire session — handshake, redial, send (redial.go);
	// deviceAttempt below is this tier's policy half.
	rd        *Redialer
	wg        sync.WaitGroup
	closeOnce sync.Once
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
		svc:         svc,
		fromFleet:   make(map[string]bool),
		fleetEpochs: make(map[string]uint64),
	}
	for _, opt := range opts {
		opt(c)
	}
	c.rd = NewRedialer(RedialConfig{
		Transport:    t,
		Begin:        func() Attempt { return &deviceAttempt{c: c} },
		RefusalFinal: true,
	})
	if err := c.rd.Handshake(); err != nil {
		return nil, fmt.Errorf("exchange connect %s: %w", deviceID, err)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.rd.Run()
		// Run ends on Close or a final refusal; either way a client with
		// no session must not keep receiving Service deltas. Every
		// resubscribe after Connect ran on this goroutine, so none can
		// follow this release.
		c.release()
	}()
	return c, nil
}

// deviceAttempt is the device tier's policy half of one dial: the hello
// carries the per-gen epoch map, and the attempt's delta epochs stay
// quarantined in maxEpoch until the handshake accepts the session.
type deviceAttempt struct {
	c        *ExchangeClient
	sent     map[string]uint64 // the epochs the hello carried
	maxEpoch uint64            // highest delta epoch received; guarded by c.mu
}

// Hello implements Attempt.
func (a *deviceAttempt) Hello() wire.Message {
	c := a.c
	c.mu.Lock()
	a.sent = make(map[string]uint64, len(c.fleetEpochs))
	for g, e := range c.fleetEpochs {
		a.sent[g] = e
	}
	c.mu.Unlock()
	return wire.Message{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: c.id,
			MinV: wire.Version, MaxV: wire.Version, Epochs: a.sent, Token: c.token}}
}

// Verdict implements Attempt. It binds the incarnation — no attempt is
// live during a handshake, so nothing advances under the new gen before
// Accepted — and compares the ack against the epoch the hello carried
// for it, the value the hub's catch-up filtered against.
func (a *deviceAttempt) Verdict(ack wire.Ack) error {
	c := a.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hubGen = ack.Gen
	c.pruneEpochsLocked()
	if sent := a.sent[ack.Gen]; ack.Epoch < sent {
		// The hub's epoch is outright behind the one we stored for this
		// very incarnation (a provenance store rolled back under it): our
		// resume point is fiction and this session's catch-up was filtered
		// against it. Resubscribe from scratch; the redial's epoch-0 entry
		// replays the full armed set (hot-install dedupes whatever we
		// already hold). A *new* incarnation needs no such reset — its gen
		// is absent from our map, so the hub already replayed from zero.
		c.fleetEpochs[ack.Gen] = 0
		return fmt.Errorf("hub epoch regressed (gen %q, epoch %d vs our %d): resubscribing from 0", ack.Gen, ack.Epoch, sent)
	}
	return nil
}

// Accepted implements Attempt: deltas that arrived before the handshake
// settled are safe resume-point advances on an accepted session.
func (a *deviceAttempt) Accepted() {
	c := a.c
	c.mu.Lock()
	if a.maxEpoch > c.fleetEpochs[c.hubGen] {
		c.fleetEpochs[c.hubGen] = a.maxEpoch
	}
	c.mu.Unlock()
	c.resubscribe()
}

// Recv implements Attempt (transport goroutine). Receipts and status
// snapshots are informational.
func (a *deviceAttempt) Recv(m wire.Message) {
	if m.Type == wire.TypeDelta {
		a.c.applyDelta(a, m.Delta)
	}
}

// resubscribe (re)wires the local report path: the whole local history
// is replayed from epoch 0 through the report filter, so signatures
// detected before connecting — or while disconnected — reach the hub.
func (c *ExchangeClient) resubscribe() {
	c.release()
	cancel := c.svc.Subscribe("exchange:"+c.id, 0, func(_ uint64, sigs []*core.Signature) {
		c.reportLocal(sigs)
	})
	c.mu.Lock()
	c.cancelLocal = cancel
	c.mu.Unlock()
}

// release cancels the local report subscription, if any.
func (c *ExchangeClient) release() {
	c.mu.Lock()
	cancel := c.cancelLocal
	c.cancelLocal = nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// reportLocal forwards locally accepted signatures to the hub in one
// report message, filtering out signatures that came *from* the hub. A
// failed send marks the session dead, so the reconnect resubscribes and
// re-reports the full history — a detection must never be silently
// lost.
func (c *ExchangeClient) reportLocal(sigs []*core.Signature) {
	c.mu.Lock()
	out := make([]wire.Signature, 0, len(sigs))
	for _, sig := range sigs {
		if !c.fromFleet[sig.Key()] {
			out = append(out, wire.FromCore(sig))
		}
	}
	c.mu.Unlock()
	if len(out) == 0 {
		return
	}
	_ = c.rd.Send(wire.Message{Type: wire.TypeReport, Report: &wire.Report{Sigs: out}})
}

// applyDelta installs fleet-armed signatures into the phone's Service.
// Each key is marked before publishing so the local delta subscription
// never echoes it back as a confirmation. The resume point only
// advances for the accepted session's deltas: a session the handshake
// condemns still installs every delta it delivers — an antibody is
// never refused — but its epochs stay quarantined in the attempt.
// Otherwise a condemned session's delta racing the redial would
// fast-forward the resume point past armings that were filtered out and
// lose them for good.
func (c *ExchangeClient) applyDelta(att *deviceAttempt, d *wire.Delta) {
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
	}
	if !applied {
		return // next reconnect re-requests this delta's range
	}
	c.mu.Lock()
	if d.Epoch > att.maxEpoch {
		att.maxEpoch = d.Epoch
		if c.rd.Live(att) && att.maxEpoch > c.fleetEpochs[c.hubGen] {
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
func (c *ExchangeClient) Reconnects() uint64 { return c.rd.Reconnects() }

// Err returns the permanent error that stopped the client, if any (e.g.
// the hub refusing the protocol version after an upgrade).
func (c *ExchangeClient) Err() error { return c.rd.Err() }

// Close disconnects the phone from the hub: local reporting stops, the
// session closes, and the redial loop exits. The hub keeps the device's
// confirmation state — a later Connect with the same device id resumes
// it. Close is idempotent.
func (c *ExchangeClient) Close() {
	c.closeOnce.Do(func() {
		c.rd.Close()
		c.wg.Wait()
	})
}
