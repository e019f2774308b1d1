package immunity

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// The cross-device tier. An Exchange is the fleet hub a set of phones
// syncs deadlock histories through, and it speaks only the wire protocol
// (package wire): each phone's Service connects via an ExchangeClient
// over a Transport — the in-process loopback or real TCP — reports
// locally detected signatures upward, and receives fleet-armed
// signatures downward as delta pushes, which it publishes into the local
// Service, immunizing every live process on the phone. The hub keeps
// per-signature provenance (first-seen device, the set of confirming
// devices, the fleet epoch it armed at) and arms a signature fleet-wide
// only after the confirm-before-arm threshold of *distinct* devices has
// independently reported it: one device's false positive (a
// mis-detected cycle, a corrupted history) cannot degrade avoidance on
// the whole fleet.
//
// A signature the hub has pushed to a device is never counted again as
// that device's confirmation — whether it comes back through a live
// client's echo, a reconnect's epoch-0 re-report, or (with a
// ProvenanceStore) a report replayed after a hub reboot — so the
// threshold counts independent observations only. What a device was
// pushed is one delivery cursor per device, not a set per signature
// (the package comment's "Delivery cursor"): a hello and a session's
// end each persist one record, whatever the armed set's size.

// ExchangeStats snapshots the hub's counters.
type ExchangeStats struct {
	// Epoch is the fleet delta epoch (number of armings so far).
	Epoch uint64
	// Devices is the number of currently connected devices.
	Devices int
	// Reports counts signatures received in report messages.
	Reports uint64
	// Confirmations counts reports accepted as fresh confirmations.
	Confirmations uint64
	// Echoes counts reports discarded because the device had already
	// confirmed the signature or only held it via a hub push.
	Echoes uint64
	// DeltaBatches and DeltaSignatures count delta pushes actually sent:
	// DeltaSignatures/DeltaBatches > 1 means publish storms were
	// coalesced into fewer wire messages.
	DeltaBatches, DeltaSignatures uint64
	// PersistErrors counts failed provenance-store appends (the
	// in-memory state still gates correctly; only restart durability of
	// the failed record is lost).
	PersistErrors uint64
	// Forwards counts device-reported signatures relayed to their owning
	// hub (cluster mode only).
	Forwards uint64
	// RemoteInstalls counts armed signatures installed from peer
	// arm-broadcasts (cluster mode only).
	RemoteInstalls uint64
	// Fenced counts stale peer arm-broadcasts refused by the membership
	// fencing rule (cluster mode only).
	Fenced uint64
	// AdmissionAdmitted/Delayed/Shed snapshot the report admission pool
	// (all zero when admission is disabled): reports admitted without
	// waiting, admitted after a bounded wait, and dropped at max wait.
	AdmissionAdmitted, AdmissionDelayed, AdmissionShed uint64
	// Parked is the number of signatures whose threshold crossing is
	// currently deferred because the hub does not hold the quorum lease
	// (cluster mode with leases only; see ClusterBinding.MayArm).
	Parked int
}

// hubMetrics bundles the registry instruments the Exchange hot paths
// touch. Every field is created once at construction; all operations
// are lock-free atomics, safe under x.mu and the push-queue locks.
type hubMetrics struct {
	reports        *metrics.Counter
	confirms       *metrics.Counter
	echoes         *metrics.Counter
	armed          *metrics.Counter
	forwards       *metrics.Counter
	remoteInstalls *metrics.Counter
	persistErrors  *metrics.Counter
	fenced         *metrics.Counter
	replicaRecords *metrics.Counter
	handoffRecords *metrics.Counter
	parkedArms     *metrics.Counter
	parkedGauge    *metrics.Gauge
	authFailures   *metrics.CounterVec
	deviceSessions *metrics.Gauge
	peerSessions   *metrics.Gauge
	pushDepth      *metrics.Gauge
	pushInFlight   *metrics.Gauge
	pushBatchSizes *metrics.Histogram
	pushCoalesce   *metrics.Histogram
	reportSeconds  *metrics.Histogram
	handleSeconds  *metrics.Histogram
}

func newHubMetrics(reg *metrics.Registry) hubMetrics {
	return hubMetrics{
		reports:        reg.Counter("immunity_hub_reports_total", "Signatures received in report messages."),
		confirms:       reg.Counter("immunity_hub_confirmations_total", "Reports accepted as fresh confirmations."),
		echoes:         reg.Counter("immunity_hub_echoes_total", "Reports discarded as echoes of hub pushes or duplicates."),
		armed:          reg.Counter("immunity_hub_armed_total", "Signatures armed fleet-wide on this hub (local + remote installs)."),
		forwards:       reg.Counter("immunity_hub_forwards_total", "Device-reported signatures relayed to their owning hub."),
		remoteInstalls: reg.Counter("immunity_hub_remote_installs_total", "Armed signatures installed from peer arm-broadcasts."),
		persistErrors:  reg.Counter("immunity_hub_persist_errors_total", "Failed provenance-store appends."),
		fenced:         reg.Counter("immunity_hub_fenced_total", "Stale peer arm-broadcasts refused by the membership fencing rule."),
		replicaRecords: reg.Counter("immunity_hub_replica_records_total", "Deputy-replicated pending confirmation sets installed."),
		handoffRecords: reg.Counter("immunity_hub_handoff_records_total", "Owned provenance records imported via ownership handoff."),
		parkedArms:     reg.Counter("immunity_hub_parked_arms_total", "Threshold crossings deferred because the hub did not hold the quorum lease."),
		parkedGauge:    reg.Gauge("immunity_hub_parked_arms", "Signatures currently parked at threshold awaiting the quorum lease."),
		authFailures:   reg.CounterVec("immunity_hub_auth_failures_total", "Sessions refused by authentication, by reason.", "reason"),
		deviceSessions: reg.Gauge("immunity_hub_device_sessions", "Devices currently attached by hello."),
		peerSessions:   reg.Gauge("immunity_hub_peer_sessions", "Peer hubs currently attached by peer-hello."),
		pushDepth:      reg.Gauge("immunity_hub_push_pending", "Items pending (queued + in flight) across all session push queues."),
		pushInFlight:   reg.Gauge("immunity_hub_push_inflight", "Items taken by push-queue drains and not yet delivered."),
		pushBatchSizes: reg.Histogram("immunity_hub_push_batch_size", "Messages per push-queue drain after coalescing.", metrics.SizeBuckets()),
		pushCoalesce:   reg.Histogram("immunity_hub_push_coalesce_ratio", "Raw queued messages per delivered message, per drain.", metrics.RatioBuckets()),
		reportSeconds:  reg.Histogram("immunity_hub_report_seconds", "Report-batch handling time, admission wait included.", metrics.DurationBuckets()),
		handleSeconds:  reg.Histogram("immunity_hub_report_handle_seconds", "Report-batch processing time, admission wait excluded.", metrics.DurationBuckets()),
	}
}

// sessKey is the conns-map key for one device session: device ids are
// only unique within a tenant.
func sessKey(tenant, device string) string {
	if tenant == "" {
		return device
	}
	return tenant + "/" + device
}

// authReason maps a verifier error to its failure-counter label.
func authReason(err error) string {
	switch {
	case errors.Is(err, auth.ErrExpired):
		return "expired"
	case errors.Is(err, auth.ErrBadSignature):
		return "bad-signature"
	case errors.Is(err, auth.ErrUnknownKey):
		return "unknown-key"
	default:
		return "malformed"
	}
}

// ClusterBinding is how a federated cluster node (internal/immunity/
// cluster) plugs into a hub. Its methods come in two kinds, matching
// the hub's two halves (see the package comment's "Decision point").
type ClusterBinding interface {
	// Pure queries the arbiter may call under Exchange.mu. The node
	// answers them from its own leaf-locked membership and lease state;
	// they must not block or call back into the Exchange.

	// Owns reports whether this hub owns the signature key.
	Owns(key string) bool
	// OwnerOf names the hub currently owning key under the live ring.
	OwnerOf(key string) string
	// Epoch is the membership epoch — the fencing token stamped on
	// arm-broadcasts and checked on receipt.
	Epoch() uint64
	// MayArm reports whether this hub currently holds the right to take
	// a fresh arming decision — true always without a quorum lease,
	// else only while the lease is held. The arbiter consults it at
	// every threshold crossing; when false the decision parks (the hub
	// degrades to read-only forwarding and confirmation counting) until
	// LeaseAcquired replays the parked set. Lock-cheap: it sits on the
	// report hot path.
	MayArm() bool

	// Identity and membership reads the shell makes under Exchange.mu
	// (bind, status, the peer-hello snapshot); pure like the queries.

	// SelfID is this hub's cluster id.
	SelfID() string
	// Members is the full ownership-ring membership, self included.
	Members() []string
	// MemberSnapshot is the full membership state at its current epoch,
	// pushed to freshly handshaken peers.
	MemberSnapshot() wire.MemberUpdate

	// Sinks the shell calls after Exchange.mu is released. They may lock
	// the node, send on links, and re-enter the hub.

	// ForwardReport relays a device's report for foreign signatures
	// toward their owning hubs, preserving the tenant and device
	// attribution; keys holds each signature's canonical (tenant-
	// prefixed) key (parallel to sigs) so the node can group by owner
	// without re-decoding, and hops the number of forwarding legs
	// already taken. Must not block (the cluster queues per-peer and
	// redials in the background).
	ForwardReport(tenant, device string, sigs []wire.Signature, keys []string, hops int)
	// Replicate copies one owned, unarmed confirmation set to the key's
	// deputy so arming survives an owner crash. Must not block.
	Replicate(key string, rec wire.OwnedRecord)
	// ApplyMemberUpdate merges a peer's membership snapshot (adopt if
	// newer, deterministic merge at equal epochs). It re-binds
	// ownership, which locks the hub.
	ApplyMemberUpdate(u wire.MemberUpdate)
	// PeerSeen records a completed inbound peer handshake: an unknown
	// hub with an address is admitted into the membership, a down-marked
	// hub is revived.
	PeerSeen(hub, addr string)
	// HandleProbe routes one probe or lease frame (wire.TypePing,
	// TypePingAck, TypeLease, TypeLeaseAck) that arrived on a registered
	// peer session. The node may send replies synchronously from inside
	// it.
	HandleProbe(m wire.Message)
}

// Exchange is the fleet hub. It holds no references to device Services —
// devices exist for it only as wire sessions attached with Accept — so
// any transport that moves wire messages can carry a fleet.
type Exchange struct {
	// verifier authenticates device hellos (nil = auth disabled: any
	// socket may claim any device id, tokens are ignored). peerAuth
	// additionally requires every peer-hello to arrive on a session
	// whose transport identity (mutual-TLS client certificate) matches
	// the claimed hub id.
	verifier auth.Verifier
	peerAuth bool
	store    ProvenanceStore
	// gen identifies this hub incarnation in acks. Fleet epochs are only
	// meaningful within one incarnation: after a restart (above all one
	// without a provenance store) the counter may regrow past a
	// disconnected client's epoch, so clients key their resume point on
	// (gen, epoch) and start over when gen changes. A full re-catch-up
	// after a restart is a little redundant traffic — hot-install
	// dedupes — never a lost antibody.
	gen string

	// mu guards everything below it down to persistMu. arb is the
	// decision half — all fleet state and every rule that changes it;
	// the rest is the sessions its effects are applied to. conns is
	// keyed by sessKey and mirrors arb's attached set; peers maps cluster
	// ids of hubs with a live inbound peer session to their conns.
	// cluster is set once by BindCluster before the hub serves traffic
	// (nil outside a federation).
	mu      sync.Mutex
	arb     *arbiter
	conns   map[string]*Conn
	peers   map[string]*Conn
	cluster ClusterBinding
	closed  bool

	// persistMu serializes provenance-store appends in mutation order;
	// acquired while still holding mu, released after the write (same
	// handoff as Service.persistMu). Lock order: mu > persistMu.
	persistMu sync.Mutex

	batchBatches atomic.Uint64
	batchSigs    atomic.Uint64

	// Observability + admission. reg is the hub's metric registry (always
	// non-nil after NewExchange; the hub's own, or the one given to
	// WithMetricsRegistry), met its pre-created instruments — the hub's
	// only copy of its event counts, which Stats and status read — and
	// admit the report-ingest permit pool (nil = every report admitted
	// at once; see WithAdmission), metered on reg. The registry locks
	// are leaves — see package metrics — so met's atomics are touched
	// under x.mu and queue locks freely.
	reg   *metrics.Registry
	met   hubMetrics
	admit *admission
}

// ExchangeOption configures an Exchange.
type ExchangeOption func(*Exchange)

// WithProvenanceStore attaches durable provenance: every confirmation
// and arming is upserted to the store, as is each device's delivery
// cursor at attach and detach, and a new Exchange over the same store
// resumes with the full fleet state — a rebooted hub neither arms below
// threshold, nor loses confirmations, nor counts its own pushes.
func WithProvenanceStore(store ProvenanceStore) ExchangeOption {
	return func(x *Exchange) { x.store = store }
}

// WithMetricsRegistry makes the hub register its instruments on reg
// instead of a private registry — the daemon shares one registry
// between the hub, its cluster node, and the /metrics endpoint. One
// registry serves one hub (and its node): the instruments are the
// hub's counts, so two hubs on one registry would each read the sum in
// Stats. Without this option the hub meters itself on a private
// registry, reachable via Metrics().
func WithMetricsRegistry(reg *metrics.Registry) ExchangeOption {
	return func(x *Exchange) { x.reg = reg }
}

// WithAdmission puts a pool of 8 permits in front of report ingest
// (device reports and peer forward-reports): at most 8 report batches
// are processed concurrently, an over-capacity batch waits up to
// maxWait — blocking its session's transport read goroutine, which the
// device experiences as a slow ack and TCP turns into backpressure —
// and a batch still waiting then is shed (dropped without killing the
// session; the client's full-history re-report on its next reconnect
// redelivers it, so shedding trades latency for bounded hub memory,
// never a permanently lost report). Keep maxWait well below the
// transport write timeout (30s for TCP) or slow-acked clients start
// redialing. The pool's verdicts are counted on the hub's registry
// (immunity_hub_admission_*) and in ExchangeStats. Without this option
// every report is admitted at once.
func WithAdmission(maxWait time.Duration) ExchangeOption {
	return func(x *Exchange) { x.admit = newAdmission(maxWait) }
}

// WithAuthVerifier turns on device authentication: every hello must
// carry a bearer token the verifier accepts, whose device claim matches
// the hello's device id; the token's tenant claim scopes the session,
// so the device's signatures, confirmations, pushes, and thresholds
// live in its tenant's namespace. Refusals are counted per reason on
// immunity_hub_auth_failures_total. nil keeps auth disabled (the
// default): tokens are ignored and every session lives in the default
// "" tenant.
func WithAuthVerifier(v auth.Verifier) ExchangeOption {
	return func(x *Exchange) { x.verifier = v }
}

// WithPeerAuth requires every peer-hello to arrive on a session whose
// transport identity — the mutual-TLS client-certificate common name
// the transport recorded via Conn.SetTransportIdentity — matches the
// claimed hub id. A rogue hub without a fleet-CA certificate (no
// identity) or with another hub's name therefore cannot join the mesh
// or replay arm-broadcasts.
func WithPeerAuth() ExchangeOption {
	return func(x *Exchange) { x.peerAuth = true }
}

// WithTenantThreshold overrides the confirm-before-arm threshold for
// one tenant — tenants run fleets of very different sizes, so "distinct
// devices before arming" is a per-tenant policy. Unlisted tenants use
// the exchange-wide threshold.
func WithTenantThreshold(tenant string, threshold int) ExchangeOption {
	return func(x *Exchange) {
		if x.arb.tenantThresholds == nil {
			x.arb.tenantThresholds = make(map[string]int)
		}
		x.arb.tenantThresholds[tenant] = max(threshold, 1)
	}
}

// NewExchange creates a hub that arms a signature fleet-wide once
// confirmThreshold distinct devices have reported it (values below 1 are
// treated as 1: arm on first report). With WithProvenanceStore, prior
// fleet state is reloaded before the hub accepts its first session.
func NewExchange(confirmThreshold int, opts ...ExchangeOption) (*Exchange, error) {
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("exchange: generation nonce: %w", err)
	}
	x := &Exchange{
		arb:   newArbiter(max(confirmThreshold, 1)),
		conns: make(map[string]*Conn),
		peers: make(map[string]*Conn),
		gen:   hex.EncodeToString(nonce[:]),
	}
	for _, opt := range opts {
		opt(x)
	}
	if x.reg == nil {
		x.reg = metrics.NewRegistry()
	}
	x.met = newHubMetrics(x.reg)
	if x.admit != nil {
		x.admit.meter(x.reg)
	}
	if x.store != nil {
		recs, err := x.store.Load()
		if err != nil {
			return nil, fmt.Errorf("exchange: load provenance: %w", err)
		}
		var fx effects
		if err := x.arb.load(&fx, recs); err != nil {
			return nil, fmt.Errorf("exchange: %w", err)
		}
		x.mu.Lock()
		x.commit(&fx)
	}
	return x, nil
}

// Threshold returns the confirm-before-arm threshold.
func (x *Exchange) Threshold() int { return x.arb.threshold }

// Metrics returns the hub's metric registry — the one passed via
// WithMetricsRegistry, or the hub's private registry otherwise. The
// daemon renders it on /metrics.
func (x *Exchange) Metrics() *metrics.Registry { return x.reg }

// BindCluster federates the hub: b decides per-signature ownership and
// carries forwarded reports; the hub handles inbound peer sessions
// (peer-hello, forward-report), broadcasts its own armings to them, and
// installs peers' broadcasts via InstallRemote. Must be called before
// the hub serves any traffic; reloaded provenance is reconciled with
// the ring (arbiter.bind).
func (x *Exchange) BindCluster(b ClusterBinding) {
	var fx effects
	x.mu.Lock()
	x.cluster = b
	x.arb.bind(&fx, b, b.SelfID())
	x.commit(&fx)
}

// commit applies one event's effects. It is called with x.mu held and
// releases it, splitting the effects into their two classes: session
// push queues are fed before the release — so every session sees
// armings in decision order, and a hello's catch-up cannot race a live
// delta — while the store write (handed to persistMu under mu, so writes
// land in mutation order) and the cluster sinks run after it.
func (x *Exchange) commit(fx *effects) {
	x.count(&fx.n)
	for _, d := range fx.deltas {
		o := outMsg{delta: d.view}
		for _, conn := range x.conns {
			// conn.tenant is only written under x.mu (handleHello), so it
			// is read here without Conn.mu.
			if conn.tenant == d.tenant {
				conn.out.Enqueue(o)
			}
		}
	}
	// Owned armings fan out to every live inbound peer session as one
	// encode-once frame each; peers that are down catch up from their
	// next peer-hello's seq.
	for _, b := range fx.broadcasts {
		o := outMsg{shared: wire.NewShared(wire.Message{Type: wire.TypeArmBroadcast, Arm: b})}
		for _, pc := range x.peers {
			pc.out.Enqueue(o)
		}
	}
	persist := x.store != nil && len(fx.persist) > 0
	if persist {
		x.persistMu.Lock()
	}
	cluster := x.cluster
	x.mu.Unlock()
	if persist {
		// One write per event: a whole mutation's dirty set costs one
		// write on a file store.
		err := x.store.AppendBatch(fx.persist)
		x.persistMu.Unlock()
		if err != nil {
			x.met.persistErrors.Inc()
		}
	}
	if len(fx.forward.sigs) > 0 {
		cluster.ForwardReport(fx.forward.tenant, fx.forward.device, fx.forward.sigs, fx.forward.keys, fx.forward.hops)
	}
	for i, key := range fx.replKeys {
		cluster.Replicate(key, fx.replRecs[i])
	}
}

// count folds one event's tally into the hub's counters. Caller holds
// x.mu, so Stats, which holds it too, reads every counter at one event
// boundary.
func (x *Exchange) count(n *tally) {
	add := func(met *metrics.Counter, n uint64) {
		if n != 0 {
			met.Add(n)
		}
	}
	add(x.met.reports, n.reports)
	add(x.met.confirms, n.confirms)
	add(x.met.echoes, n.echoes)
	add(x.met.forwards, n.forwards)
	add(x.met.armed, n.armed)
	add(x.met.remoteInstalls, n.remoteInstalls)
	add(x.met.fenced, n.fenced)
	add(x.met.replicaRecords, n.replicas)
	add(x.met.handoffRecords, n.handoffs)
	add(x.met.parkedArms, n.parks)
	x.met.parkedGauge.Set(int64(x.arb.parkedCount()))
}

// Accept attaches one inbound wire session to the hub. send delivers one
// hub→client message over the session and is only ever called from the
// connection's dedicated push goroutine; closeSession tears the carrying
// session down (close the socket, signal the loopback peer) and is
// called exactly once, after the push queue has drained. The transport
// feeds client→hub messages to Conn.Handle and must close the Conn when
// its session dies.
func (x *Exchange) Accept(send func(wire.Message) error, closeSession func()) (*Conn, error) {
	return x.accept(send, nil, closeSession)
}

// AcceptStream attaches an inbound stream session whose write side
// takes already-encoded frames: writeFrames receives every frame of one
// queue drain in a single call, so the transport can push them to the
// kernel in one syscall (writev), and encode-once broadcast frames
// reach it as the same shared bytes every other session at that version
// gets — no per-subscriber marshal. Frames are immutable: the transport
// must not modify their contents (reslicing its own [][]byte during a
// partial write is fine).
func (x *Exchange) AcceptStream(writeFrames func(frames [][]byte) error, closeSession func()) (*Conn, error) {
	return x.accept(nil, writeFrames, closeSession)
}

func (x *Exchange) accept(send func(wire.Message) error, writeFrames func([][]byte) error, closeSession func()) (*Conn, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return nil, fmt.Errorf("exchange: closed")
	}
	c := &Conn{hub: x, closeSession: closeSession}
	cfg := QueueConfig[outMsg]{
		Merge: func(prev, next outMsg) (outMsg, bool) {
			d, ok := mergeViews(prev.delta, next.delta)
			return outMsg{delta: d}, ok
		},
		OnDeliver: func(o outMsg) {
			if o.delta.log != nil {
				x.batchBatches.Add(1)
				x.batchSigs.Add(uint64(len(o.delta.sigs())))
			}
		},
		// c.Close as OnDead is safe to hand over before c.out is assigned:
		// nothing can be enqueued (and thus no delivery can fail) until
		// the caller has the Conn.
		OnDead: c.Close,
		// Shared instruments: one gauge/histogram aggregates every
		// session's push queue.
		Depth:         x.met.pushDepth,
		InFlight:      x.met.pushInFlight,
		BatchSizes:    x.met.pushBatchSizes,
		CoalesceRatio: x.met.pushCoalesce,
	}
	if writeFrames != nil {
		cfg.DeliverBatch = func(batch []outMsg) error { return c.encodeBatch(batch, writeFrames) }
	} else {
		cfg.Deliver = func(o outMsg) error { return send(stamp(o.message())) }
	}
	c.out = NewQueue(cfg)
	return c, nil
}

// outMsg is one queued hub→client delivery, exactly one of: a
// per-session message (acks, confirms, status), a handle on an
// encode-once peer arm-broadcast shared with every other peer session,
// or a device delta — a view of its tenant's arming log. Adjacent
// deltas merge into one view (mergeViews), so a session that fell
// behind holds one pending delta carrying the newest epoch.
type outMsg struct {
	m      *wire.Message
	shared *wire.Shared
	delta  view[wire.Signature]
}

// message returns the delivery's decoded form, version unstamped.
func (o outMsg) message() wire.Message {
	switch {
	case o.m != nil:
		return *o.m
	case o.shared != nil:
		return o.shared.Msg()
	}
	return wire.Message{Type: wire.TypeDelta, Delta: &wire.Delta{Epoch: o.delta.epoch, Sigs: o.delta.sigs()}}
}

// Conn is the hub's side of one wire session — a device session bound
// by hello, or a peer-hub session bound by peer-hello. Transports
// create it with Exchange.Accept, feed inbound messages to Handle, and
// Close it when the session ends.
type Conn struct {
	hub          *Exchange
	out          *msgQueue
	closeSession func()
	// scratch is the reusable per-session frame-encode buffer; touched
	// only by encodeBatch on the queue's drain goroutine.
	scratch []byte

	mu      sync.Mutex
	device  string // set by a successful hello
	tenant  string // the device's tenant, resolved from its token claims
	peerHub string // set by a successful peer-hello
	// transportIdentity is the authenticated identity the transport
	// attached to the session — the mutual-TLS client-certificate
	// common name — or "" for an unauthenticated transport. With
	// WithPeerAuth, a peer-hello must claim exactly this identity.
	transportIdentity string
	closed            bool
	closeOnce         sync.Once
}

// SetTransportIdentity records the transport-level authenticated
// identity (mutual-TLS client-certificate common name) for this
// session. Transports call it once, before feeding any message to
// Handle.
func (c *Conn) SetTransportIdentity(id string) {
	c.mu.Lock()
	c.transportIdentity = id
	c.mu.Unlock()
}

// Tenant returns the tenant the session was scoped to by its token
// claims ("" for the default tenant or before hello).
func (c *Conn) Tenant() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenant
}

// Device returns the device id bound by hello, or "".
func (c *Conn) Device() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.device
}

// checkVersion applies the wire version rule to a hello: the advertised
// range must contain wire.Version and cover the hello's own envelope
// version — a range that does not is a broken (or lying) endpoint that
// demonstrably cannot frame what it claims to speak.
func checkVersion(envelopeV, minV, maxV int) error {
	if envelopeV < minV || envelopeV > maxV {
		return fmt.Errorf("inconsistent protocol version %d outside advertised range %d..%d",
			envelopeV, minV, maxV)
	}
	if _, ok := wire.Negotiate(minV, maxV); !ok {
		return fmt.Errorf("unsupported protocol version %d..%d (hub speaks %d)",
			minV, maxV, wire.Version)
	}
	return nil
}

// stamp sets the delivery version on one decoded message.
func stamp(m wire.Message) wire.Message {
	m.V = wire.Version
	return m
}

// maxConnScratch caps the per-session encode buffer a Conn keeps
// between drains (the Reader-side twin of wire's read scratch cap).
const maxConnScratch = 64 << 10

// encodeBatch resolves one queue drain into encoded frames — shared
// broadcast frames are reused byte-for-byte across sessions, per-session
// messages and deltas are encoded into the Conn's reusable scratch — and
// hands all of them to the transport in a single call. It runs only on the
// queue's drain goroutine, and writeFrames is synchronous, so the
// scratch is free again when it returns.
func (c *Conn) encodeBatch(batch []outMsg, writeFrames func([][]byte) error) error {
	frames := make([][]byte, len(batch))
	// Appending may move the scratch's backing array, so per-session
	// frames are recorded as offsets and re-sliced only after the last
	// append.
	scratch := c.scratch[:0]
	type span struct{ idx, start, end int }
	var spans []span
	for i, o := range batch {
		if o.shared != nil {
			b, err := o.shared.Frame(wire.Version)
			if err != nil {
				return err
			}
			frames[i] = b
			continue
		}
		start := len(scratch)
		var err error
		scratch, err = wire.AppendFrame(scratch, stamp(o.message()))
		if err != nil {
			return err
		}
		spans = append(spans, span{i, start, len(scratch)})
	}
	for _, s := range spans {
		frames[s.idx] = scratch[s.start:s.end]
	}
	if cap(scratch) <= maxConnScratch {
		c.scratch = scratch[:0]
	} else {
		c.scratch = nil
	}
	return writeFrames(frames)
}

// push enqueues one per-session message; the delivery version is
// stamped at write time.
func (c *Conn) push(m wire.Message) { c.out.Enqueue(outMsg{m: &m}) }

// refuse sends a final failure ack and reports the protocol error.
func (c *Conn) refuse(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	c.push(wire.Message{Type: wire.TypeAck, Ack: &wire.Ack{OK: false, Error: msg}})
	return fmt.Errorf("exchange session: %s", msg)
}

// Handle processes one client→hub message. A non-nil error means the
// session violated the protocol (bad version, malformed signature,
// message before hello): the hub has already queued a failure ack where
// one applies, and the transport must Close the Conn.
func (c *Conn) Handle(m wire.Message) error {
	if err := m.Validate(); err != nil {
		// The TCP path validates at decode, but Handle is the hub's API
		// surface for any transport (the loopback hands messages over
		// directly): a structurally broken envelope — wrong or missing
		// payload — must refuse, not panic on a nil payload below.
		return c.refuse("%v", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("exchange session: closed")
	}
	device, tenant, peerHub := c.device, c.tenant, c.peerHub
	c.mu.Unlock()

	switch m.Type {
	case wire.TypeHello, wire.TypePeerHello:
		if device != "" || peerHub != "" {
			// A second device hello would re-register the Conn under a new
			// id while x.conns still mapped the old id to it, so pushes
			// would be recorded against a device that never received them;
			// a session bound in both tiers would receive both tiers'
			// pushes and pollute the delivery bookkeeping.
			return c.refuse("duplicate hello (session already bound to %s)", device+peerHub)
		}
		if m.Type == wire.TypeHello {
			return c.handleHello(m)
		}
		return c.handlePeerHello(m)
	case wire.TypeStatusReq:
		// Status is answerable before hello: monitoring probes need no
		// device identity.
		c.push(wire.Message{Type: wire.TypeStatus, Status: c.hub.status()})
		return nil
	case wire.TypeReport:
		if device == "" {
			return c.refuse("report before hello")
		}
		return c.hub.admitReport(func() error { return c.handleReport(tenant, device, m.Report) })
	case wire.TypeForwardReport:
		if peerHub == "" {
			return c.refuse("forward-report before peer-hello")
		}
		return c.hub.admitReport(func() error { return c.handleForwardReport(m.Forward) })
	case wire.TypeReplicate:
		if peerHub == "" {
			return c.refuse("replicate before peer-hello")
		}
		if err := c.hub.InstallReplica(m.Replicate.Owner, m.Replicate.Records); err != nil {
			return c.refuse("%v", err)
		}
		return nil
	case wire.TypeHandoff:
		if peerHub == "" {
			return c.refuse("handoff before peer-hello")
		}
		if err := c.hub.ImportOwned(m.Handoff.From, m.Handoff.Records); err != nil {
			return c.refuse("%v", err)
		}
		return nil
	case wire.TypeMemberUpdate:
		if peerHub == "" {
			return c.refuse("member-update before peer-hello")
		}
		// Both sinks run outside Exchange.mu: a merge can re-bind ownership,
		// which locks the hub.
		if cluster := c.hub.clusterBinding(); cluster != nil {
			cluster.ApplyMemberUpdate(*m.Member)
		}
		return nil
	case wire.TypePing, wire.TypePingAck, wire.TypeLease, wire.TypeLeaseAck:
		if peerHub == "" {
			return c.refuse("%s before peer-hello", m.Type)
		}
		// The node answers probes and grants leases from its own state and
		// may send replies synchronously.
		if cluster := c.hub.clusterBinding(); cluster != nil {
			cluster.HandleProbe(m)
		}
		return nil
	default:
		return c.refuse("unexpected client message type %q", m.Type)
	}
}

// handleHello validates the handshake and registers the device: version
// check, supersede of any stale session with the same device id, an ok
// ack carrying the hub epoch and the protocol version, then one
// catch-up delta with every armed signature the device's epoch
// predates. The hello's per-gen epoch map takes precedence over the
// flat epoch: the hub resumes the device from the epoch recorded for
// *this* incarnation, or from zero when the device never spoke to it —
// which is what lets one device roam between the hubs of a cluster.
func (c *Conn) handleHello(m wire.Message) error {
	h := m.Hello
	if err := checkVersion(m.V, h.MinV, h.MaxV); err != nil {
		return c.refuse("%v", err)
	}
	if h.Device == "" {
		return c.refuse("empty device id")
	}
	x := c.hub
	tenant := ""
	if x.verifier != nil {
		// Authentication happens before any registration: a refused hello
		// leaves no trace in the conns map. Each refusal is counted by
		// reason so a fleet operator can tell a key rollout gone wrong
		// (bad-signature storm) from clock skew (expired) at a glance.
		if h.Token == "" {
			x.met.authFailures.With("missing-token").Inc()
			return c.refuse("authentication required: hello carries no token")
		}
		claims, err := x.verifier.Verify(h.Token, time.Now())
		if err != nil {
			x.met.authFailures.With(authReason(err)).Inc()
			return c.refuse("authentication failed: %v", err)
		}
		if claims.Device != auth.WildcardDevice && claims.Device != h.Device {
			// A valid token presented with a hello claiming a different
			// device id is a spoof attempt, not a config slip.
			x.met.authFailures.With("device-mismatch").Inc()
			return c.refuse("token not issued for device %q", h.Device)
		}
		tenant = claims.Tenant
	}
	epoch := h.Epochs[x.gen]

	sk := sessKey(tenant, h.Device)
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return c.refuse("exchange closed")
	}
	// Reconnect-friendly registration: a new hello for a device that
	// still has a (possibly dead) session supersedes it. TCP clients
	// redial before the hub notices the old socket died. Sessions are
	// keyed by (tenant, device): the same device id in two tenants is
	// two devices.
	var stale *Conn
	if old, ok := x.conns[sk]; ok && old != c {
		stale = old
	} else if !ok {
		x.met.deviceSessions.Add(1)
	}
	c.mu.Lock()
	c.device = h.Device
	c.tenant = tenant
	c.mu.Unlock()
	x.conns[sk] = c

	// The ack, then the catch-up — every armed signature the client's
	// epoch predates, as one view of the tenant's log — both enqueued in
	// the mu hold that attached the device, so no live delta can slip
	// between them.
	var fx effects
	x.arb.attach(&fx, tenant, h.Device, epoch)
	c.push(wire.Message{Type: wire.TypeAck, Ack: &wire.Ack{OK: true, Epoch: x.arb.epoch, Gen: x.gen, V: wire.Version}})
	if fx.catchup.log != nil {
		c.out.Enqueue(outMsg{delta: fx.catchup})
	}
	x.commit(&fx)

	supersede(stale, "device "+h.Device)
	return nil
}

// supersede retires the session a newer hello for the same identity
// replaced (nil: there was none). A final failure ack tells the stale
// session's dialer it was replaced — a device stops for good instead of
// redialing into a supersession ping-pong; Close drains the queue, so
// the ack goes out first. Close runs on its own goroutine: it waits out
// the stale drain, which on a wedged TCP peer only unblocks at the
// transport write deadline, and the new session's handshake must not
// wait for that.
func supersede(stale *Conn, what string) {
	if stale == nil {
		return
	}
	stale.push(wire.Message{Type: wire.TypeAck,
		Ack: &wire.Ack{OK: false, Error: "superseded by a newer session for " + what}})
	go stale.Close()
}

// handlePeerHello registers an inbound hub-to-hub session: version
// check, supersede of any stale session from the same hub, an ok ack
// carrying this hub's owned-arming seq and gen, then a replay of every
// owned armed signature the peer's seq predates (arbiter.peerReplay).
func (c *Conn) handlePeerHello(m wire.Message) error {
	h := m.PeerHello
	if err := checkVersion(m.V, h.MinV, h.MaxV); err != nil {
		return c.refuse("%v", err)
	}
	if h.Hub == "" {
		return c.refuse("empty peer hub id")
	}
	c.mu.Lock()
	tid := c.transportIdentity
	c.mu.Unlock()
	if c.hub.peerAuth && tid != h.Hub {
		// The claimed hub id must be backed by the session's mutual-TLS
		// certificate identity. A wrong-CA peer has no identity at all
		// (Go withholds — or the handshake rejects — an unverifiable
		// client cert), so it lands here with tid "" and is refused.
		c.hub.met.authFailures.With("peer-identity").Inc()
		return c.refuse("peer hub %q does not match transport identity %q", h.Hub, tid)
	}

	x := c.hub
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return c.refuse("exchange closed")
	}
	if x.cluster == nil {
		x.mu.Unlock()
		return c.refuse("hub is not clustered")
	}
	if h.Hub == x.arb.selfID {
		x.mu.Unlock()
		return c.refuse("peer hub id %q collides with this hub", h.Hub)
	}
	var stale *Conn
	if old, ok := x.peers[h.Hub]; ok && old != c {
		stale = old
	} else if !ok {
		x.met.peerSessions.Add(1)
	}
	c.mu.Lock()
	c.peerHub = h.Hub
	c.mu.Unlock()
	x.peers[h.Hub] = c

	c.push(wire.Message{Type: wire.TypeAck,
		Ack: &wire.Ack{OK: true, Epoch: x.arb.armSeq(), Gen: x.gen, V: wire.Version}})
	for _, arm := range x.arb.peerReplay(h.Seq) {
		c.push(wire.Message{Type: wire.TypeArmBroadcast, Arm: arm})
	}
	// Seed the dialer's membership view: the snapshot predates any
	// admission this handshake itself triggers (PeerSeen below), whose
	// higher-epoch update follows over the regular links.
	snap := x.cluster.MemberSnapshot()
	c.push(wire.Message{Type: wire.TypeMemberUpdate, Member: &snap})
	cluster := x.cluster
	x.mu.Unlock()

	supersede(stale, "hub "+h.Hub)
	// A completed inbound handshake is liveness (and, with an address, a
	// join request): revive or admit the dialer. Runs without x.mu — it
	// can re-bind ownership, which locks the hub.
	cluster.PeerSeen(h.Hub, h.Addr)
	return nil
}

// handleForwardReport records a peer-relayed device report against the
// original device — the owner's (device, signature) dedup therefore
// counts a confirmation at most once however many hops or retries it
// took — and sends each receipt back as a forward-confirm for the
// forwarding hub to relay to the device.
func (c *Conn) handleForwardReport(f *wire.ForwardReport) error {
	if f.Device == "" {
		return c.refuse("forward-report with empty device id")
	}
	sigs := make([]wire.Checked, 0, len(f.Sigs))
	for _, ws := range f.Sigs {
		sig, err := ws.Check()
		if err != nil {
			return c.refuse("malformed forwarded signature: %v", err)
		}
		sigs = append(sigs, sig)
	}
	hops := f.Hops
	if hops < 1 {
		hops = 1 // one leg was taken to get here, whatever the sender counted
	}
	for _, confirm := range c.hub.reportFrom(f.Tenant, f.Device, sigs, hops) {
		c.push(wire.Message{Type: wire.TypeForwardConfirm,
			FwdConfirm: &wire.ForwardConfirm{Device: f.Device, Tenant: f.Tenant, Confirm: *confirm}})
	}
	return nil
}

// admitReport gates one report-path message (device report or peer
// forward-report) through the admission pool and observes the full
// handling duration, wait included. It runs on the session's transport
// read goroutine with no locks held, so an over-capacity wait is
// exactly the device-visible slow ack admission promises: the session
// stops reading, TCP stops acking, the storm backs up on the senders
// instead of in hub memory. A shed batch is dropped without error —
// the session stays up, and the client's full-history re-report on its
// next reconnect redelivers the signatures (at-least-once).
func (x *Exchange) admitReport(fn func() error) error {
	start := time.Now()
	if !x.admit.acquire() {
		return nil
	}
	defer x.admit.release()
	admitted := time.Now()
	err := fn()
	end := time.Now()
	// Two latency series: report_seconds is what a device experiences
	// (wait included), handle_seconds is what the hub itself costs (wait
	// excluded — separates "hub is slow" from "hub is queueing").
	x.met.reportSeconds.ObserveDuration(end.Sub(start))
	x.met.handleSeconds.ObserveDuration(end.Sub(admitted))
	return err
}

// handleReport records the batch's signatures as confirmations by
// device, arming at threshold, and answers each with a confirm receipt.
// The whole batch is one hub mutation: a reconnect re-reports a
// device's entire history in one report message, and that must not cost
// one lock acquisition and one store write per signature.
func (c *Conn) handleReport(tenant, device string, r *wire.Report) error {
	sigs := make([]wire.Checked, 0, len(r.Sigs))
	for _, ws := range r.Sigs {
		sig, err := ws.Check()
		if err != nil {
			return c.refuse("malformed reported signature: %v", err)
		}
		sigs = append(sigs, sig)
	}
	for _, confirm := range c.hub.reportFrom(tenant, device, sigs, 0) {
		c.push(wire.Message{Type: wire.TypeConfirm, Confirm: confirm})
	}
	return nil
}

// Close detaches the session: the device slot is released and its
// delivery cursor closed (unless a newer session superseded it), the
// push queue drains, and the transport teardown hook runs. Close is
// idempotent.
func (c *Conn) Close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		device, tenant, peerHub := c.device, c.tenant, c.peerHub
		c.mu.Unlock()
		x := c.hub
		var fx effects
		x.mu.Lock()
		if sk := sessKey(tenant, device); device != "" && x.conns[sk] == c {
			delete(x.conns, sk)
			x.arb.detach(&fx, tenant, device)
			x.met.deviceSessions.Add(-1)
		}
		if peerHub != "" && x.peers[peerHub] == c {
			delete(x.peers, peerHub)
			x.met.peerSessions.Add(-1)
		}
		x.commit(&fx)
		c.out.Close()
		if c.closeSession != nil {
			c.closeSession()
		}
	})
}

// reportFrom records the batch as confirmations by device (arbiter.
// report) under one hub lock and one provenance write. It returns a
// confirm receipt per signature counted or echoed here; a forwarded
// signature's receipt arrives later through DeliverConfirm. Called from
// transport goroutines with no service or core locks held.
func (x *Exchange) reportFrom(tenant, device string, sigs []wire.Checked, hops int) []*wire.Confirm {
	var fx effects
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return nil
	}
	x.arb.report(&fx, tenant, device, sigs, hops)
	x.commit(&fx)
	return fx.confirms
}

// InstallRemote applies one peer arm-broadcast (arbiter.remoteArm): the
// signature is armed under its owner at this hub's next fleet epoch,
// pushed to every attached device, and persisted slim. A stale owner's
// broadcast is refused with ErrFenced. It returns whether the broadcast
// newly armed the signature here.
func (x *Exchange) InstallRemote(b wire.ArmBroadcast) (bool, error) {
	sig, err := b.Sig.Check()
	if err != nil {
		return false, fmt.Errorf("exchange: remote arm from %s: %w", b.Owner, err)
	}
	var fx effects
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return false, fmt.Errorf("exchange: closed")
	}
	applied, err := x.arb.remoteArm(&fx, tenantKey(b.Tenant, sig.Key), sig.Kind, b)
	x.commit(&fx)
	return applied, err
}

// InstallReplica applies an owner→deputy replicate batch
// (arbiter.replica).
func (x *Exchange) InstallReplica(owner string, recs []wire.OwnedRecord) error {
	return x.applyOwned(owner, recs, x.arb.replica)
}

// ImportOwned applies a handoff batch: provenance slices for keys whose
// ownership moved to this hub (arbiter.importOwned).
func (x *Exchange) ImportOwned(from string, recs []wire.OwnedRecord) error {
	return x.applyOwned(from, recs, x.arb.importOwned)
}

// applyOwned decodes a peer's owned-record batch outside the hub lock
// and runs one arbiter event over it.
func (x *Exchange) applyOwned(from string, recs []wire.OwnedRecord, event func(*effects, string, []decodedRecord)) error {
	ds, err := decodeOwnedRecords(from, recs)
	if err != nil {
		return err
	}
	var fx effects
	x.mu.Lock()
	if x.closed || x.cluster == nil {
		x.mu.Unlock()
		return fmt.Errorf("exchange: closed or not clustered")
	}
	event(&fx, from, ds)
	x.commit(&fx)
	return nil
}

// RebindOwnership re-evaluates every entry against the current live
// ring after a membership change (arbiter.rebind) and returns the
// provenance slices of the keys this hub lost, grouped by new owner,
// for the cluster node to hand off. The handoff ordering is therefore:
// membership applied first (so Owns answers move), local
// promotion/demotion second, handoff enqueue third — a report arriving
// in between is forwarded to the new owner, whose set-union merge makes
// the race harmless.
func (x *Exchange) RebindOwnership() map[string][]wire.OwnedRecord {
	var fx effects
	x.mu.Lock()
	if x.closed || x.cluster == nil {
		x.mu.Unlock()
		return nil
	}
	x.arb.rebind(&fx)
	x.commit(&fx)
	return fx.handoffs
}

// LeaseAcquired is the cluster node's notification that the quorum
// lease was acquired: the hub re-decides the threshold crossings it
// parked while it sat on the minority side of a partition
// (arbiter.leaseAcquired). Losing the lease needs no notification —
// the parked set only grows through MayArm. Called without x.mu held.
func (x *Exchange) LeaseAcquired() {
	var fx effects
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return
	}
	x.arb.leaseAcquired(&fx)
	x.commit(&fx)
}

// clusterBinding reads the bound cluster node (nil outside a
// federation).
func (x *Exchange) clusterBinding() ClusterBinding {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.cluster
}

// DeliverConfirm relays an owner's forward-confirm receipt to the
// reporting device's live session; a device that disconnected meanwhile
// simply misses the receipt (confirms are informational — the arming
// itself travels by broadcast and delta).
func (x *Exchange) DeliverConfirm(tenant, device string, cf wire.Confirm) {
	x.mu.Lock()
	conn, ok := x.conns[sessKey(tenant, device)]
	x.mu.Unlock()
	if ok {
		conn.push(wire.Message{Type: wire.TypeConfirm, Confirm: &cf})
	}
}

// RemoteSeqs returns, per foreign owner hub, the highest arming seq
// this hub has applied — the cluster node's resume points after a
// restart over durable provenance.
func (x *Exchange) RemoteSeqs() map[string]uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.arb.remoteSeqs()
}

// status snapshots the hub as a wire status payload.
func (x *Exchange) status() *wire.Status {
	x.mu.Lock()
	defer x.mu.Unlock()
	selfID := x.arb.selfID
	st := &wire.Status{
		Epoch:     x.arb.epoch,
		Threshold: x.arb.threshold,
		Batching:  wire.Batching{Batches: x.batchBatches.Load(), Signatures: x.batchSigs.Load()},
		Hub:       selfID,
	}
	for id := range x.conns {
		st.Devices = append(st.Devices, id)
	}
	sort.Strings(st.Devices)
	// The default "" tenant is the status payload's top level itself;
	// every other tenant gets a summary row.
	tenants := make(map[string]*wire.TenantStatus)
	tenant := func(t string) *wire.TenantStatus {
		ts, ok := tenants[t]
		if !ok {
			ts = &wire.TenantStatus{Tenant: t, Threshold: x.arb.thresholdFor(t)}
			tenants[t] = ts
		}
		return ts
	}
	for t := range x.arb.tenantThresholds {
		if t != "" {
			tenant(t)
		}
	}
	for _, conn := range x.conns {
		if t := conn.Tenant(); t != "" {
			tenant(t).Devices++
		}
	}
	var owned, remote int
	for _, p := range x.arb.view() {
		st.Provenance = append(st.Provenance, wire.SigStatus{
			Key:           p.Key,
			Kind:          p.Kind.String(),
			FirstSeen:     p.FirstSeen,
			Confirmations: p.Confirmations,
			ConfirmedBy:   p.ConfirmedBy,
			Armed:         p.Armed,
			Owner:         p.Owner,
			Tenant:        p.Tenant,
		})
		if p.Owner != "" && p.Owner != selfID {
			remote++
		} else {
			owned++
		}
		if p.Tenant != "" {
			ts := tenant(p.Tenant)
			ts.Sigs++
			if p.Armed {
				ts.Armed++
			}
		}
	}
	for _, ts := range tenants {
		st.Tenants = append(st.Tenants, *ts)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	if x.cluster != nil {
		snap := x.cluster.MemberSnapshot()
		cs := &wire.ClusterStatus{
			Members:         x.cluster.Members(),
			OwnerSeq:        x.arb.armSeq(),
			Forwards:        x.met.forwards.Value(),
			MembershipEpoch: snap.Epoch,
			Ring:            snap.Members,
			Fenced:          x.met.fenced.Value(),
			Owned:           owned,
			Remote:          remote,
		}
		for id := range x.peers {
			cs.Peers = append(cs.Peers, id)
		}
		sort.Strings(cs.Peers)
		st.Cluster = cs
	}
	return st
}

// Status returns the hub's observability snapshot — the same payload a
// status-req receives over the wire and the daemon serves on /status.
func (x *Exchange) Status() wire.Status { return *x.status() }

// Provenance returns the audit records of every signature the fleet has
// seen, in first-report order.
func (x *Exchange) Provenance() []Provenance {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.arb.view()
}

// ArmedCount returns how many signatures are armed fleet-wide.
func (x *Exchange) ArmedCount() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return int(x.arb.epoch)
}

// Stats snapshots the hub counters.
func (x *Exchange) Stats() ExchangeStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	admitted, delayed, shed := x.admit.counts()
	return ExchangeStats{
		Epoch:             x.arb.epoch,
		Devices:           len(x.conns),
		Reports:           x.met.reports.Value(),
		Confirmations:     x.met.confirms.Value(),
		Echoes:            x.met.echoes.Value(),
		DeltaBatches:      x.batchBatches.Load(),
		DeltaSignatures:   x.batchSigs.Load(),
		PersistErrors:     x.met.persistErrors.Value(),
		Forwards:          x.met.forwards.Value(),
		RemoteInstalls:    x.met.remoteInstalls.Value(),
		Fenced:            x.met.fenced.Value(),
		AdmissionAdmitted: admitted,
		AdmissionDelayed:  delayed,
		AdmissionShed:     shed,
		Parked:            x.arb.parkedCount(),
	}
}

// Close disconnects every session and shuts the hub down, closing the
// provenance store last if it is an io.Closer. Provenance already
// persisted survives for the next Exchange over the same store. Close
// is idempotent.
func (x *Exchange) Close() {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return
	}
	x.closed = true
	conns := make([]*Conn, 0, len(x.conns)+len(x.peers))
	for _, c := range x.conns {
		conns = append(conns, c)
	}
	for _, c := range x.peers {
		conns = append(conns, c)
	}
	x.mu.Unlock()
	// Concurrently: each Close drains its push queue, and a wedged TCP
	// peer holds its drain until the transport write deadline — serial
	// teardown would stack those waits.
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			c.Close()
		}(c)
	}
	wg.Wait()
	// Every detach is persisted by now, and persistMu waits out an append
	// already under way: the store's file handle can go. Its error is
	// dropped: each append reached the kernel at its write, and a failed
	// one was counted then.
	if closer, ok := x.store.(io.Closer); ok {
		x.persistMu.Lock()
		_ = closer.Close()
		x.persistMu.Unlock()
	}
}

// msgQueue is a connection's ordered hub→client push queue: a
// Queue[outMsg] drained by a dedicated goroutine so the hub never
// blocks on a slow session, with delta coalescing — a delta enqueued
// behind a queued one extends its view, so under a publish storm a slow
// subscriber holds one pending push carrying the newest epoch, never a
// backlog of stale ones. Stream sessions (AcceptStream) receive each
// drain's frames in a single writeFrames call. A delivery failure kills
// the queue and fires OnDead: the session is unusable and its Conn must
// be torn down even if the peer never closes its side of the socket.
type msgQueue = Queue[outMsg]
