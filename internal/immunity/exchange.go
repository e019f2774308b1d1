package immunity

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
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
// devices, the set of devices it pushed to) and arms a signature
// fleet-wide only after the confirm-before-arm threshold of *distinct*
// devices has independently reported it: one device's false positive (a
// mis-detected cycle, a corrupted history) cannot degrade avoidance on
// the whole fleet.
//
// A signature the hub has pushed to a device is never counted again as
// that device's confirmation — whether it comes back through a live
// client's echo, a reconnect's epoch-0 re-report, or (with a
// ProvenanceStore) a report replayed after a hub reboot — so the
// threshold counts independent observations only.

// ErrFenced reports that a peer arm-broadcast was refused by the
// membership fencing rule: its fence epoch was stale and its sender no
// longer owns the signature. The link layer treats it as a refusal —
// counted, cursor not advanced — not a session error.
var ErrFenced = errors.New("exchange: stale owner arm-broadcast fenced")

// Provenance is one fleet signature's audit record.
type Provenance struct {
	// Key is the signature's canonical identity (core.Signature.Key).
	Key string
	// Kind is the signature kind.
	Kind core.SigKind
	// FirstSeen is the device that first reported the signature.
	FirstSeen string
	// Confirmations is the number of distinct devices that independently
	// reported it. On a non-owning hub of a cluster this is the count
	// replicated at arming, not a live view.
	Confirmations int
	// ConfirmedBy lists those devices, sorted. Only the owning hub holds
	// the authoritative set; a replicated armed entry's is empty.
	ConfirmedBy []string
	// Armed reports whether the signature has been armed fleet-wide.
	Armed bool
	// Owner is the cluster id of the hub that owns the signature's
	// confirm-before-arm bookkeeping ("" outside a cluster).
	Owner string
	// Tenant scopes the record to one tenant's fleet ("" for the
	// default tenant). Tenants' records never mix: confirmations,
	// arming, and pushes all stay within the record's tenant.
	Tenant string
}

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

// fleetSig is the hub-side state of one signature.
type fleetSig struct {
	sig *core.Signature
	// ws is the canonical wire form, interned when the record is created:
	// the catch-up, broadcast, delta, and provenance paths reuse it
	// instead of re-deriving every call-stack key per message.
	ws          wire.Signature
	seq         int // first-report order, 1-based
	firstSeen   string
	confirmedBy map[string]bool
	// pushedTo records the devices the hub has delivered this signature
	// to. A report from such a device is not an independent observation —
	// it is the push coming back (possibly via the device's persistent
	// store after a reconnect or reboot) — and never counts as a
	// confirmation. This state survives client churn and, with a
	// ProvenanceStore, hub restarts.
	pushedTo map[string]bool
	armed    bool
	armEpoch uint64 // fleet epoch assigned at arming; 0 while unarmed

	// Cluster fields. owner is the cluster id of the hub owning the
	// signature's confirm bookkeeping ("" outside a cluster); ownerSeq is
	// the owner's monotonic arming sequence (0 while unarmed) — for owned
	// entries it orders peer catch-up replay, for replicated entries it is
	// the peer resume point. remoteConfirms caches the confirmation count
	// an arm-broadcast carried, so a non-owner hub can answer echo
	// reports without a round trip to the owner.
	owner          string
	ownerSeq       uint64
	remoteConfirms int

	// tenant is the fleet the signature belongs to ("" = default). The
	// entry's map key is tenantKey(tenant, sig.Key()), so two tenants
	// reporting the byte-identical signature hold two independent
	// entries — confirmations, thresholds, and armings never cross.
	tenant string
}

// tenantKey derives a signature's canonical hub key: the plain
// signature key for the default tenant (so a single-tenant provenance
// log keeps its keys),
// a tenant-prefixed key otherwise. The prefix rides through the
// ownership ring hash, forwarding, replication, and handoff untouched —
// tenancy is a property of the key, so every cluster path is
// tenant-aware for free.
func tenantKey(tenant, key string) string {
	if tenant == "" {
		return key
	}
	return "t=" + tenant + "|" + key
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
// cluster) plugs into a hub. The Exchange calls it to decide ownership
// and to relay device reports for foreign signatures; it never holds
// Exchange.mu across these calls except the pure ones (Owns, OwnerOf,
// Epoch, MemberSnapshot), which must not call back into the Exchange —
// the node answers them from its own leaf-locked membership state.
type ClusterBinding interface {
	// SelfID is this hub's cluster id.
	SelfID() string
	// Members is the full ownership-ring membership, self included.
	Members() []string
	// Owns reports whether this hub owns the signature key. It is called
	// with Exchange.mu held and must not call back into the Exchange.
	Owns(key string) bool
	// OwnerOf names the hub currently owning key under the live ring.
	// Pure: called with Exchange.mu held.
	OwnerOf(key string) string
	// Epoch is the membership epoch — the fencing token stamped on
	// arm-broadcasts and checked on receipt. Pure: called with
	// Exchange.mu held.
	Epoch() uint64
	// MemberSnapshot is the full membership state at its current epoch,
	// pushed to freshly handshaken peers. Pure: called with Exchange.mu
	// held.
	MemberSnapshot() wire.MemberUpdate
	// ForwardReport relays a device's report for foreign signatures
	// toward their owning hubs, preserving the tenant and device
	// attribution; keys holds each signature's canonical (tenant-
	// prefixed) key (parallel to sigs) so the node can group by owner
	// without re-decoding, and hops the number of forwarding legs
	// already taken. It is called without Exchange.mu held and must not
	// block (the cluster queues per-peer and redials in the background).
	ForwardReport(tenant, device string, sigs []wire.Signature, keys []string, hops int)
	// Replicate copies one owned, unarmed confirmation set to the key's
	// deputy so arming survives an owner crash. Called without
	// Exchange.mu held; must not block.
	Replicate(key string, rec wire.OwnedRecord)
	// ApplyMemberUpdate merges a peer's membership snapshot (adopt if
	// newer, deterministic merge at equal epochs). Called without
	// Exchange.mu held — it re-binds ownership, which locks the hub.
	ApplyMemberUpdate(u wire.MemberUpdate)
	// PeerSeen records a completed inbound peer handshake: an unknown
	// hub with an address is admitted into the membership, a down-marked
	// hub is revived. Called without Exchange.mu held.
	PeerSeen(hub, addr string)
	// MayArm reports whether this hub currently holds the right to take
	// a fresh arming decision — true always without a quorum lease,
	// else only while the lease is held. The Exchange consults it at
	// every threshold crossing; when false the decision parks (the hub
	// degrades to read-only forwarding and confirmation counting) until
	// LeaseChanged(true) replays the parked set. Pure and lock-cheap:
	// called with Exchange.mu held on the report hot path.
	MayArm() bool
	// HandleProbe routes one probe or lease frame (wire.TypePing,
	// TypePingAck, TypeLease, TypeLeaseAck) that arrived on a registered
	// peer session. Called without Exchange.mu held — the node may send
	// replies synchronously from inside it.
	HandleProbe(m wire.Message)
}

// Exchange is the fleet hub. It holds no references to device Services —
// devices exist for it only as wire sessions attached with Accept — so
// any transport that moves wire messages can carry a fleet.
type Exchange struct {
	threshold int
	// tenantThresholds overrides the confirm-before-arm threshold per
	// tenant (WithTenantThreshold); tenants not listed use threshold.
	tenantThresholds map[string]int
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

	mu                        sync.Mutex
	entries                   map[string]*fleetSig
	order                     []string // keys in first-report order
	conns                     map[string]*Conn
	epoch                     uint64 // fleet arm counter (the delta epoch for pushes)
	closed                    bool
	reports, confirms, echoes uint64

	// Cluster state (nil/zero outside a federation). cluster and selfID
	// are set once by BindCluster before the hub serves traffic; peers
	// maps cluster ids of hubs with a live inbound peer session to their
	// conns; ownerSeq numbers this hub's own armings for peer catch-up.
	cluster        ClusterBinding
	selfID         string
	peers          map[string]*Conn
	ownerSeq       uint64
	forwards       uint64
	remoteInstalls uint64
	fenced         uint64
	// parked holds the keys whose fresh arming decision was refused by
	// MayArm (quorum lease lost on a minority partition side): their
	// confirmation sets keep growing, but the threshold crossing is
	// deferred until LeaseChanged(true) re-scans the set. Keys leave the
	// set by arming (locally on unpark, or via a peer's arm-broadcast).
	parked map[string]bool

	// persistMu serializes provenance-store appends in mutation order;
	// acquired while still holding mu, released after the write (same
	// handoff as Service.persistMu). Lock order: mu > persistMu.
	persistMu sync.Mutex

	batchBatches  atomic.Uint64
	batchSigs     atomic.Uint64
	persistErrors atomic.Uint64

	// Observability + admission (tentpole of the metrics PR). reg is the
	// hub's metric registry (always non-nil after NewExchange; shareable
	// across hubs via WithMetricsRegistry), met its pre-created
	// instruments, admit the optional report-ingest permit pool (nil =
	// admission disabled; see WithAdmission). The registry locks are
	// leaves — see package metrics — so met's atomics are touched under
	// x.mu and queue locks freely.
	reg       *metrics.Registry
	met       hubMetrics
	admit     *metrics.Pool
	admitPool *metrics.Pool
	admitCap  int
	admitWait time.Duration
}

// ExchangeOption configures an Exchange.
type ExchangeOption func(*Exchange)

// WithProvenanceStore attaches durable provenance: every confirmation,
// push, and arming is upserted to the store, and a new Exchange over the
// same store resumes with the full fleet state — a rebooted hub neither
// arms below threshold nor loses confirmations.
func WithProvenanceStore(store ProvenanceStore) ExchangeOption {
	return func(x *Exchange) { x.store = store }
}

// WithMetricsRegistry makes the hub register its instruments on reg
// instead of a private registry — the daemon shares one registry
// between the hub, the cluster node, and the /metrics endpoint, and
// several in-process hubs sharing one registry aggregate into the same
// series. Without this option the hub still meters itself on a private
// registry, reachable via Metrics().
func WithMetricsRegistry(reg *metrics.Registry) ExchangeOption {
	return func(x *Exchange) { x.reg = reg }
}

// WithAdmission puts a bounded permit pool in front of report ingest
// (device reports and peer forward-reports): at most capacity report
// batches are processed concurrently, an over-capacity batch waits up
// to maxWait — blocking its session's transport read goroutine, which
// the device experiences as a slow ack and TCP turns into backpressure
// — and a batch still waiting at maxWait is shed (dropped without
// killing the session; the client's full-history re-report on its next
// reconnect redelivers it, so shedding trades latency for bounded hub
// memory, never a permanently lost report). Keep maxWait well below
// the transport write timeout (30s for TCP) or slow-acked clients
// start redialing. Verdicts are counted on the registry
// (immunity_hub_admission_*) and in ExchangeStats. capacity <= 0
// disables admission (the default).
func WithAdmission(capacity int, maxWait time.Duration) ExchangeOption {
	return func(x *Exchange) {
		x.admitCap = capacity
		x.admitWait = maxWait
	}
}

// WithAdmissionPool puts a caller-built permit pool in front of report
// ingest instead of a fixed-capacity one — the seam the AIMD adaptive
// admission controller plugs into (pass an AdaptivePool's embedded
// Pool; its capacity then tracks the SLO evaluator's verdicts live).
// The pool must be registered on the same registry the hub uses, or
// its verdicts won't appear on /metrics. Takes precedence over
// WithAdmission; nil means no injection.
func WithAdmissionPool(p *metrics.Pool) ExchangeOption {
	return func(x *Exchange) { x.admitPool = p }
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
		if threshold < 1 {
			threshold = 1
		}
		if x.tenantThresholds == nil {
			x.tenantThresholds = make(map[string]int)
		}
		x.tenantThresholds[tenant] = threshold
	}
}

// thresholdFor is the confirm-before-arm threshold for one tenant.
func (x *Exchange) thresholdFor(tenant string) int {
	if t, ok := x.tenantThresholds[tenant]; ok {
		return t
	}
	return x.threshold
}

// NewExchange creates a hub that arms a signature fleet-wide once
// confirmThreshold distinct devices have reported it (values below 1 are
// treated as 1: arm on first report). With WithProvenanceStore, prior
// fleet state is reloaded before the hub accepts its first session.
func NewExchange(confirmThreshold int, opts ...ExchangeOption) (*Exchange, error) {
	if confirmThreshold < 1 {
		confirmThreshold = 1
	}
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("exchange: generation nonce: %w", err)
	}
	x := &Exchange{
		threshold: confirmThreshold,
		entries:   make(map[string]*fleetSig),
		conns:     make(map[string]*Conn),
		peers:     make(map[string]*Conn),
		parked:    make(map[string]bool),
		gen:       hex.EncodeToString(nonce[:]),
	}
	for _, opt := range opts {
		opt(x)
	}
	if x.reg == nil {
		x.reg = metrics.NewRegistry()
	}
	x.met = newHubMetrics(x.reg)
	if x.admitPool != nil {
		x.admit = x.admitPool
	} else {
		x.admit = metrics.NewPool(x.reg, "immunity_hub_admission", x.admitCap, x.admitWait)
	}
	if x.store != nil {
		recs, err := x.store.Load()
		if err != nil {
			return nil, fmt.Errorf("exchange: load provenance: %w", err)
		}
		for _, rec := range recs {
			sig, err := rec.Sig.ToCore()
			if err != nil {
				return nil, fmt.Errorf("exchange: provenance record %q: %w", rec.Key, err)
			}
			e := &fleetSig{
				sig:            sig,
				ws:             rec.Sig,
				seq:            rec.Seq,
				firstSeen:      rec.FirstSeen,
				confirmedBy:    make(map[string]bool, len(rec.ConfirmedBy)),
				pushedTo:       make(map[string]bool, len(rec.PushedTo)),
				armed:          rec.Armed,
				armEpoch:       rec.ArmEpoch,
				owner:          rec.Owner,
				ownerSeq:       rec.OwnerSeq,
				remoteConfirms: rec.RemoteConfirms,
				tenant:         rec.Tenant,
			}
			for _, d := range rec.ConfirmedBy {
				e.confirmedBy[d] = true
			}
			for _, d := range rec.PushedTo {
				e.pushedTo[d] = true
			}
			x.entries[rec.Key] = e
			x.order = append(x.order, rec.Key)
			if rec.ArmEpoch > x.epoch {
				x.epoch = rec.ArmEpoch
			}
		}
	}
	return x, nil
}

// Threshold returns the confirm-before-arm threshold.
func (x *Exchange) Threshold() int { return x.threshold }

// Metrics returns the hub's metric registry — the one passed via
// WithMetricsRegistry, or the hub's private registry otherwise. The
// daemon renders it on /metrics.
func (x *Exchange) Metrics() *metrics.Registry { return x.reg }

// BindCluster federates the hub: b decides per-signature ownership and
// carries forwarded reports; the hub handles inbound peer sessions
// (peer-hello, forward-report), broadcasts its own armings to them, and
// installs peers' broadcasts via InstallRemote. Must be called before
// the hub serves any traffic. Reloaded provenance is reconciled with
// the ring: entries this hub owns get their owner stamped and — for
// armed entries a pre-cluster hub never sequenced — an arming seq in
// armEpoch order, so a freshly clustered or restarted owner replays its
// full owned armed set to peers.
func (x *Exchange) BindCluster(b ClusterBinding) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.cluster = b
	x.selfID = b.SelfID()
	for _, key := range x.order {
		if e := x.entries[key]; e.ownerSeq > x.ownerSeq && e.owner == x.selfID {
			x.ownerSeq = e.ownerSeq
		}
	}
	type unseq struct {
		key string
		e   *fleetSig
	}
	var missing []unseq
	for _, key := range x.order {
		e := x.entries[key]
		if b.Owns(key) {
			e.owner = x.selfID
			if e.armed && e.ownerSeq == 0 {
				missing = append(missing, unseq{key, e})
			}
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].e.armEpoch < missing[j].e.armEpoch })
	for _, u := range missing {
		x.ownerSeq++
		u.e.ownerSeq = x.ownerSeq
	}
}

// recordLocked snapshots e as a provenance record. Caller holds x.mu.
func (x *Exchange) recordLocked(key string, e *fleetSig) ProvenanceRecord {
	rec := ProvenanceRecord{
		Seq:            e.seq,
		Key:            key,
		Sig:            e.ws,
		FirstSeen:      e.firstSeen,
		ConfirmedBy:    sortedKeys(e.confirmedBy),
		PushedTo:       sortedKeys(e.pushedTo),
		Armed:          e.armed,
		ArmEpoch:       e.armEpoch,
		Owner:          e.owner,
		OwnerSeq:       e.ownerSeq,
		RemoteConfirms: e.remoteConfirms,
		Tenant:         e.tenant,
	}
	if e.owner != "" && e.owner != x.selfID && e.armed {
		// Replicated armed entry: persist only the slim record — the
		// signature, its owner, and the arming — never the confirmation
		// bookkeeping, which is the owner's alone. pushedTo stays: it is
		// this hub's own delivery state for its attached devices. An
		// *unarmed* foreign entry keeps its set: that is the deputy's
		// shadow copy, and it must survive a deputy restart to keep the
		// failover promise.
		rec.ConfirmedBy = nil
		rec.FirstSeen = ""
	}
	return rec
}

// persistHandoffLocked must be called with x.mu held and the dirty
// records already snapshotted. It takes persistMu (so writes land in
// mutation order), and returns the function the caller runs after
// releasing x.mu to perform the writes.
func (x *Exchange) persistHandoffLocked(recs []ProvenanceRecord) func() {
	if x.store == nil || len(recs) == 0 {
		return func() {}
	}
	x.persistMu.Lock()
	store := x.store
	return func() {
		defer x.persistMu.Unlock()
		// One write per mutation when the store can batch (FileProvenance
		// does), instead of an open/write/close cycle per record.
		if ba, ok := store.(interface {
			AppendBatch([]ProvenanceRecord) error
		}); ok {
			if err := ba.AppendBatch(recs); err != nil {
				x.persistErrors.Add(1)
				x.met.persistErrors.Inc()
			}
			return
		}
		for _, rec := range recs {
			if err := store.Append(rec); err != nil {
				x.persistErrors.Add(1)
				x.met.persistErrors.Inc()
			}
		}
	}
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
		Merge: mergeOutMsgs,
		OnDeliver: func(o outMsg) {
			if m := o.message(); m.Type == wire.TypeDelta {
				x.batchBatches.Add(1)
				x.batchSigs.Add(uint64(len(m.Delta.Sigs)))
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

// outMsg is one queued hub→client delivery: either a per-session
// message (acks, confirms, catch-up deltas, status) or a handle on an
// encode-once broadcast frame shared with every other session.
type outMsg struct {
	m      wire.Message
	shared *wire.Shared
}

// message returns the delivery's decoded form, version unstamped.
func (o outMsg) message() wire.Message {
	if o.shared != nil {
		return o.shared.Msg()
	}
	return o.m
}

// mergeOutMsgs coalesces two adjacent delta deliveries, preserving
// ordering relative to non-delta messages; the merged delta carries the
// newest epoch of the pair, so no stale epoch is ever sent. The merge
// always builds a fresh message — a Shared handed off to other queues
// is immutable and must never be appended into.
func mergeOutMsgs(prev, next outMsg) (outMsg, bool) {
	pm, nm := prev.message(), next.message()
	if pm.Type != wire.TypeDelta || nm.Type != wire.TypeDelta {
		return prev, false
	}
	merged := &wire.Delta{Epoch: pm.Delta.Epoch,
		Sigs: append(append(make([]wire.Signature, 0, len(pm.Delta.Sigs)+len(nm.Delta.Sigs)),
			pm.Delta.Sigs...), nm.Delta.Sigs...)}
	if nm.Delta.Epoch > merged.Epoch {
		merged.Epoch = nm.Delta.Epoch
	}
	out := pm
	out.Delta = merged
	return outMsg{m: out}, true
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

// PeerHub returns the cluster id bound by peer-hello, or "".
func (c *Conn) PeerHub() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerHub
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
// messages are encoded into the Conn's reusable scratch — and hands all
// of them to the transport in a single call. It runs only on the
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
		scratch, err = wire.AppendFrame(scratch, stamp(o.m))
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
func (c *Conn) push(m wire.Message) { c.out.Enqueue(outMsg{m: m}) }

// pushShared enqueues an encode-once broadcast frame; every session
// shares its encoded bytes.
func (c *Conn) pushShared(s *wire.Shared) { c.out.Enqueue(outMsg{shared: s}) }

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
	case wire.TypeHello:
		return c.handleHello(m)
	case wire.TypePeerHello:
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
		c.hub.applyMemberUpdate(*m.Member)
		return nil
	case wire.TypePing, wire.TypePingAck, wire.TypeLease, wire.TypeLeaseAck:
		if peerHub == "" {
			return c.refuse("%s before peer-hello", m.Type)
		}
		// Routed outside Exchange.mu: the node answers probes and grants
		// leases from its own state and may send replies synchronously.
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
	epoch := h.Epoch
	if h.Epochs != nil {
		epoch = h.Epochs[x.gen]
	}
	c.mu.Lock()
	already, alreadyPeer := c.device, c.peerHub
	c.mu.Unlock()
	if already != "" {
		// A second hello on one session would re-register the Conn under
		// a new id while x.conns still mapped the old id to it, so pushes
		// would be recorded against a device that never received them.
		return c.refuse("duplicate hello (session already bound to device %s)", already)
	}
	if alreadyPeer != "" {
		// A peer session moonlighting as a device would receive both
		// tiers' pushes and pollute the pushedTo bookkeeping.
		return c.refuse("hello on a session already bound to peer hub %s", alreadyPeer)
	}

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

	c.push(wire.Message{Type: wire.TypeAck, Ack: &wire.Ack{OK: true, Epoch: x.epoch, Gen: x.gen, V: wire.Version}})

	// Catch-up: every armed signature the client's epoch predates, as a
	// single batched delta, oldest arming first.
	var dirty []ProvenanceRecord
	var sigs []wire.Signature
	type armedEntry struct {
		key string
		e   *fleetSig
	}
	var catchup []armedEntry
	for _, key := range x.order {
		// Catch-up is tenant-scoped: a session only ever receives its own
		// tenant's armed signatures. The fleet epoch counter is global, so
		// a tenant's client may see epoch gaps — harmless, resume is
		// strictly "armEpoch greater than mine".
		if e := x.entries[key]; e.armed && e.tenant == tenant && e.armEpoch > epoch {
			catchup = append(catchup, armedEntry{key, e})
		}
	}
	sort.Slice(catchup, func(i, j int) bool { return catchup[i].e.armEpoch < catchup[j].e.armEpoch })
	for _, ae := range catchup {
		sigs = append(sigs, ae.e.ws)
		if !ae.e.pushedTo[h.Device] {
			ae.e.pushedTo[h.Device] = true
			dirty = append(dirty, x.recordLocked(ae.key, ae.e))
		}
	}
	if len(sigs) > 0 {
		c.push(wire.Message{Type: wire.TypeDelta, Delta: &wire.Delta{Epoch: x.epoch, Sigs: sigs}})
	}
	persist := x.persistHandoffLocked(dirty)
	x.mu.Unlock()
	persist()

	if stale != nil {
		// A final failure ack tells the stale session's client to stop
		// for good instead of redialing into a supersession ping-pong;
		// Close drains the queue, so the ack goes out first. Close runs
		// on its own goroutine: it waits out the stale drain, which on a
		// wedged TCP peer only unblocks at the transport write deadline,
		// and the new session's handshake must not wait for that.
		stale.push(wire.Message{Type: wire.TypeAck,
			Ack: &wire.Ack{OK: false, Error: fmt.Sprintf("superseded by a newer session for device %s", h.Device)}})
		go stale.Close()
	}
	return nil
}

// handlePeerHello registers an inbound hub-to-hub session: version
// check, supersede of any
// stale session from the same hub, an ok ack carrying this hub's
// owned-arming seq and gen, then a replay of every owned armed
// signature the peer's seq predates — one arm-broadcast each, oldest
// first, the hub-to-hub twin of the device catch-up delta.
func (c *Conn) handlePeerHello(m wire.Message) error {
	h := m.PeerHello
	if err := checkVersion(m.V, h.MinV, h.MaxV); err != nil {
		return c.refuse("%v", err)
	}
	if h.Hub == "" {
		return c.refuse("empty peer hub id")
	}
	c.mu.Lock()
	boundDevice, boundPeer, tid := c.device, c.peerHub, c.transportIdentity
	c.mu.Unlock()
	if c.hub.peerAuth && tid != h.Hub {
		// The claimed hub id must be backed by the session's mutual-TLS
		// certificate identity. A wrong-CA peer has no identity at all
		// (Go withholds — or the handshake rejects — an unverifiable
		// client cert), so it lands here with tid "" and is refused.
		c.hub.met.authFailures.With("peer-identity").Inc()
		return c.refuse("peer hub %q does not match transport identity %q", h.Hub, tid)
	}
	if boundDevice != "" || boundPeer != "" {
		return c.refuse("duplicate hello (session already bound)")
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
	if h.Hub == x.selfID {
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
		Ack: &wire.Ack{OK: true, Epoch: x.ownerSeq, Gen: x.gen, V: wire.Version}})

	// Replay missed owned armings in seq order.
	type ownedEntry struct {
		key string
		e   *fleetSig
	}
	var replay []ownedEntry
	for _, key := range x.order {
		if e := x.entries[key]; e.armed && e.owner == x.selfID && e.ownerSeq > h.Seq {
			replay = append(replay, ownedEntry{key, e})
		}
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].e.ownerSeq < replay[j].e.ownerSeq })
	fence := x.cluster.Epoch()
	for _, oe := range replay {
		c.push(wire.Message{Type: wire.TypeArmBroadcast,
			Arm: &wire.ArmBroadcast{Owner: x.selfID, Seq: oe.e.ownerSeq,
				Confirmations: len(oe.e.confirmedBy), Sig: oe.e.ws, Fence: fence,
				Tenant: oe.e.tenant}})
	}
	// Seed the dialer's membership view: the snapshot predates any
	// admission this handshake itself triggers (PeerSeen below), whose
	// higher-epoch update follows over the regular links.
	snap := x.cluster.MemberSnapshot()
	c.push(wire.Message{Type: wire.TypeMemberUpdate, Member: &snap})
	cluster := x.cluster
	x.mu.Unlock()

	if stale != nil {
		stale.push(wire.Message{Type: wire.TypeAck,
			Ack: &wire.Ack{OK: false, Error: fmt.Sprintf("superseded by a newer session for hub %s", h.Hub)}})
		go stale.Close()
	}
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
	sigs := make([]*core.Signature, 0, len(f.Sigs))
	for _, ws := range f.Sigs {
		sig, err := ws.ToCore()
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
	release, ok := x.admit.Acquire()
	if !ok {
		return nil
	}
	defer release()
	admitted := time.Now()
	err := fn()
	end := time.Now()
	// Two latency series: report_seconds is what a device experiences
	// (wait included — the signal the latency SLO and the AIMD
	// controller react to), handle_seconds is what the hub itself costs
	// (wait excluded — separates "hub is slow" from "hub is queueing").
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
	sigs := make([]*core.Signature, 0, len(r.Sigs))
	for _, ws := range r.Sigs {
		sig, err := ws.ToCore()
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

// Close detaches the session: the device slot is released (unless a
// newer session superseded it), the push queue drains, and the transport
// teardown hook runs. Close is idempotent.
func (c *Conn) Close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		device, tenant, peerHub := c.device, c.tenant, c.peerHub
		c.mu.Unlock()
		x := c.hub
		x.mu.Lock()
		if sk := sessKey(tenant, device); device != "" && x.conns[sk] == c {
			delete(x.conns, sk)
			x.met.deviceSessions.Add(-1)
		}
		if peerHub != "" && x.peers[peerHub] == c {
			delete(x.peers, peerHub)
			x.met.peerSessions.Add(-1)
		}
		x.mu.Unlock()
		c.out.Close()
		if c.closeSession != nil {
			c.closeSession()
		}
	})
}

// report records a single confirmation; tests drive the hub's dedup
// guards through it directly.
func (x *Exchange) report(device string, sig *core.Signature) (confirmations int, armed bool) {
	confirms := x.reportFrom("", device, []*core.Signature{sig}, 0)
	if len(confirms) == 0 {
		return 0, false
	}
	return confirms[0].Confirmations, confirms[0].Armed
}

// reportFrom records the batch as confirmations by device and arms
// signatures whose threshold is reached, under one hub lock and one
// provenance write. It returns a confirm receipt per signature and is
// called from transport goroutines with no service or core locks held.
//
// In a cluster the hub arbitrates only the signatures it owns. A
// foreign signature's report is relayed to its owner (the receipt
// arrives later as a forward-confirm and reaches the device through
// DeliverConfirm) — unless this hub already delivered the signature to
// that device, in which case the report is the push coming back and is
// answered locally as an echo. hops counts forwarding legs already
// taken: ownership can move while a forward sits in a retry outbox, so
// a forwarded report for a signature this hub no longer owns is
// re-forwarded to the current owner while hops < maxForwardHops, then
// counted locally — churn degrades to one extra hop, never a
// forwarding loop. Every fresh confirmation of an owned, still-unarmed
// signature is replicated to the key's deputy so arming survives an
// owner crash.
func (x *Exchange) reportFrom(tenant, device string, sigs []*core.Signature, hops int) []*wire.Confirm {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return nil
	}
	threshold := x.thresholdFor(tenant)
	confirms := make([]*wire.Confirm, 0, len(sigs))
	var dirty []ProvenanceRecord
	var fwd []wire.Signature
	var fwdKeys []string
	var broadcasts []*wire.ArmBroadcast
	var replKeys []string
	var replRecs []wire.OwnedRecord
	for _, sig := range sigs {
		// The hub key carries the tenant prefix; the device-facing
		// confirm carries the plain signature key the device reported —
		// tenancy never leaks into the device protocol.
		plainKey := sig.Key()
		key := tenantKey(tenant, plainKey)
		x.reports++
		x.met.reports.Inc()
		if x.cluster != nil && hops < maxForwardHops && !x.cluster.Owns(key) {
			if e, ok := x.entries[key]; ok && (e.pushedTo[device] || e.confirmedBy[device]) {
				// The device only holds the signature because this hub (or
				// a previous forward) already accounted for it: echo.
				x.echoes++
				x.met.echoes.Inc()
				confirms = append(confirms, &wire.Confirm{Key: plainKey,
					Confirmations: max(len(e.confirmedBy), e.remoteConfirms), Armed: e.armed})
				continue
			}
			x.forwards++
			x.met.forwards.Inc()
			fwd = append(fwd, wire.FromCore(sig))
			fwdKeys = append(fwdKeys, key)
			continue
		}
		e, ok := x.entries[key]
		if !ok {
			e = &fleetSig{
				sig:         &core.Signature{Kind: sig.Kind, Pairs: core.ClonePairs(sig.Pairs)},
				ws:          wire.FromCore(sig),
				seq:         len(x.order) + 1,
				firstSeen:   device,
				confirmedBy: make(map[string]bool),
				pushedTo:    make(map[string]bool),
				owner:       x.selfID,
				tenant:      tenant,
			}
			x.entries[key] = e
			x.order = append(x.order, key)
		}
		switch {
		case e.confirmedBy[device] || e.pushedTo[device]:
			// Already counted, or the device only has the signature
			// because the hub pushed it there: not an independent
			// observation.
			x.echoes++
			x.met.echoes.Inc()
		default:
			e.confirmedBy[device] = true
			x.confirms++
			x.met.confirms.Inc()
			if !e.armed && len(e.confirmedBy) >= threshold && x.mayArmLocked() {
				x.armLocked(e)
				if x.cluster != nil && e.owner == x.selfID {
					broadcasts = append(broadcasts, &wire.ArmBroadcast{Owner: x.selfID, Seq: e.ownerSeq,
						Confirmations: len(e.confirmedBy), Sig: e.ws, Fence: x.cluster.Epoch(),
						Tenant: e.tenant})
				}
			} else if !e.armed && len(e.confirmedBy) >= threshold {
				// At threshold without the quorum lease (minority partition
				// side): park the decision — the set keeps growing and
				// replicating, and LeaseChanged(true) arms it later.
				x.parkLocked(key)
				if x.cluster != nil && e.owner == x.selfID {
					replKeys = append(replKeys, key)
					replRecs = append(replRecs, ownedRecordLocked(e))
				}
			} else if x.cluster != nil && !e.armed && e.owner == x.selfID {
				// Pending owned confirmation: copy the full set to the
				// deputy. Each replicate carries the whole confirmedBy
				// union, so a lost or reordered copy is repaired by the
				// next one.
				replKeys = append(replKeys, key)
				replRecs = append(replRecs, ownedRecordLocked(e))
			}
			dirty = append(dirty, x.recordLocked(key, e))
		}
		confirms = append(confirms, &wire.Confirm{Key: plainKey, Confirmations: len(e.confirmedBy), Armed: e.armed})
	}
	// Owned armings fan out to every live inbound peer session as one
	// encode-once frame each; peers that are down catch up from their
	// next peer-hello's seq.
	for _, b := range broadcasts {
		sh := wire.NewShared(wire.Message{Type: wire.TypeArmBroadcast, Arm: b})
		for _, pc := range x.peers {
			pc.pushShared(sh)
		}
	}
	cluster := x.cluster
	persist := x.persistHandoffLocked(dirty)
	x.mu.Unlock()
	persist()
	if len(fwd) > 0 {
		cluster.ForwardReport(tenant, device, fwd, fwdKeys, hops+1)
	}
	for i, key := range replKeys {
		cluster.Replicate(key, replRecs[i])
	}
	return confirms
}

// maxForwardHops bounds forwarding legs for one report: the device's
// own hub plus one re-forward after an ownership move. A report still
// not home after that is counted where it stands — with set-union
// confirmations and idempotent arming that costs at worst a slightly
// split count, never a loop.
const maxForwardHops = 2

// ownedRecordLocked snapshots an owned entry's provenance slice in its
// wire form (handoff / deputy replication). Caller holds x.mu.
func ownedRecordLocked(e *fleetSig) wire.OwnedRecord {
	return wire.OwnedRecord{
		Sig:         e.ws,
		FirstSeen:   e.firstSeen,
		ConfirmedBy: sortedKeys(e.confirmedBy),
		Armed:       e.armed,
		OwnerSeq:    e.ownerSeq,
		Tenant:      e.tenant,
	}
}

// pushArmedLocked marks e armed, assigns the next local fleet epoch,
// and pushes the delta to every attached device as one encode-once
// frame — the arming's device-facing half, shared by local armings,
// remote installs, and handoff imports. Caller holds x.mu. The fleet
// epoch therefore counts arm events exactly once per signature per
// hub: epoch == armed-signature count is the no-double-arm invariant
// the chaos tests assert.
func (x *Exchange) pushArmedLocked(e *fleetSig) {
	e.armed = true
	x.epoch++
	e.armEpoch = x.epoch
	x.met.armed.Inc()
	if len(x.parked) > 0 {
		// Arming from any path (remote install, handoff, unpark) settles
		// a parked decision for the same key.
		x.unparkLocked(tenantKey(e.tenant, e.sig.Key()))
	}
	d := wire.NewShared(wire.Message{Type: wire.TypeDelta,
		Delta: &wire.Delta{Epoch: x.epoch, Sigs: []wire.Signature{e.ws}}})
	for _, conn := range x.conns {
		// Deltas go only to the signature's own tenant: arming in tenant
		// A must be invisible to tenant B's devices. Lock order mu >
		// Conn.mu holds throughout the hub (handleHello binds the device
		// under both), so reading the session binding here is safe.
		conn.mu.Lock()
		dev, ten := conn.device, conn.tenant
		conn.mu.Unlock()
		if ten != e.tenant {
			continue
		}
		conn.pushShared(d)
		e.pushedTo[dev] = true
	}
}

// armLocked arms an owned entry: the device-facing push plus the owner
// arming seq (cluster mode). Caller holds x.mu and appends the dirty
// record.
func (x *Exchange) armLocked(e *fleetSig) {
	x.pushArmedLocked(e)
	if x.cluster != nil {
		x.ownerSeq++
		e.ownerSeq = x.ownerSeq
	}
}

// InstallRemote applies one peer arm-broadcast: the signature is
// recorded as armed under its owner, assigned this hub's next local
// fleet epoch, pushed to every attached device, and persisted as a
// replicated (slim) provenance record. Re-delivered broadcasts — a peer
// replay after an ownership-ring hiccup, an at-least-once forward
// outbox — only refresh the replicated metadata. It returns whether the
// broadcast newly armed the signature here.
//
// The fencing rule: a broadcast whose Fence (the sender's membership
// epoch) is older than this hub's membership epoch is refused with
// ErrFenced — unless the sender still owns the signature under this
// hub's ring, in which case the sender is merely behind on membership
// gossip, not deposed. A returning stale owner therefore cannot arm a
// signature the cluster re-owned while it was dead, and — because an
// owner change resets the entry into the new owner's seq namespace
// instead of taking a cross-owner max — it cannot regress or inflate
// the owner seq either.
func (x *Exchange) InstallRemote(b wire.ArmBroadcast) (bool, error) {
	sig, err := b.Sig.ToCore()
	if err != nil {
		return false, fmt.Errorf("exchange: remote arm from %s: %w", b.Owner, err)
	}
	key := tenantKey(b.Tenant, sig.Key())
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return false, fmt.Errorf("exchange: closed")
	}
	if x.cluster != nil && b.Fence < x.cluster.Epoch() && x.cluster.OwnerOf(key) != b.Owner {
		x.fenced++
		x.met.fenced.Inc()
		x.mu.Unlock()
		return false, ErrFenced
	}
	e, ok := x.entries[key]
	if !ok {
		e = &fleetSig{
			sig:         &core.Signature{Kind: sig.Kind, Pairs: core.ClonePairs(sig.Pairs)},
			ws:          b.Sig,
			seq:         len(x.order) + 1,
			confirmedBy: make(map[string]bool),
			pushedTo:    make(map[string]bool),
			tenant:      b.Tenant,
		}
		x.entries[key] = e
		x.order = append(x.order, key)
	}
	if e.owner != b.Owner {
		// Ownership moved: enter the new owner's seq namespace at its
		// seq, never max across namespaces.
		e.owner = b.Owner
		e.ownerSeq = b.Seq
	} else if b.Seq > e.ownerSeq {
		e.ownerSeq = b.Seq
	}
	if b.Confirmations > e.remoteConfirms {
		e.remoteConfirms = b.Confirmations
	}
	applied := !e.armed
	if applied {
		x.pushArmedLocked(e)
		x.remoteInstalls++
		x.met.remoteInstalls.Inc()
	}
	persist := x.persistHandoffLocked([]ProvenanceRecord{x.recordLocked(key, e)})
	x.mu.Unlock()
	persist()
	return applied, nil
}

// decodedRecord is one owned provenance record with its signature
// decoded and keyed — replica and handoff batches decode before taking
// the hub lock.
type decodedRecord struct {
	key string
	sig *core.Signature
	rec wire.OwnedRecord
}

func decodeOwnedRecords(from string, recs []wire.OwnedRecord) ([]decodedRecord, error) {
	out := make([]decodedRecord, 0, len(recs))
	for _, rec := range recs {
		sig, err := rec.Sig.ToCore()
		if err != nil {
			return nil, fmt.Errorf("exchange: owned record from %s: %w", from, err)
		}
		out = append(out, decodedRecord{tenantKey(rec.Tenant, sig.Key()), sig, rec})
	}
	return out, nil
}

// ensureEntryLocked returns the entry for key, creating an empty one
// (no owner, no firstSeen) if the hub has never seen the signature.
// Caller holds x.mu.
func (x *Exchange) ensureEntryLocked(key, tenant string, sig *core.Signature, ws wire.Signature) *fleetSig {
	e, ok := x.entries[key]
	if !ok {
		e = &fleetSig{
			sig:         &core.Signature{Kind: sig.Kind, Pairs: core.ClonePairs(sig.Pairs)},
			ws:          ws,
			seq:         len(x.order) + 1,
			confirmedBy: make(map[string]bool),
			pushedTo:    make(map[string]bool),
			tenant:      tenant,
		}
		x.entries[key] = e
		x.order = append(x.order, key)
	}
	return e
}

// broadcastArmsLocked fans freshly built arm-broadcasts out to every
// live inbound peer session, one encode-once frame each. Caller holds
// x.mu.
func (x *Exchange) broadcastArmsLocked(broadcasts []*wire.ArmBroadcast) {
	for _, b := range broadcasts {
		sh := wire.NewShared(wire.Message{Type: wire.TypeArmBroadcast, Arm: b})
		for _, pc := range x.peers {
			pc.pushShared(sh)
		}
	}
}

// InstallReplica applies an owner→deputy replicate batch: each record's
// pending confirmation set is merged (set union — at-least-once
// delivery and reordering are harmless) into the local shadow entry
// under the sender's ownership. A replica normally just sits until the
// owner either arms the signature (broadcast) or dies (the membership
// change re-owns the key and RebindOwnership promotes the shadow); a
// replica arriving after this hub already took ownership counts
// immediately and can arm at threshold.
func (x *Exchange) InstallReplica(owner string, recs []wire.OwnedRecord) error {
	ds, err := decodeOwnedRecords(owner, recs)
	if err != nil {
		return err
	}
	x.mu.Lock()
	if x.closed || x.cluster == nil {
		x.mu.Unlock()
		return fmt.Errorf("exchange: closed or not clustered")
	}
	var dirty []ProvenanceRecord
	var broadcasts []*wire.ArmBroadcast
	for _, d := range ds {
		e := x.ensureEntryLocked(d.key, d.rec.Tenant, d.sig, d.rec.Sig)
		if e.firstSeen == "" {
			e.firstSeen = d.rec.FirstSeen
		}
		for _, dev := range d.rec.ConfirmedBy {
			e.confirmedBy[dev] = true
		}
		if e.owner != x.selfID {
			e.owner = owner
		}
		x.met.replicaRecords.Inc()
		if e.owner == x.selfID && !e.armed && len(e.confirmedBy) >= x.thresholdFor(e.tenant) {
			if x.mayArmLocked() {
				x.armLocked(e)
				broadcasts = append(broadcasts, &wire.ArmBroadcast{Owner: x.selfID, Seq: e.ownerSeq,
					Confirmations: len(e.confirmedBy), Sig: e.ws, Fence: x.cluster.Epoch(),
					Tenant: e.tenant})
			} else {
				x.parkLocked(d.key)
			}
		}
		dirty = append(dirty, x.recordLocked(d.key, e))
	}
	x.broadcastArmsLocked(broadcasts)
	persist := x.persistHandoffLocked(dirty)
	x.mu.Unlock()
	persist()
	return nil
}

// ImportOwned applies a handoff batch: provenance slices for keys whose
// ownership moved to this hub. Confirmation sets merge by union and
// arm state by or — a record already armed by the previous owner is
// installed (and re-sequenced into this owner's namespace), a pending
// record past threshold arms now, and everything else resumes counting
// exactly where the previous owner stopped. A record this hub does not
// own under its current ring (the sender's membership was behind) is
// kept as a shadow replica of the true owner instead of being dropped.
func (x *Exchange) ImportOwned(from string, recs []wire.OwnedRecord) error {
	ds, err := decodeOwnedRecords(from, recs)
	if err != nil {
		return err
	}
	x.mu.Lock()
	if x.closed || x.cluster == nil {
		x.mu.Unlock()
		return fmt.Errorf("exchange: closed or not clustered")
	}
	var dirty []ProvenanceRecord
	var broadcasts []*wire.ArmBroadcast
	for _, d := range ds {
		e := x.ensureEntryLocked(d.key, d.rec.Tenant, d.sig, d.rec.Sig)
		if e.firstSeen == "" {
			e.firstSeen = d.rec.FirstSeen
		}
		for _, dev := range d.rec.ConfirmedBy {
			e.confirmedBy[dev] = true
		}
		x.met.handoffRecords.Inc()
		if x.cluster.Owns(d.key) {
			prevOwner := e.owner
			e.owner = x.selfID
			switch {
			case !e.armed && d.rec.Armed:
				// The previous owner armed it and died before every peer saw
				// the broadcast: installing its decision is not a fresh one,
				// so the quorum lease does not gate it — arm under this
				// owner's seq and tell the cluster.
				x.armLocked(e)
				broadcasts = append(broadcasts, &wire.ArmBroadcast{Owner: x.selfID, Seq: e.ownerSeq,
					Confirmations: len(e.confirmedBy), Sig: e.ws, Fence: x.cluster.Epoch(),
					Tenant: e.tenant})
			case !e.armed && len(e.confirmedBy) >= x.thresholdFor(e.tenant):
				// The merged set crosses the threshold here: a fresh
				// decision, taken only under the lease.
				if x.mayArmLocked() {
					x.armLocked(e)
					broadcasts = append(broadcasts, &wire.ArmBroadcast{Owner: x.selfID, Seq: e.ownerSeq,
						Confirmations: len(e.confirmedBy), Sig: e.ws, Fence: x.cluster.Epoch(),
						Tenant: e.tenant})
				} else {
					x.parkLocked(d.key)
				}
			case e.armed && prevOwner != x.selfID:
				// Already armed here as a replica; adopting ownership moves
				// the arming into this owner's seq namespace so peer
				// catch-up replays stay coherent.
				x.ownerSeq++
				e.ownerSeq = x.ownerSeq
			}
		} else {
			if e.owner != x.selfID {
				e.owner = x.cluster.OwnerOf(d.key)
			}
			if d.rec.Armed && !e.armed {
				x.pushArmedLocked(e)
				x.remoteInstalls++
				x.met.remoteInstalls.Inc()
			}
		}
		dirty = append(dirty, x.recordLocked(d.key, e))
	}
	x.broadcastArmsLocked(broadcasts)
	persist := x.persistHandoffLocked(dirty)
	x.mu.Unlock()
	persist()
	return nil
}

// RebindOwnership re-evaluates every entry against the current live
// ring after a membership change. Keys this hub gained are promoted —
// an armed replica is re-sequenced into this owner's namespace, a
// pending shadow set past threshold arms immediately (the deputy
// assuming a dead owner's keys is exactly this path) — and keys it
// lost are demoted, with their provenance slices returned grouped by
// new owner for the cluster node to hand off. The handoff ordering is
// therefore: membership applied first (so Owns answers move), local
// promotion/demotion second, handoff enqueue third — a report arriving
// in between is forwarded to the new owner, whose set-union merge makes
// the race harmless.
func (x *Exchange) RebindOwnership() map[string][]wire.OwnedRecord {
	x.mu.Lock()
	if x.closed || x.cluster == nil {
		x.mu.Unlock()
		return nil
	}
	handoffs := make(map[string][]wire.OwnedRecord)
	var dirty []ProvenanceRecord
	var broadcasts []*wire.ArmBroadcast
	for _, key := range x.order {
		e := x.entries[key]
		newOwner := x.cluster.OwnerOf(key)
		switch {
		case newOwner == x.selfID && e.owner != x.selfID:
			e.owner = x.selfID
			if e.armed {
				x.ownerSeq++
				e.ownerSeq = x.ownerSeq
			} else {
				e.ownerSeq = 0
				if len(e.confirmedBy) >= x.thresholdFor(e.tenant) {
					// Promotion arming (the deputy assuming a dead owner's
					// keys) is a fresh decision: only under the lease. Safe
					// against the deposed owner's residual lease because the
					// suspicion window outlives the lease TTL.
					if x.mayArmLocked() {
						x.armLocked(e)
						broadcasts = append(broadcasts, &wire.ArmBroadcast{Owner: x.selfID, Seq: e.ownerSeq,
							Confirmations: len(e.confirmedBy), Sig: e.ws, Fence: x.cluster.Epoch(),
							Tenant: e.tenant})
					} else {
						x.parkLocked(key)
					}
				}
			}
			dirty = append(dirty, x.recordLocked(key, e))
		case newOwner != x.selfID && e.owner == x.selfID:
			handoffs[newOwner] = append(handoffs[newOwner], ownedRecordLocked(e))
			e.owner = newOwner
			// The demoted entry leaves this owner's seq namespace; the new
			// owner re-sequences on import and its broadcasts re-stamp it.
			e.ownerSeq = 0
			dirty = append(dirty, x.recordLocked(key, e))
		}
	}
	x.broadcastArmsLocked(broadcasts)
	persist := x.persistHandoffLocked(dirty)
	x.mu.Unlock()
	persist()
	return handoffs
}

// mayArmLocked asks the cluster binding whether a fresh arming
// decision is currently allowed — true outside a cluster or without a
// quorum lease. Caller holds x.mu; the binding's answer is one atomic
// load.
func (x *Exchange) mayArmLocked() bool {
	return x.cluster == nil || x.cluster.MayArm()
}

// parkLocked defers a threshold crossing until the lease returns.
// Caller holds x.mu.
func (x *Exchange) parkLocked(key string) {
	if !x.parked[key] {
		x.parked[key] = true
		x.met.parkedArms.Inc()
		x.met.parkedGauge.Set(int64(len(x.parked)))
	}
}

// unparkLocked settles a parked decision (the key armed, or no longer
// qualifies). Caller holds x.mu.
func (x *Exchange) unparkLocked(key string) {
	if x.parked[key] {
		delete(x.parked, key)
		x.met.parkedGauge.Set(int64(len(x.parked)))
	}
}

// clusterBinding reads the bound cluster node (nil outside a
// federation).
func (x *Exchange) clusterBinding() ClusterBinding {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.cluster
}

// LeaseChanged is the cluster node's notification that the quorum
// lease was acquired (held=true) or lost (held=false). On acquisition
// the hub re-scans the parked set and arms every entry that still
// qualifies — this hub's pending decisions deferred while it sat on
// the minority side of a partition; entries that armed meanwhile via a
// peer broadcast, or moved to another owner, simply unpark. On loss
// there is nothing to do: the parked set only grows via the arm-path
// gates. Called without x.mu held.
func (x *Exchange) LeaseChanged(held bool) {
	if !held {
		return
	}
	x.mu.Lock()
	if x.closed || len(x.parked) == 0 {
		x.mu.Unlock()
		return
	}
	keys := make([]string, 0, len(x.parked))
	for key := range x.parked {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var dirty []ProvenanceRecord
	var broadcasts []*wire.ArmBroadcast
	for _, key := range keys {
		e, ok := x.entries[key]
		if !ok || e.armed {
			x.unparkLocked(key)
			continue
		}
		if !x.mayArmLocked() {
			break // the lease flapped away mid-scan; the rest stays parked
		}
		if len(e.confirmedBy) < x.thresholdFor(e.tenant) {
			x.unparkLocked(key) // no longer qualifies (it never should shrink, but stay safe)
			continue
		}
		x.armLocked(e)
		if x.cluster != nil && e.owner == x.selfID {
			broadcasts = append(broadcasts, &wire.ArmBroadcast{Owner: x.selfID, Seq: e.ownerSeq,
				Confirmations: len(e.confirmedBy), Sig: e.ws, Fence: x.cluster.Epoch(),
				Tenant: e.tenant})
		}
		dirty = append(dirty, x.recordLocked(key, e))
	}
	x.broadcastArmsLocked(broadcasts)
	persist := x.persistHandoffLocked(dirty)
	x.mu.Unlock()
	persist()
}

// applyMemberUpdate forwards a peer's membership snapshot to the
// cluster binding. Runs without x.mu held across the apply — merging
// can re-bind ownership, which locks the hub.
func (x *Exchange) applyMemberUpdate(u wire.MemberUpdate) {
	x.mu.Lock()
	cluster := x.cluster
	x.mu.Unlock()
	if cluster != nil {
		cluster.ApplyMemberUpdate(u)
	}
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
	out := make(map[string]uint64)
	for _, key := range x.order {
		e := x.entries[key]
		if e.owner != "" && e.owner != x.selfID && e.ownerSeq > out[e.owner] {
			out[e.owner] = e.ownerSeq
		}
	}
	return out
}

// status snapshots the hub as a wire status payload.
func (x *Exchange) status() *wire.Status {
	x.mu.Lock()
	defer x.mu.Unlock()
	st := &wire.Status{
		Epoch:     x.epoch,
		Threshold: x.threshold,
		Batching:  wire.Batching{Batches: x.batchBatches.Load(), Signatures: x.batchSigs.Load()},
		Hub:       x.selfID,
	}
	for id := range x.conns {
		st.Devices = append(st.Devices, id)
	}
	sort.Strings(st.Devices)
	if x.cluster != nil {
		snap := x.cluster.MemberSnapshot()
		cs := &wire.ClusterStatus{
			Members:         x.cluster.Members(),
			OwnerSeq:        x.ownerSeq,
			Forwards:        x.forwards,
			MembershipEpoch: snap.Epoch,
			Ring:            snap.Members,
			Fenced:          x.fenced,
		}
		for id := range x.peers {
			cs.Peers = append(cs.Peers, id)
		}
		sort.Strings(cs.Peers)
		for _, key := range x.order {
			if e := x.entries[key]; e.owner != "" && e.owner != x.selfID {
				cs.Remote++
			} else {
				cs.Owned++
			}
		}
		st.Cluster = cs
	}
	for _, key := range x.order {
		e := x.entries[key]
		st.Provenance = append(st.Provenance, wire.SigStatus{
			Key:           key,
			Kind:          e.sig.Kind.String(),
			FirstSeen:     e.firstSeen,
			Confirmations: max(len(e.confirmedBy), e.remoteConfirms),
			ConfirmedBy:   x.confirmedByView(e),
			Armed:         e.armed,
			Owner:         e.owner,
			Tenant:        e.tenant,
		})
	}
	st.Tenants = x.tenantViewLocked()
	return st
}

// tenantViewLocked summarizes the non-default tenants: signatures,
// armings, effective threshold, and attached devices, per tenant. The
// default "" tenant is the status payload's top level itself. Caller
// holds x.mu.
func (x *Exchange) tenantViewLocked() []wire.TenantStatus {
	acc := make(map[string]*wire.TenantStatus)
	get := func(t string) *wire.TenantStatus {
		ts, ok := acc[t]
		if !ok {
			ts = &wire.TenantStatus{Tenant: t, Threshold: x.thresholdFor(t)}
			acc[t] = ts
		}
		return ts
	}
	for t := range x.tenantThresholds {
		if t != "" {
			get(t)
		}
	}
	for _, key := range x.order {
		if e := x.entries[key]; e.tenant != "" {
			ts := get(e.tenant)
			ts.Sigs++
			if e.armed {
				ts.Armed++
			}
		}
	}
	for _, conn := range x.conns {
		conn.mu.Lock()
		t := conn.tenant
		conn.mu.Unlock()
		if t != "" {
			get(t).Devices++
		}
	}
	if len(acc) == 0 {
		return nil
	}
	out := make([]wire.TenantStatus, 0, len(acc))
	for _, ts := range acc {
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// confirmedByView is the externally visible confirmation set: only the
// owning hub exposes it — a deputy's shadow copy is an implementation
// detail of failover, and showing it would break the operator contract
// that exactly one hub holds the authoritative set.
func (x *Exchange) confirmedByView(e *fleetSig) []string {
	if e.owner != "" && e.owner != x.selfID {
		return nil
	}
	return sortedKeys(e.confirmedBy)
}

// Status returns the hub's observability snapshot — the same payload a
// status-req receives over the wire and the daemon serves on /status.
func (x *Exchange) Status() wire.Status { return *x.status() }

// Provenance returns the audit records of every signature the fleet has
// seen, in first-report order.
func (x *Exchange) Provenance() []Provenance {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]Provenance, 0, len(x.order))
	for _, key := range x.order {
		e := x.entries[key]
		out = append(out, Provenance{
			Key:           key,
			Kind:          e.sig.Kind,
			FirstSeen:     e.firstSeen,
			Confirmations: max(len(e.confirmedBy), e.remoteConfirms),
			ConfirmedBy:   x.confirmedByView(e),
			Armed:         e.armed,
			Owner:         e.owner,
			Tenant:        e.tenant,
		})
	}
	return out
}

// ArmedCount returns how many signatures are armed fleet-wide.
func (x *Exchange) ArmedCount() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return int(x.epoch)
}

// Stats snapshots the hub counters.
func (x *Exchange) Stats() ExchangeStats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return ExchangeStats{
		Epoch:             x.epoch,
		Devices:           len(x.conns),
		Reports:           x.reports,
		Confirmations:     x.confirms,
		Echoes:            x.echoes,
		DeltaBatches:      x.batchBatches.Load(),
		DeltaSignatures:   x.batchSigs.Load(),
		PersistErrors:     x.persistErrors.Load(),
		Forwards:          x.forwards,
		RemoteInstalls:    x.remoteInstalls,
		Fenced:            x.fenced,
		AdmissionAdmitted: x.admit.Admitted(),
		AdmissionDelayed:  x.admit.Delayed(),
		AdmissionShed:     x.admit.Shed(),
		Parked:            len(x.parked),
	}
}

// Close disconnects every session and shuts the hub down. Provenance
// already persisted survives for the next Exchange over the same store.
// Close is idempotent.
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
}

// msgQueue is a connection's ordered hub→client push queue: a
// Queue[outMsg] drained by a dedicated goroutine so the hub never
// blocks on a slow session, with delta coalescing — consecutive queued
// deltas collapse into one wire message carrying the newest epoch, so
// under a publish storm a slow subscriber receives one batched push,
// never a backlog of stale ones. Queued items are either per-session
// messages or handles on encode-once Shared broadcast frames; stream
// sessions (AcceptStream) receive each drain's frames in a single
// writeFrames call. A delivery failure kills the queue and fires
// OnDead: the session is unusable and its Conn must be torn down even
// if the peer never closes its side of the socket.
type msgQueue = Queue[outMsg]
