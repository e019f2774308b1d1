// Package immunity is the platform's signature distribution tier: it
// turns per-process Dimmunix instances into platform-wide — and
// fleet-wide — immunity that takes effect while processes are running,
// not just at their next start.
//
// The paper's deployment stops at fork time: Zygote loads the shared
// on-flash history into each child, so an antibody discovered by one app
// protects other apps only after their next start, and every process
// appends to the history file independently. This package adds two
// layers on top of the per-process engine:
//
//   - Service, the on-device hub. One Service runs per phone (hosted in
//     the system server) and is the single writer of the persistent
//     history: process cores publish newly detected signatures to it
//     (by using the Service as their core's HistoryStore), the Service
//     merges and deduplicates them (core signature keys), persists them
//     to its backing store, and pushes the delta to every subscribed
//     live process, which hot-installs it via Core.InstallSignature —
//     flipping the named positions to the avoidance slow path. One
//     app's deadlock immunizes every running app within milliseconds,
//     no restart.
//
//   - Exchange, the cross-device hub (the Communix idea): phones
//     connect their Services to a fleet exchange that tracks, per
//     signature, its provenance — the first device that saw it and the
//     set of devices that independently confirmed it — and arms the
//     signature fleet-wide only once a configurable number of distinct
//     devices has confirmed it, so one device's false positive cannot
//     degrade the whole fleet.
//
// For fleets beyond what one hub can carry, the cluster subpackage
// federates several Exchanges into one logical hub: each signature is
// owned by exactly one hub (rendezvous hashing), non-owner hubs forward
// reports to the owner over the wire protocol's peer message set, and
// owned armings broadcast cluster-wide. Devices attach to any hub
// unchanged; the ExchangeClient's per-incarnation epoch map even lets
// one device roam between hubs.
//
// # Transports and the wire protocol
//
// The Exchange speaks only the versioned wire protocol defined in the
// wire subpackage (hello/ack handshake, report, confirm receipts,
// delta pushes, status — see wire's message table). Devices attach
// through a Transport:
//
//   - Loopback (NewLoopback) runs the full protocol in-process with no
//     sockets — zero-dependency tests and simulations, same messages,
//     same arming decisions.
//   - TCPTransport/ServeTCP move length-prefixed binary wire frames
//     over real sockets; a dropped session is redialed with backoff and
//     resubscribes from the last delta epoch applied, so a reconnect
//     receives exactly the armings it missed (see "Resumable sessions"
//     below). On the hub's write side a peer arm-broadcast is marshaled
//     at most once (wire.Shared), a device delta is encoded at drain
//     into the session's reused buffer, and each drain hands every
//     pending frame to the kernel in one writev.
//
// Connect(transport, deviceID, service) wires a phone in; the hub holds
// no references to Services and identifies devices only by their hello
// device id, which is what makes confirmation state survive reconnects.
//
// # Trust model and multi-tenancy
//
// A hosted exchange cannot take a socket's word for who it is: the
// confirm-before-arm threshold is meaningless if one attacker hellos as
// N devices. The auth subpackage supplies the trust fabric, and this
// package threads it through every connection path:
//
//   - Devices authenticate with bearer tokens (in the hello): the
//     operator mints HMAC-signed tokens (auth.Mint, immunityd
//     -mint-token) carrying tenant/device/expiry claims, and a hub
//     built WithAuthVerifier refuses any hello whose token is missing,
//     malformed, forged, expired, or issued for a different device id —
//     each refusal counted by reason in
//     immunity_hub_auth_failures_total. The device claim must match the
//     hello's device id (auth.WildcardDevice opts a token out,
//     tenant-wide), so a stolen token cannot impersonate other devices.
//   - Hubs authenticate to devices with TLS server certificates
//     (WithServeTLS on the listener, WithDialTLS on the client's
//     transport): devices need no per-device PKI, just the fleet CA
//     (auth.NewCA, immunityd -gen-ca) as a trust root.
//   - Hubs authenticate to each other with mutual TLS: peer links dial
//     with the hub's own fleet-CA certificate, and a hub built
//     WithPeerAuth refuses any peer-hello whose claimed cluster id is
//     not backed by the session's verified certificate identity
//     (auth.PeerIdentity) — a rogue hub can neither join the mesh nor
//     replay arm-broadcasts.
//
// The verifier's tenant claim partitions one hub (or cluster) into
// isolated fleets: signature keys are canonicalized per tenant,
// provenance records carry the tenant, confirm thresholds can differ
// per tenant (WithTenantThreshold), and pushes, catch-up deltas, and
// cluster forwarding all stay within a record's tenant — tenant A's
// confirmations can never arm tenant B's fleet, and Status grows a
// per-tenant view. The fleet epoch counter stays global (a tenant's
// client may see epoch gaps; resume is strictly "armEpoch greater than
// mine", so gaps are harmless).
//
// Auth-disabled mode — no verifier, no TLS — means any socket may claim
// any identity and all traffic is one implicit tenant. That is the
// correct posture on a trusted network.
//
// # Decision point
//
// The Exchange is two halves. The arbiter (arbiter.go) is the decision
// half: a plain struct — no lock, goroutine, clock, store, session or
// metric — that owns every signature's fleet state and sees the cluster
// only through ClusterBinding's four pure queries. It has one method
// per event (load, bind, attach/detach, report, remoteArm, replica,
// importOwned, rebind, leaseAcquired, peerReplay, view), and every one
// that touches an entry ends in arbiter.settle, the only place that
// arms, parks, assigns an owner seq or builds an arm-broadcast:
//
//   - a key another hub owns is never decided here — it only installs
//     that hub's decision, and never carries a seq of this hub's;
//   - an owned (or standalone) key arms once its confirmation set
//     reaches the tenant's threshold and MayArm grants it, and parks at
//     threshold without the grant;
//   - an arming made here is broadcast, once, under this hub's next seq.
//
// The hub decides on wire.Checked values: every signature that enters
// it passes wire.Signature.Check, and it never builds a core.Signature.
//
// The Exchange itself is the I/O shell: options, auth and handshakes,
// sessions and their push queues, admission, metrics, the store, the
// binding's sinks. Each entry point takes Exchange.mu, runs one arbiter
// event, and applies the effects it returned (Exchange.commit) in two
// classes. Deltas and arm-broadcasts are enqueued on the session push
// queues before mu is released, so each session receives armings in
// decision order and a hello's ack-then-catch-up cannot be overtaken by
// a live delta; the store write, forwards, replicates and handoffs run
// after the release, the write under persistMu taken while mu was still
// held so the log keeps mutation order. Lock order: Exchange.mu >
// Conn.mu, Exchange.mu > push-queue locks, Exchange.mu > persistMu >
// store locks; the binding's pure queries take only the node's leaf
// locks, and its sinks are called with no hub lock held.
//
// # Resumable sessions
//
// "No confirmation and no arming is lost across restart, failover or
// heal" rests on one resumable wire session, written once (redial.go):
// a Redialer dials, sends a hello carrying a resume cursor, waits for
// the ack, and redials when the session dies; the answerer replays what
// the cursor predates. Every dialer of a hub goes through it — the
// device tier (ExchangeClient), the cluster's peer links, the workload
// storm — and supplies only what differs as an Attempt per dial: what
// the hello says, what an ack means for its cursor, what runs on
// accept, and the non-ack traffic. Five invariants hold for all of
// them:
//
//  1. Ack before install. A session becomes the live one — Send uses
//     it, its traffic may move a cursor — only after an OK ack at
//     wire.Version passed the policy's verdict. The ack wait ends on the
//     ack, the hello timeout, the session's death or Close, whichever
//     comes first; a Close that races the handshake's tail closes the
//     session instead of leaking it.
//  2. Only the accepted attempt moves a cursor. Each dial quarantines
//     the advances its session's traffic would justify; they are merged
//     when the attempt is accepted, and a dead or condemned session's
//     stragglers move nothing (Redialer.Live, checked in the critical
//     section of the advance). Everything received is still installed —
//     an antibody is never refused.
//  3. Condemn ⇒ cursor 0 and redial. An ack that proves the cursor is
//     fiction (the hub's epoch behind the one resumed from, a peer under
//     a new incarnation) resets the cursor and fails the handshake; had
//     the condemned session's replay — filtered against the stale
//     cursor — been allowed to advance it, the armings the filter
//     skipped would be lost for good.
//  4. A refusal is final for a device, never for a peer. A failed
//     handshake ack, a failure ack on the live session (superseded) or
//     a transport that can never reconnect stops an ExchangeClient with
//     Err set and its subscription released; a peer link redials
//     through all three, because the refusal may be a config gap the
//     next attempt outlives.
//  5. Backoff resets on uptime, not on handshake. The redial wait
//     doubles from 5 ms to 2 s, jittered to half-to-full so a healed hub
//     is not thunder-herded, and returns to the floor only after a
//     session outlived one second; that session's redial is immediate.
//
// Lock order: Redialer.mu is a leaf below every lock in this package
// and in cluster. It covers pointer swaps only and is never held across
// Transport.Dial, Session.Send, Session.Close or an Attempt method —
// loopback delivers the ack and the replay burst synchronously on the
// sender's stack, and a Close can wait on hub handlers that are blocked
// on the policy's own lock. Send and Live take no lock at all.
//
// # Durable provenance
//
// With WithProvenanceStore the hub upserts every confirmation and
// arming, and each device's delivery cursor, to a ProvenanceStore
// (NewFileProvenance: a binary last-wins log). A restarted hub
// reloads that state before accepting sessions: it does not re-arm
// below threshold, loses no confirmation, and still refuses echoes of
// its own past pushes.
//
// # Delivery cursor
//
// A device's report of a signature the hub pushed to it is an echo, not
// a confirmation, so the hub must know what it pushed to whom. It keeps
// one cursor per (tenant, device), not a device set per signature,
// because what a device has been pushed is always a prefix of its
// tenant's armings in fleet-epoch order:
//
//   - a hello's catch-up covers every armed signature above the hello's
//     epoch;
//   - that epoch is looked up under the hub's gen, a fresh nonce per
//     incarnation, so it can only have come from this hub's earlier
//     sessions with the device — it is at most the cursor they left;
//   - every arming while the device is attached is pushed to it;
//   - so a detached device holds exactly the armed signatures with
//     armEpoch ≤ the fleet epoch at its detach.
//
// The echo rule is therefore "armed, and the device is attached or the
// signature's armEpoch ≤ its cursor". Attach persists one "open" record
// and detach one closed at the fleet epoch, whatever the armed set's
// size, and an arming persists nothing per device. An open record found
// on load is a session the previous incarnation crashed under; it is
// closed at the loaded maximum armEpoch — every arming the log holds
// reached it, by catch-up or live — and that close is persisted, so a
// later incarnation's armings never join it. An echo verdict can only
// withhold a confirmation from an already-armed signature, never cause
// an arming.
//
// # Arming log
//
// The same prefix shape makes every delta a view. The arbiter keeps one
// append-only log per tenant: the armed signatures and their armEpochs,
// in epoch order. An arming appends to it, a reload rebuilds it with
// one sort by armEpoch, and a hello's catch-up is the suffix after the
// hello's epoch, found by binary search. A queued delta is a pair of
// indices into the log — log[from:to], cap-clipped at to — so two
// adjacent deltas (one's to is the other's from) merge into one view in
// O(1) without copying, and a session that falls behind holds one
// pending delta whatever the number of armings. The Service does the
// same over its history. Delta signatures are therefore shared by every
// subscriber and read-only; the cap clip makes a consumer's append copy
// rather than write into the log.
//
// # Epoch/delta protocol
//
// The Service's merged history is an append-only sequence; the epoch is
// the number of signatures accepted so far (epoch e ⇒ signatures with
// indices 0..e-1 exist). Publishing a new signature bumps the epoch by
// one and enqueues the delta (the new signature, tagged with the
// post-append epoch) to every subscriber. A subscriber names the epoch
// it already holds (typically captured just before its core loaded the
// history), and catch-up delivery replays every signature after that
// epoch before live deltas — so a process forked while a publish is in
// flight may receive a signature twice, which is harmless: hot-install
// deduplicates by signature key. Deliveries to one subscriber are
// ordered; across subscribers there is no ordering guarantee. The
// fleet tier runs the same scheme one level up: the Exchange's delta
// epoch counts fleet-wide armings, and a client's hello names the last
// fleet epoch it applied.
//
// Under a publish storm, pending deltas to one subscriber are coalesced
// at enqueue into a single delivery carrying the newest epoch (see
// "Arming log"; ServiceStats and ExchangeStats count batches vs.
// signatures) — a slow subscriber receives one batched push, never a
// backlog of stale epochs.
//
// # Observability and admission control
//
// Every Exchange owns a metrics.Registry (or uses the one given to
// WithMetricsRegistry; read it with Exchange.Metrics): report/
// confirmation/echo/arming/forward counters, device and peer session
// gauges, push-queue depth and in-flight gauges with drain batch-size
// and coalesce-ratio histograms, report-handling latency, and persist
// error counters — rendered in Prometheus text format by
// Registry.WritePrometheus (immunityd serves it at /metrics). The
// counters are the hub's only counts: ExchangeStats and Status read
// them, so /status and /metrics tell one story, and one registry serves
// one hub.
// The cluster subpackage adds per-peer dial/reconnect/forward-outbox
// series on the same registry.
//
// Admission has one mechanism: WithAdmission(maxWait) puts a fixed pool
// of 8 permits in front of report ingest (device reports and peer
// forward-reports). At most 8 report messages are processed
// concurrently, an over-capacity message waits — on the session's
// transport read goroutine, so the device sees a slow ack and TCP
// applies backpressure — and a message still waiting at maxWait is
// shed: dropped without killing the session, recovered by the client's
// full-history re-report on its next reconnect (at-least-once). A
// report storm therefore degrades to bounded delay instead of unbounded
// hub memory. Each admitted message yields the processor once with its
// permit held: without the yield one hot session re-acquires in a tight
// loop for a whole preemption slice, the other sessions' reports pile
// up unread in hub memory, and the pool bounds nothing. Keep maxWait
// well below the transport's 30s write timeout, or a delayed session's
// unread pushes can kill it before the verdict. Without the option
// every report is admitted at once, with no yield and no counting.
// The report latency histogram (immunity_hub_report_seconds, wait
// included) has a wait-excluded twin (immunity_hub_report_handle_seconds),
// so queueing is distinguishable from a slow hub; objectives over them
// are for the scraper to evaluate.
//
// The registry's instruments are lock-free and its own mutexes are
// leaves that never call out, so metric updates are safe under any
// hub, queue, or link lock; see the metrics package comment for the
// exact ordering contract.
//
// # Mechanism ledger
//
// A fleet mechanism stays only if some row fails, or measurably
// suffers, without it. One line each: the mechanism, its non-test
// lines, its daemon flags, and its row.
//
//   - Admission: admission.go (115 lines) plus WithAdmission and
//     admitReport; no flags (immunityd always runs it, with a 5s max
//     wait); row cmd/immunityd TestImmunitydAdmissionFlood (16 devices
//     × 64 signatures: every signature arms, reports are delayed and
//     none shed, 8 permits, p99 report latency ≤ 0.25s). The evidence
//     that the hub needs the pool is a real-clock flood, not a
//     deterministic test: 64 devices × 256 signatures drained in
//     4.7–9.5s with a 107–290MB peak heap without it, against 3.3–4.4s
//     and ~42MB with it.
//
// # Lock order relative to the engine lock
//
// Publish is called from inside the engine's critical section: a core
// that detects a deadlock appends to its store — the Service — while
// holding its engine lock (core.Core.mu) exclusively. The Service
// therefore must never call into any core synchronously: Publish only
// takes the service lock, appends, and enqueues; the hot-install calls
// (Core.InstallSignature, which takes the target core's engine lock)
// happen on per-subscriber delivery goroutines that hold no service
// lock while invoking the callback. The resulting order is
//
//	core.Core.mu (any process) > Service.mu > {subscriber queue lock,
//	Service.persistMu > backing-store locks}
//
// and delivery goroutines acquire core.Core.mu with no immunity lock
// held, so no cycle through the two subsystems is possible. The
// Exchange obeys the same rule one level up (its own order is under
// "Decision point"): session deliveries into a phone's Service run on
// per-connection queue goroutines without Exchange.mu, and transport
// send callbacks run only on those goroutines.
package immunity

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dimmunix/dimmunix/internal/core"
)

// view is one delta as a read-only window of an append-only log (the
// package comment's "Arming log"): log[from:] are its signatures and
// epoch is the epoch after them. log is cap-clipped at its end, so a
// consumer's append copies instead of writing into the log.
type view[S any] struct {
	log   []S
	from  int
	epoch uint64
}

// sigs returns the view's signatures: shared and read-only.
func (v view[S]) sigs() []S { return v.log[v.from:] }

// mergeViews folds next into prev when next starts where prev ends. The
// merged view spans both and carries the newer epoch; nothing is copied.
func mergeViews[S any](prev, next view[S]) (view[S], bool) {
	if prev.log == nil || next.log == nil || len(prev.log) != next.from {
		return prev, false
	}
	next.from, next.epoch = prev.from, max(prev.epoch, next.epoch)
	return next, true
}

// subscriber is one live process's (or observer's) ordered delivery
// queue, drained by a dedicated goroutine so Publish never blocks on a
// slow consumer and never calls into a core synchronously. Its items are
// views of the Service's history, so a subscriber that fell behind a
// publish storm holds one pending delta, catches up in a single
// callback, and never observes a stale epoch.
type subscriber = Queue[view[*core.Signature]]

func newSubscriber(fn func(epoch uint64, sigs []*core.Signature), onBatch func(n int)) *subscriber {
	return NewQueue(QueueConfig[view[*core.Signature]]{
		Deliver: func(d view[*core.Signature]) error { fn(d.epoch, d.sigs()); return nil },
		Merge:   mergeViews[*core.Signature],
		OnDeliver: func(d view[*core.Signature]) {
			if onBatch != nil {
				onBatch(len(d.sigs()))
			}
		},
	})
}

// ServiceStats snapshots a Service's counters.
type ServiceStats struct {
	// Epoch is the current history epoch (number of accepted signatures).
	Epoch uint64
	// Published counts accepted (fresh) signatures since creation,
	// including those loaded from the backing store at construction.
	Published uint64
	// Duplicates counts publishes rejected as already known.
	Duplicates uint64
	// Deliveries counts delta deliveries enqueued (subscribers × deltas).
	Deliveries uint64
	// DeltaBatches and DeltaSignatures count what subscribers actually
	// received after coalescing: DeltaBatches callbacks carrying
	// DeltaSignatures signatures. DeltaSignatures/DeltaBatches > 1 means
	// publish storms were batched.
	DeltaBatches, DeltaSignatures uint64
	// Subscribers is the current number of live subscriptions.
	Subscribers int
	// PersistErrors counts failed appends to the backing store (the
	// in-memory history and the propagation still protect the platform).
	PersistErrors uint64
}

// Service is the on-device immunity hub: the single writer of the
// persistent history and the live propagation fan-out. It implements
// core.HistoryStore so it plugs directly into the Zygote as the store
// every forked core loads from and publishes to.
type Service struct {
	name  string
	store core.HistoryStore // backing persistence; nil = in-memory only

	mu      sync.Mutex
	sigs    []*core.Signature // accepted signatures, epoch order
	keys    map[string]uint64 // signature key -> epoch at acceptance
	sources map[string]string // signature key -> first publisher
	subs    map[int]*subscriber
	nextSub int
	closed  bool
	stats   ServiceStats

	// persistMu serializes backing-store appends in epoch order. It is
	// acquired while still holding mu (establishing the epoch) and
	// released after the append, so the file order always matches the
	// epoch order even under concurrent publishers — NewService re-derives
	// epochs from file order after a reboot. Lock order: mu > persistMu.
	persistMu sync.Mutex

	// Batching counters, bumped on subscriber drain goroutines.
	batchBatches atomic.Uint64
	batchSigs    atomic.Uint64
}

var _ core.HistoryStore = (*Service)(nil)

// NewService creates the device hub named name (the device/phone id in a
// fleet). store, which may be nil, is the backing persistent history; its
// contents are loaded, deduplicated, and become epochs 1..n.
func NewService(name string, store core.HistoryStore) (*Service, error) {
	s := &Service{
		name:    name,
		store:   store,
		keys:    make(map[string]uint64),
		sources: make(map[string]string),
		subs:    make(map[int]*subscriber),
	}
	if store != nil {
		sigs, err := store.Load()
		if err != nil {
			return nil, fmt.Errorf("immunity service %s: load store: %w", name, err)
		}
		merged, err := core.MergeHistories(sigs)
		if err != nil {
			return nil, fmt.Errorf("immunity service %s: %w", name, err)
		}
		for _, sig := range merged {
			s.sigs = append(s.sigs, sig)
			s.keys[sig.Key()] = uint64(len(s.sigs))
			s.sources[sig.Key()] = "store"
			s.stats.Published++
		}
	}
	return s, nil
}

// Name returns the service's device name.
func (s *Service) Name() string { return s.name }

// Epoch returns the current history epoch.
func (s *Service) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.sigs))
}

// Snapshot returns deep copies of all accepted signatures and the epoch
// they represent.
func (s *Service) Snapshot() ([]*core.Signature, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, err := core.MergeHistories(s.sigs)
	if err != nil {
		return nil, 0, err
	}
	return out, uint64(len(s.sigs)), nil
}

// Load implements core.HistoryStore: a forked core seeds its history with
// everything the service has accepted so far.
func (s *Service) Load() ([]*core.Signature, error) {
	sigs, _, err := s.Snapshot()
	return sigs, err
}

// Append implements core.HistoryStore: a core that detects a deadlock
// publishes it to the service instead of writing the history file itself.
// Append may be called with the publishing core's engine lock held; it
// never calls back into any core (see the package comment's lock order).
func (s *Service) Append(sig *core.Signature) error {
	_, _, err := s.Publish(s.name, sig)
	return err
}

// Publish offers a signature to the service, attributed to source. If the
// signature is new it is persisted to the backing store, assigned the
// next epoch, and pushed asynchronously to every subscriber. Publish
// reports the epoch after the call and whether the signature was fresh.
func (s *Service) Publish(source string, sig *core.Signature) (epoch uint64, fresh bool, err error) {
	if sig == nil {
		return 0, false, fmt.Errorf("immunity publish: nil signature")
	}
	if err := sig.Validate(); err != nil {
		return 0, false, fmt.Errorf("immunity publish: %w", err)
	}
	key := sig.Key()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, false, fmt.Errorf("immunity publish: service %s closed", s.name)
	}
	if _, ok := s.keys[key]; ok {
		s.stats.Duplicates++
		epoch = uint64(len(s.sigs))
		s.mu.Unlock()
		return epoch, false, nil
	}
	cp := &core.Signature{Kind: sig.Kind, Pairs: core.ClonePairs(sig.Pairs)}
	s.sigs = append(s.sigs, cp)
	n := len(s.sigs)
	epoch = uint64(n)
	s.keys[key] = epoch
	s.sources[key] = source
	s.stats.Published++
	d := view[*core.Signature]{log: s.sigs[:n:n], from: n - 1, epoch: epoch}
	for _, sub := range s.subs {
		sub.Enqueue(d)
		s.stats.Deliveries++
	}
	store := s.store
	if store != nil {
		// Taken under mu: the holder of epoch n owns persistMu before the
		// publisher of epoch n+1 can request it, so appends land in epoch
		// order.
		s.persistMu.Lock()
	}
	s.mu.Unlock()

	// Persist outside the service lock: the store may take a file lock,
	// and subscribers must not wait on flash latency.
	if store != nil {
		err := store.Append(cp)
		s.persistMu.Unlock()
		if err != nil {
			s.mu.Lock()
			s.stats.PersistErrors++
			s.mu.Unlock()
		}
	}
	return epoch, true, nil
}

// Subscribe registers fn for every signature accepted after epoch `from`,
// starting with an immediate catch-up delta if the service is already
// ahead; fn receives the epoch after each delta and the delta's
// signatures, which are shared with every other subscriber and must be
// treated as read-only. Deliveries are ordered per subscriber and run
// on a dedicated goroutine; fn may call into cores (hot-install) but must
// not call Subscribe or Close on this service. The returned cancel stops
// delivery after the in-flight delta and waits for the delivery goroutine
// to exit. Together with Epoch and the HistoryStore methods this
// implements vm.SignatureBus.
func (s *Service) Subscribe(name string, from uint64, fn func(epoch uint64, sigs []*core.Signature)) (cancel func()) {
	sub := newSubscriber(fn, func(n int) {
		s.batchBatches.Add(1)
		s.batchSigs.Add(uint64(n))
	})
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sub.Close()
		return func() {}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = sub
	if n := len(s.sigs); from < uint64(n) {
		sub.Enqueue(view[*core.Signature]{log: s.sigs[:n:n], from: int(from), epoch: uint64(n)})
		s.stats.Deliveries++
	}
	s.mu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			delete(s.subs, id)
			s.mu.Unlock()
			sub.Close()
		})
	}
}

// SourceOf returns the first publisher recorded for a signature key, or
// "" if the key is unknown — the on-device half of provenance.
func (s *Service) SourceOf(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sources[key]
}

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.Epoch = uint64(len(s.sigs))
	out.Subscribers = len(s.subs)
	out.DeltaBatches = s.batchBatches.Load()
	out.DeltaSignatures = s.batchSigs.Load()
	return out
}

// Close stops the service: subscribers are drained and detached, and
// further publishes fail. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	subs := make([]*subscriber, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.subs = make(map[int]*subscriber)
	s.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

// sortedKeys returns m's keys sorted, for deterministic rendering.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
