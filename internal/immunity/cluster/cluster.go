// Package cluster federates immunity.Exchange hubs into one logical
// fleet hub, removing the single-hub scaling and availability ceiling
// on the road to million-device fleets: devices attach to *any* hub
// unchanged, and the hubs divide the confirm-before-arm bookkeeping
// among themselves.
//
// # Ownership ring
//
// Every signature (by canonical call-stack key) is owned by exactly one
// hub, chosen by a rendezvous hash over the live membership (Ring).
// The owner is the sole arbiter of the confirm threshold: it holds the
// signature's full provenance — first-seen device, the deduplicated
// (device, signature) confirmation set — while every other hub persists
// only a slim replicated record once the signature arms (plus, on the
// key's deputy, a shadow copy of the pending confirmation set; see
// failover below). What a hub pushed to its own devices is one delivery
// cursor per device, not per-signature state. Per-hub state therefore
// shrinks as the cluster grows: each hub carries its 1/n slice of the
// provenance plus the (shared) armed set.
//
// # Peer protocol
//
// Hubs connect pairwise over the ordinary wire transports (loopback in
// process, TCP across machines): every node dials every live member
// and keeps the link alive through the same resumable-session machine
// the device tier uses (package immunity, "Resumable sessions" — the
// handshake, quarantine, refusal and backoff rules are stated there,
// once). On one link, the dialer sends peer-hello (its hub id,
// advertised address, version range, and the last arming seq it
// applied from the answering hub),
// forward-report (device reports for signatures the answerer owns),
// member-update (membership snapshots), handoff (ownership transfers),
// and replicate (deputy shadow copies); the answerer replies with an
// ack (the protocol version, its incarnation gen, its current arming
// seq), replays the owned armings the dialer missed, pushes its own
// membership snapshot, and thereafter pushes arm-broadcast for every
// owned signature it arms and forward-confirm receipts for forwarded
// reports. Since every pair has a link in each direction, every arming
// reaches every hub exactly once, and a report forwarded through any
// hub reaches the owner in one hop (re-forwarding after an ownership
// move is hop-bounded by wire.ForwardReport.Hops).
//
// Reports are forwarded with their original device attribution and the
// owner deduplicates confirmations by (device, signature), so a
// forwarding path — including its at-least-once retry outbox — can
// never double-count. A device report for a foreign signature the local
// hub itself delivered to that device is answered locally as an echo
// and never forwarded at all.
//
// Arming installs are idempotent (a hub applies a broadcast once and
// treats replays as cursor advances), each hub assigns its own local,
// strictly monotonic delta epoch as it installs — devices keep the
// per-hub epoch contract they already had — and the client's per-gen
// epoch map in hello lets one device roam between hubs of the cluster
// without replaying the world.
//
// # Elastic membership
//
// The membership is no longer static config: it is a convergent state
// machine (Membership) replicated as member-update snapshots at a
// monotonically increasing epoch. A hub joins by dialing any existing
// member — the answerer admits it from the peer-hello's advertised
// address, bumps the epoch, dials back, and broadcasts; the joiner
// learns the full membership (and every other member's address) from
// the snapshots pushed back, and dials the rest. A hub leaves by
// down-marking itself at a bumped epoch (Node.Leave) and handing off
// its owned slices before it disconnects. Snapshots merge as a
// join-semilattice — higher epoch adopted wholesale, equal epochs take
// the deterministic field-wise union and bump — so no consensus round
// is needed; membership disagreement windows are rendered harmless one
// layer up by set-union confirmation merges, idempotent arming, and
// the fencing rule. Rendezvous hashing bounds the churn: adding or
// removing one member moves only the keys that member wins or held.
//
// Every membership change funnels through one strictly ordered
// pipeline (applyMembership): publish the new live ring, dial links to
// new members, broadcast the snapshot, re-bind ownership in the hub
// (promote gained keys, arming any deputy shadow already at
// threshold), and finally enqueue the demoted slices as handoff
// messages to their new owners. A handoff migrates the full owned
// record — confirmation set, first-seen, arm state, owner seq — and
// the importer merges by set union, so a handoff racing fresh reports
// or a crossed re-ownership converges instead of double-counting.
//
// # Failover: deputies, probes, and fencing
//
// Each key's deputy is its second-highest rendezvous scorer — by the
// rendezvous property, exactly the hub the ring promotes if the owner
// vanishes. An owner replicates every pending (unarmed) confirmation
// set to the key's deputy as it grows, piggybacked on the existing
// peer link, so the would-be successor already holds the set when the
// owner dies. Failure detection (enabled by Config.FailoverAfter, which
// sets every probe timing) is SWIM-style probing over the peer links, not
// a per-link timer: the prober direct-pings one live member per
// interval, escalates an unanswered ping to indirect ping-reqs relayed
// through k proxy members — so a single stalled or half-open link can
// no longer declare a live owner dead by itself — and marks a member
// down only after it stays unreachable through the whole suspicion
// window. The membership pipeline then promotes this hub for every key
// it was deputy of, arming on the spot any shadow set at threshold —
// arming availability survives the owner crash. A completed handshake
// in either direction revives a down-marked member (and hands its keys
// back).
//
// # Quorum leases: why both partition sides cannot arm
//
// Fencing (below) reconciles a split after heal; the quorum lease
// prevents split-brain arming from happening at all. Whenever failure
// detection is on, and so whenever ownership can move, the hub may take
// a *fresh* arming decision — a confirmation set crossing its
// threshold, a promoted shadow set arming — only while it holds a lease
// acknowledged by a strict majority of every member it has ever known,
// down members included (see immunity.ClusterBinding.MayArm). The
// trust chain is:
//
//	probe suspicion → membership mark-down → ring promotion
//	quorum lease    → the (promoted) owner's right to arm
//	epoch fencing   → backstop against stale replay after heal
//
// The lease renews in rounds over the peer links (wire.Lease /
// wire.LeaseAck, one TTL per granted round, a round every TTL/3), and
// a hub holding none also asks on three triggers — contact, an owed
// grant, an epoch advance (leaseState) — so a booted, restarted or
// healed hub arms one round trip after it reaches a majority.
//
// Because the quorum denominator counts down members and each side's
// member universe only ever grows, two disjoint partition fragments can
// never both assemble a majority: the minority side's lease expires
// within one TTL
// (immunity_cluster_lease_lost_total), its pending arming decisions
// park inside the hub (it degrades to read-only forwarding and
// confirmation counting), and the parked set is re-scanned when the
// healed cluster grants its lease back. A granter acks only a
// requester whose membership epoch is at least its own, so a returning
// stale owner stays parked until it has merged the partition-era
// membership. Promotion is safe against the deposed owner's residual
// lease because the suspicion window is never shorter than the lease
// TTL — by the time a member is marked down, the last lease it could
// hold has expired. Only a received lease-ack is a grant: a link's
// session being up never counts as one.
//
// The membership epoch doubles as the fencing token: every
// arm-broadcast carries the sender's epoch (wire.ArmBroadcast.Fence),
// and a receiver refuses a broadcast whose fence is older than its own
// epoch when the sender no longer owns the key under the receiver's
// ring (immunity.ErrFenced). A stale owner returning from a partition
// can therefore never double-arm against the promoted deputy or
// regress the owner seq — its replayed broadcasts are fenced until it
// re-merges the membership, is revived, and receives its slice back by
// handoff; a fenced broadcast never advances the link cursor. Behind
// the lease, fencing is the second line of defense. Without failure
// detection ownership never moves, so only a key's one owner ever
// arms it.
//
// # Partitions and restarts
//
// A severed link parks the forward outbox, redials, and resubscribes
// from the last applied arming seq: the reconnect replays exactly the
// missed armings (immunity's "Resumable sessions" has the backoff and
// cursor rules). The outbox is bounded (4096 messages): a
// partition outlasting the cap spills the oldest messages, counted in
// immunity_cluster_forward_dropped_total, and receiver-side dedup plus
// the device tier's full-history re-report on reconnect restore
// at-least-once delivery for what was spilled. A restarted
// owner reloads its owned provenance (confirmation counts survive) and
// its arming seq from the provenance store; a restarted non-owner
// reloads the replicated armed set — and, on a deputy, the shadow
// confirmation sets — and resumes each peer cursor from the highest
// seq it had applied (Exchange.RemoteSeqs). A memory-only restart
// changes the hub's gen, which peers detect from the ack and condemn:
// resubscribe from zero — redundant replay, never a lost arming.
//
// # Lock order
//
// The pipeline mutex is the top of the order: applyMembership holds
// applyMu across ring publish, link creation, and the hub re-bind, so
//
//	applyMu > Exchange.mu (any hub) > Membership.mu
//	applyMu > Node.linksMu > link.mu
//
// Membership.mu is a leaf (the pure binding reads Epoch and
// MemberSnapshot take it under Exchange.mu and call nothing). So is
// Node.stepMu, the one decision lock over the lease and the prober: the
// values it guards call nothing, the membership facts they need are
// read before it is taken, and every send, mark-down, metric and hub
// call a step returns runs after it is released — a loopback send that
// nests the peer's handlers, and their answers this node's, on one
// stack never finds it held. Node.linksMu and link.mu are never held
// while calling into the hub, and the hub calls into the node under
// Exchange.mu only via the binding's pure reads (Owns, OwnerOf, Epoch,
// MayArm, SelfID, Members, MemberSnapshot); the binding's sinks
// (ForwardReport, Replicate, ApplyMemberUpdate, PeerSeen, HandleProbe)
// run after Exchange.mu is released. The node enters its own hub
// through BindCluster and RemoteSeqs (at start), RebindOwnership (under
// applyMu), LeaseAcquired (after the lease step that completed a
// majority, with no node lock held), InstallRemote and DeliverConfirm
// (a link's receive path), and a peer's hub only through Conn.Handle,
// which routes replicate and handoff frames to InstallReplica and
// ImportOwned on the receiver's transport goroutine. No such caller
// holds a lock of the other hub, so no cycle between two hubs' locks is
// possible.
// Each link's session machine adds one leaf below link.mu (see the
// lock-order line of immunity's "Resumable sessions"); link.mu itself
// guards only the resume cursor and the owed lease grant, and is
// released before any send.
// The metrics registry (Config.Metrics) sits below all of these: its
// instruments are lock-free atomics and its own locks are leaves that
// never call out (see package immunity/metrics), so links update their
// counters under link.mu freely.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// forwardOutboxCap bounds a peer link's forward outbox (queued +
// in-flight messages): enough for a storm's worth of forwards across a
// transient partition, small enough that a partitioned link costs
// megabytes, not the heap.
const forwardOutboxCap = 4096

// Member names one remote hub of the cluster seed and the transport
// that reaches it (immunity.NewTCPTransport across machines,
// immunity.NewLoopback in process). Members discovered at runtime go
// through Config.Resolve instead.
type Member struct {
	ID        string
	Transport immunity.Transport
}

// Config assembles one cluster node.
type Config struct {
	// Self is this hub's cluster id (must be unique in the membership).
	Self string
	// SelfAddr is the address this node advertises in its peer-hellos
	// and membership snapshots — what other members hand to
	// Config.Resolve to dial us. Empty on a node that is only ever
	// dialed out from (tests, loopback).
	SelfAddr string
	// Hub is the local exchange this node federates.
	Hub *immunity.Exchange
	// Peers seed the membership. Unlike the pre-elastic static ring
	// this need not be the complete member set on every node: a joining
	// node may list a single existing member and learns the rest from
	// its membership snapshots.
	Peers []Member
	// Resolve builds a transport for a member discovered at runtime (a
	// joiner admitted from its peer-hello, a member learned from a
	// snapshot). Nil restricts outbound links to the configured Peers.
	Resolve func(m wire.MemberInfo) immunity.Transport
	// FailoverAfter is the failure-detection budget: roughly how long a
	// member must stay unreachable — by direct and indirect probes, not
	// just on this node's own link — before it is marked dead and this
	// node assumes ownership of the keys it is deputy for. It sets every
	// probe timing (interval D/4, timeout D/8, suspicion D/2, two
	// indirect proxies) and the default lease TTL. Detection always runs
	// with the quorum lease. 0 disables both: ownership never moves, so
	// only a key's owner arms it (a dead owner parks its slice until it
	// returns).
	FailoverAfter time.Duration
	// LeaseTTL is the quorum-lease lifetime (default: the probe timeout
	// plus the suspicion window, and always clamped to it so a deposed
	// owner's last lease has certainly expired before its deputy can be
	// promoted).
	LeaseTTL time.Duration
	// Metrics is the registry the node's instruments live on: per-peer
	// link instruments (dials, reconnects, connected, applied/duplicate
	// broadcasts, forward outbox depth + in-flight) plus node-level
	// membership gauges, handoff/failover/replication counters and the
	// lease counters. The instruments are the node's only counts, and
	// PeerStatus and LeaseStats read them. Nil: the hub's registry
	// (Exchange.Metrics), so one /metrics render covers both tiers.
	Metrics *metrics.Registry
}

// Node federates one Exchange into the cluster: it binds the ownership
// ring into the hub, dials a peer link to every live member, forwards
// device reports to their owners, replicates owned pending sets to
// their deputies, installs peers' arm-broadcasts, and runs the
// membership/failover machinery.
type Node struct {
	self     string
	selfAddr string
	hub      *immunity.Exchange
	reg      *metrics.Registry
	resolve  func(m wire.MemberInfo) immunity.Transport

	membership *Membership
	ring       atomic.Pointer[Ring]

	// stepMu guards the two decision values, both nil without failure
	// detection and both set with it. A leaf: the values call nothing
	// (see failover.go for the shell that steps them).
	stepMu sync.Mutex
	probe  *probeState
	lease  *leaseState
	// leaseHeld mirrors lease.held for MayArm's lock-free read.
	leaseHeld atomic.Bool

	// applyMu serializes the membership pipeline (applyMembership) so
	// two triggers cannot interleave their re-bind and handoff phases.
	applyMu sync.Mutex

	linksMu sync.Mutex
	closed  bool
	links   map[string]*link
	// transports holds the seed peers' preconfigured transports;
	// members beyond the seed go through resolve.
	transports map[string]immunity.Transport

	metFailovers      *metrics.Counter
	metHandoffs       *metrics.Counter
	metReplicas       *metrics.Counter
	metEpoch          *metrics.Gauge
	metForwardDropped *metrics.Counter
	metLeaseHeld      *metrics.Gauge
	metLeaseAcquired  *metrics.Counter
	metLeaseLost      *metrics.Counter
	metLeaseRefused   *metrics.Counter
	metProbes         *metrics.Counter
	metIndirect       *metrics.Counter
	metSuspects       *metrics.Counter

	closeOnce sync.Once
	closeCh   chan struct{}
	wg        sync.WaitGroup
}

var _ immunity.ClusterBinding = (*Node)(nil)

// New builds the node, binds it to cfg.Hub, and starts the peer links.
// It returns immediately; links to peers that are not up yet connect in
// the background with backoff.
func New(cfg Config) (*Node, error) {
	if cfg.Hub == nil {
		return nil, fmt.Errorf("cluster: nil hub")
	}
	ids := []string{cfg.Self}
	seed := make([]wire.MemberInfo, 0, len(cfg.Peers))
	transports := make(map[string]immunity.Transport, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p.Transport == nil {
			return nil, fmt.Errorf("cluster: peer %q has no transport", p.ID)
		}
		ids = append(ids, p.ID)
		seed = append(seed, wire.MemberInfo{ID: p.ID})
		transports[p.ID] = p.Transport
	}
	// NewRing validates the seed (unique, non-empty ids) besides
	// building the initial ring.
	ring, err := NewRing(ids...)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = cfg.Hub.Metrics()
	}
	n := &Node{
		self:       cfg.Self,
		selfAddr:   cfg.SelfAddr,
		hub:        cfg.Hub,
		reg:        reg,
		resolve:    cfg.Resolve,
		membership: newMembership(cfg.Self, cfg.SelfAddr, seed),
		links:      make(map[string]*link, len(cfg.Peers)),
		transports: transports,
		closeCh:    make(chan struct{}),
	}
	n.ring.Store(ring)
	n.metFailovers = reg.Counter("immunity_cluster_failovers_total",
		"Members marked down by the failure detector (deputy promotions).")
	n.metHandoffs = reg.Counter("immunity_cluster_handoff_sent_total",
		"Owned records handed off to new owners after membership changes.")
	n.metReplicas = reg.Counter("immunity_cluster_replicated_total",
		"Pending confirmation-set records replicated to deputies.")
	n.metEpoch = reg.Gauge("immunity_cluster_membership_epoch",
		"Current membership epoch (the arm-broadcast fencing token).")
	n.metEpoch.Set(1)
	n.metForwardDropped = reg.Counter("immunity_cluster_forward_dropped_total",
		"Oldest forward-outbox messages spilled by the per-peer cap during long partitions.")
	pc := resolveProbe(cfg)
	if pc.enabled {
		n.probe = newProbeState(cfg.Self, pc)
		n.metProbes = reg.Counter("immunity_cluster_probes_total",
			"Direct pings sent by the failure detector.")
		n.metIndirect = reg.Counter("immunity_cluster_probe_indirect_total",
			"Probes escalated to indirect ping-reqs through proxy members.")
		n.metSuspects = reg.Counter("immunity_cluster_probe_suspects_total",
			"Members entering suspicion (unreachable by direct and indirect probes).")
		n.lease = newLeaseState(cfg.Self, pc.leaseTTL)
		n.metLeaseHeld = reg.Gauge("immunity_cluster_lease_held",
			"1 while this hub holds the quorum lease that permits fresh arming decisions.")
		n.metLeaseAcquired = reg.Counter("immunity_cluster_lease_acquired_total",
			"Quorum-lease acquisitions (first grant and every re-acquisition after a loss).")
		n.metLeaseLost = reg.Counter("immunity_cluster_lease_lost_total",
			"Quorum-lease expiries: the hub lost its majority (minority partition side) and parked fresh arming.")
		n.metLeaseRefused = reg.Counter("immunity_cluster_lease_refused_total",
			"Lease grants refused by peers (requester's membership epoch behind the granter's).")
	}
	// Bind before any link (or device) traffic: the hub must know the
	// ring before it accepts its first report or peer-hello.
	cfg.Hub.BindCluster(n)
	if n.lease != nil {
		// The first round opens before any link dials, so every accepted
		// link is asked in it (a single-member cluster holds its lease on
		// return).
		n.leaseTick(time.Now())
	}
	n.ensureLinks(n.membership.live())
	if n.probe != nil {
		n.wg.Add(1)
		go n.run(pc)
	}
	return n, nil
}

// SelfID implements immunity.ClusterBinding.
func (n *Node) SelfID() string { return n.self }

// Members implements immunity.ClusterBinding: the live ring members.
func (n *Node) Members() []string { return n.ring.Load().Members() }

// Owns implements immunity.ClusterBinding. Pure: called under
// Exchange.mu, it only consults the atomically published ring.
func (n *Node) Owns(key string) bool { return n.ring.Load().Owner(key) == n.self }

// OwnerOf implements immunity.ClusterBinding. Pure, like Owns.
func (n *Node) OwnerOf(key string) string { return n.ring.Load().Owner(key) }

// Epoch implements immunity.ClusterBinding: the membership epoch, the
// fencing token stamped on outgoing arm-broadcasts. Pure (leaf lock).
func (n *Node) Epoch() uint64 { return n.membership.epochNow() }

// MemberSnapshot implements immunity.ClusterBinding: the full
// membership at its epoch, pushed to freshly handshaken peers. Pure
// (leaf lock).
func (n *Node) MemberSnapshot() wire.MemberUpdate { return n.membership.snapshot() }

// Ring returns the current ownership ring.
func (n *Node) Ring() *Ring { return n.ring.Load() }

// OwnerDeputy answers "who owns this signature key, and who takes over
// if that owner dies" under the current ring — the /status
// ?owner=<sig-key> lookup.
func (n *Node) OwnerDeputy(key string) (owner, deputy string) {
	r := n.ring.Load()
	return r.Owner(key), r.Deputy(key)
}

// ForwardReport implements immunity.ClusterBinding: it groups the
// signatures by owning hub and enqueues one forward-report per owner on
// that link's outbox, carrying the hop count so a report bouncing
// between hubs with disagreeing rings dies out instead of looping.
// Enqueue-only — a partitioned owner's outbox holds the report until
// the link redials (the owner's dedup makes the at-least-once delivery
// safe).
func (n *Node) ForwardReport(tenant, device string, sigs []wire.Signature, keys []string, hops int) {
	r := n.ring.Load()
	groups := make(map[string][]wire.Signature)
	for i, ws := range sigs {
		owner := r.Owner(keys[i])
		if owner == n.self {
			continue // ring said foreign moments ago; a membership race, drop to local handling next report
		}
		groups[owner] = append(groups[owner], ws)
	}
	for owner, group := range groups {
		if l := n.linkFor(owner); l != nil {
			// The version is stamped at delivery time (Redialer.Send).
			// The tenant travels with the report so the owner counts it
			// in the right namespace (all sigs of one call share one
			// tenant: reports arrive per session, sessions are
			// tenant-bound).
			l.outbox.Enqueue(wire.Message{Type: wire.TypeForwardReport,
				Forward: &wire.ForwardReport{Hub: n.self, Device: device, Tenant: tenant,
					Sigs: group, Hops: hops}})
		}
	}
}

// Replicate implements immunity.ClusterBinding: it enqueues one owned
// pending record for the key's deputy, so the hub the ring would
// promote on this node's death already holds the confirmation set.
// Enqueue-only, at-least-once; the deputy merges by set union.
func (n *Node) Replicate(key string, rec wire.OwnedRecord) {
	dep := n.ring.Load().Deputy(key)
	if dep == "" || dep == n.self {
		return
	}
	l := n.linkFor(dep)
	if l == nil {
		return
	}
	n.metReplicas.Inc()
	l.outbox.Enqueue(wire.Message{Type: wire.TypeReplicate,
		Replicate: &wire.Replicate{Owner: n.self, Records: []wire.OwnedRecord{rec}}})
}

// ApplyMemberUpdate implements immunity.ClusterBinding: it merges a
// peer's membership snapshot and, if the map changed, runs the
// pipeline. Called without Exchange.mu held.
func (n *Node) ApplyMemberUpdate(u wire.MemberUpdate) {
	if n.membership.apply(u) {
		n.applyMembership()
		return
	}
	n.leaseOnEpoch() // a higher epoch adopted with an unchanged map
}

// PeerSeen implements immunity.ClusterBinding: a completed peer
// handshake admits an unknown hub (using the address it advertised) or
// revives a down-marked one. It also kicks a sessionless link to the
// hub out of its redial backoff: a restarted hub's own failure detector
// would otherwise condemn this node before the backoff (up to 2 s) lets
// the link answer its probes. Called without Exchange.mu held.
func (n *Node) PeerSeen(hub, addr string) {
	if n.membership.seen(hub, addr) {
		n.applyMembership()
	}
	if l := n.linkFor(hub); l != nil && !l.rd.Connected() {
		l.rd.Kick()
	}
}

// ensureLinks starts an outbound link to every live member that does
// not have one yet, resolving transports from the configured seed
// first and Config.Resolve second. Members it cannot reach (no
// transport, no resolver) are skipped — they may still dial us.
func (n *Node) ensureLinks(live []wire.MemberInfo) {
	seqs := n.hub.RemoteSeqs()
	var started []*link
	n.linksMu.Lock()
	if n.closed {
		n.linksMu.Unlock()
		return
	}
	for _, m := range live {
		if m.ID == n.self {
			continue
		}
		if _, ok := n.links[m.ID]; ok {
			continue
		}
		t := n.transports[m.ID]
		if t == nil && n.resolve != nil {
			t = n.resolve(m)
		}
		if t == nil {
			continue
		}
		l := newLink(n, m.ID, t, seqs[m.ID], n.reg)
		n.links[m.ID] = l
		started = append(started, l)
	}
	n.linksMu.Unlock()
	for _, l := range started {
		n.wg.Add(1)
		go func(l *link) {
			defer n.wg.Done()
			l.rd.Run()
		}(l)
	}
}

// linkFor returns the outbound link to id, nil if none exists.
func (n *Node) linkFor(id string) *link {
	n.linksMu.Lock()
	defer n.linksMu.Unlock()
	return n.links[id]
}

// broadcast enqueues m on every peer link's outbox.
func (n *Node) broadcast(m wire.Message) {
	n.linksMu.Lock()
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.linksMu.Unlock()
	for _, l := range links {
		l.outbox.Enqueue(m)
	}
}

// PeerStatus is one outbound peer link's observability snapshot (JSON
// tags serve the daemon's /status links section).
type PeerStatus struct {
	// ID is the peer hub's cluster id.
	ID string `json:"id"`
	// Connected reports a live, handshaken session.
	Connected bool `json:"connected"`
	// Down reports the membership's view: true once the failure
	// detector (or a merged snapshot) declared the member dead.
	Down bool `json:"down,omitempty"`
	// LastApplied is the peer's arming seq this node has applied up to.
	LastApplied uint64 `json:"last_applied"`
	// Dials counts dial attempts (successful or not) on this link; a
	// count growing much faster than Reconnects means the peer is being
	// hammered or is unreachable.
	Dials uint64 `json:"dials"`
	// Reconnects counts completed handshakes after the first.
	Reconnects uint64 `json:"reconnects"`
	// Applied and Duplicates count arm-broadcasts that newly armed a
	// signature here vs. replays that only advanced the cursor.
	Applied    uint64 `json:"applied"`
	Duplicates uint64 `json:"duplicates"`
	// PendingForwards is the outbox depth (reports waiting for the link).
	PendingForwards int `json:"pending_forwards"`
}

// Status snapshots the node's peer links, sorted by peer id.
func (n *Node) Status() []PeerStatus {
	n.linksMu.Lock()
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.linksMu.Unlock()
	sort.Slice(links, func(i, j int) bool { return links[i].peerID < links[j].peerID })
	out := make([]PeerStatus, 0, len(links))
	for _, l := range links {
		l.mu.Lock()
		out = append(out, PeerStatus{
			ID:              l.peerID,
			Connected:       l.rd.Connected(),
			Down:            !n.membership.isUp(l.peerID),
			LastApplied:     l.lastApplied,
			Dials:           l.rd.Dials(),
			Reconnects:      l.rd.Reconnects(),
			Applied:         l.applied.Value(),
			Duplicates:      l.duplicates.Value(),
			PendingForwards: l.outbox.Pending(),
		})
		l.mu.Unlock()
	}
	return out
}

// Close tears the node down: every link's session closes, outboxes
// drain what a live session can still take, and the link goroutines
// exit. The hub itself is left to its owner. Idempotent.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.closeCh)
		n.linksMu.Lock()
		n.closed = true
		links := make([]*link, 0, len(n.links))
		for _, l := range n.links {
			links = append(links, l)
		}
		n.linksMu.Unlock()
		for _, l := range links {
			l.close()
		}
		n.wg.Wait()
	})
}

// link is one outbound peer connection: this node dialing one remote
// hub. The session machine (immunity.Redialer) owns the handshake, the
// redial loop and the send path; the link owns the resume cursor — as
// peerAttempt, its policy half of each dial — and the forward outbox.
type link struct {
	node   *Node
	peerID string
	rd     *immunity.Redialer
	outbox *immunity.Queue[wire.Message]

	mu          sync.Mutex
	gen         string // peer hub incarnation, from its ack
	lastApplied uint64
	// applied and duplicates count arm-broadcasts that newly armed a
	// signature here vs. replays that only advanced the cursor.
	applied    *metrics.Counter
	duplicates *metrics.Counter
	// owed is the peer's newest lease request this node granted while
	// the link had no session to carry the grant (Node.grantLease).
	owed *wire.Lease

	metForwards *metrics.Counter
}

func newLink(n *Node, peerID string, t immunity.Transport, resumeSeq uint64, reg *metrics.Registry) *link {
	l := &link{node: n, peerID: peerID, lastApplied: resumeSeq}
	l.rd = immunity.NewRedialer(immunity.RedialConfig{
		Transport: t,
		Begin:     func() immunity.Attempt { return &peerAttempt{l: l} },
		Dials: reg.CounterVec("immunity_cluster_peer_dials_total",
			"Dial attempts per peer link (first dial included).", "peer").With(peerID),
		Reconnects: reg.CounterVec("immunity_cluster_peer_reconnects_total",
			"Completed peer handshakes after the first.", "peer").With(peerID),
		Connected: reg.GaugeVec("immunity_cluster_peer_connected",
			"Live handshaken outbound sessions to the peer.", "peer").With(peerID),
	})
	l.applied = reg.CounterVec("immunity_cluster_applied_total",
		"Arm-broadcasts from the peer that newly armed a signature here.", "peer").With(peerID)
	l.duplicates = reg.CounterVec("immunity_cluster_duplicates_total",
		"Arm-broadcast replays from the peer (cursor advances only).", "peer").With(peerID)
	l.metForwards = reg.CounterVec("immunity_cluster_peer_forwards_total",
		"Forward-report messages delivered to the peer.", "peer").With(peerID)
	l.outbox = immunity.NewQueue(immunity.QueueConfig[wire.Message]{
		Deliver:      l.deliver,
		RetryOnError: true,
		// A partition longer than the cap's worth of traffic spills the
		// oldest messages rather than growing without bound; the spill is
		// safe for the same reason redelivery is (receiver dedup + the
		// device tier re-reporting its full history on reconnect).
		Cap:    forwardOutboxCap,
		OnDrop: func(wire.Message) { n.metForwardDropped.Inc() },
		// Per-peer forward-outbox lag: depth is what a partition is
		// holding back, in-flight what the drain has taken.
		Depth: reg.GaugeVec("immunity_cluster_forward_pending",
			"Forward-outbox items pending (queued + in flight) per peer.", "peer").With(peerID),
		InFlight: reg.GaugeVec("immunity_cluster_forward_inflight",
			"Forward-outbox items taken by the drain, not yet delivered.", "peer").With(peerID),
	})
	return l
}

// deliver sends one outbox message over the live session; with none (or
// a dead one) it errors, parking the outbox until the next accepted
// handshake calls Resume.
func (l *link) deliver(m wire.Message) error {
	err := l.rd.Send(m)
	if err == nil && m.Type == wire.TypeForwardReport {
		// Counted on delivery, not enqueue: the per-peer forward rate on
		// /metrics then reflects traffic that actually left, and a parked
		// outbox reads as the rate dropping to zero.
		l.metForwards.Inc()
	}
	return err
}

// errNoLink is sendDirect's error for a peer this node has no link to;
// like a down link's send error, the prober treats it as an immediate
// probe failure worth escalating.
var errNoLink = errors.New("cluster: no link to peer")

// grantLease answers a peer's lease request over this node's own link
// to it — the grant rule is the requester's epoch at least ours. A
// grant the link cannot carry, because its session is not up yet, is
// owed: it waits on the link (the newest request only) and Accepted
// pays it, judged again against the epoch of that moment, so a granter
// whose membership moved on meanwhile sends a refusal. A refusal is
// never owed.
func (n *Node) grantLease(req wire.Lease) {
	l := n.linkFor(req.From)
	if l == nil || l.answerLease(req) {
		return
	}
	l.mu.Lock()
	l.owed = &req
	l.mu.Unlock()
	if l.rd.Connected() {
		l.payOwed() // the session came up between the failed send and the debt
	}
}

// answerLease sends the verdict on req over the link and reports
// whether nothing is left owed: false only for a grant that could not
// be sent.
func (l *link) answerLease(req wire.Lease) bool {
	epoch := l.node.membership.epochNow()
	ok := req.Epoch >= epoch
	err := l.rd.Send(wire.Message{Type: wire.TypeLeaseAck,
		LeaseAck: &wire.LeaseAck{From: l.node.self, Epoch: epoch, Seq: req.Seq, OK: ok}})
	return err == nil || !ok
}

// payOwed sends the owed lease grant, if any. One that fails again
// stays owed unless a newer request replaced it.
func (l *link) payOwed() {
	l.mu.Lock()
	req := l.owed
	l.owed = nil
	l.mu.Unlock()
	if req == nil || l.answerLease(*req) {
		return
	}
	l.mu.Lock()
	if l.owed == nil {
		l.owed = req
	}
	l.mu.Unlock()
}

// sendDirect sends one probe/lease message on a peer's live session,
// bypassing the forward outbox: a parked outbox must never delay — or
// worse, replay after heal — a liveness or lease request whose meaning
// is "now". Never called with stepMu held: loopback transports deliver
// synchronously, so a send can nest the peer's (and, on a relayed ack,
// our own) handlers on this goroutine's stack.
func (n *Node) sendDirect(peer string, m wire.Message) error {
	l := n.linkFor(peer)
	if l == nil {
		return errNoLink
	}
	return l.rd.Send(m)
}

// close tears the link down (node Close only).
func (l *link) close() {
	l.rd.Close()
	l.outbox.Close()
}

// peerAttempt is the peer tier's policy half of one dial: the hello
// carries the last arming seq applied from the peer, and the seqs this
// session delivers stay quarantined here until the handshake accepts
// it. A condemned attempt (gen change, seq rollback) still installs
// what it receives — an antibody is never refused — but never reaches
// the cursor: a condemned replay racing the cursor reset could
// otherwise fast-forward past armings that were filtered against the
// stale seq and lose them for good. Fields are guarded by link.mu.
type peerAttempt struct {
	l         *link
	seq       uint64 // the resume seq the hello carried
	maxSeq    uint64 // highest owner seq received on this session
	fencedLow uint64 // lowest fenced owner seq on this session (0 = none)
}

// cursor is the seq this attempt may advance the durable cursor to:
// the highest seq received, floored below the lowest fenced seq. A
// replay burst that races a partition heal is fenced until the sender
// is merged back into the ring; letting a later accepted arm carry the
// cursor past the refused prefix would mask those armings forever —
// the floor keeps them inside the next handshake's replay window.
func (a *peerAttempt) cursor() uint64 {
	if a.fencedLow > 0 && a.fencedLow-1 < a.maxSeq {
		return a.fencedLow - 1
	}
	return a.maxSeq
}

// Hello implements immunity.Attempt. A successful transport connect is
// the liveness proof: revive the member BEFORE the hello goes out,
// because the hello's answer is a replay burst that may be delivered
// synchronously — were the peer still down-marked, every replayed arm
// would be fenced against the pre-revival ring and the burst lost until
// the next handshake. (Should the handshake still fail, the prober
// re-condemns a member this connect wrongly revived; membership
// mistakes are safe by construction — see the fencing rule.) There is
// deliberately no re-check after the handshake: killing a live session
// to force a re-merge would also kill the probe path that keeps the
// revived member alive — a revive/condemn livelock with every link
// down.
func (a *peerAttempt) Hello() wire.Message {
	l := a.l
	if l.node.membership.seen(l.peerID, "") {
		l.node.applyMembership()
	}
	l.mu.Lock()
	a.seq = l.lastApplied
	l.mu.Unlock()
	// The advertised address lets the answerer admit us into its
	// membership and dial back.
	return wire.Message{V: wire.Version, Type: wire.TypePeerHello,
		PeerHello: &wire.PeerHello{Hub: l.node.self, Addr: l.node.selfAddr,
			Seq: a.seq, MinV: wire.Version, MaxV: wire.Version}}
}

// Verdict implements immunity.Attempt.
func (a *peerAttempt) Verdict(ack wire.Ack) error {
	l := a.l
	l.mu.Lock()
	defer l.mu.Unlock()
	genChanged := l.gen != "" && ack.Gen != l.gen
	l.gen = ack.Gen
	if genChanged || ack.Epoch < a.seq {
		// The peer is a new incarnation (or its arming seq rolled back):
		// our cursor is fiction and this session's replay was filtered
		// against it. Restart the subscription from zero — InstallRemote
		// dedupes the re-replay.
		l.lastApplied = 0
		return fmt.Errorf("peer %s restarted (gen %q, seq %d vs our %d): resubscribing from 0",
			l.peerID, ack.Gen, ack.Epoch, a.seq)
	}
	return nil
}

// Accepted implements immunity.Attempt. Replay that arrived before the
// handshake settled was filtered against the seq we sent, so on an
// accepted session it is a safe cursor advance — up to the fenced
// floor, which marks armings this session failed to install and the
// next replay must carry again. The session is also the first that can
// carry lease traffic to the peer: pay the grant owed to it, and ask it
// for one if this hub holds no lease.
func (a *peerAttempt) Accepted() {
	l := a.l
	l.mu.Lock()
	if a.cursor() > l.lastApplied {
		l.lastApplied = a.cursor()
	}
	l.mu.Unlock()
	l.outbox.Resume()
	l.payOwed()
	l.node.leaseContact(l.peerID)
}

// Recv implements immunity.Attempt (transport goroutine, no link lock
// held while calling into the local hub).
func (a *peerAttempt) Recv(m wire.Message) {
	l := a.l
	switch m.Type {
	case wire.TypeArmBroadcast:
		applied, err := l.node.hub.InstallRemote(*m.Arm)
		if err != nil {
			// Malformed or fenced: never kill the link over one frame,
			// and never advance the cursor — a fenced stale owner's seq
			// must not mask the armings the promoted owner will send
			// under the same numbers. A fenced arm from the peer itself
			// additionally floors the cursor below its seq: after a
			// partition heals, the reconnect replay can race the
			// membership merge that puts the sender back in the ring,
			// and every arm refused in that window must stay inside the
			// next handshake's replay.
			if errors.Is(err, immunity.ErrFenced) && m.Arm.Owner == l.peerID {
				l.mu.Lock()
				if a.fencedLow == 0 || m.Arm.Seq < a.fencedLow {
					a.fencedLow = m.Arm.Seq
				}
				if l.rd.Live(a) && l.lastApplied >= m.Arm.Seq {
					l.lastApplied = m.Arm.Seq - 1
				}
				l.mu.Unlock()
			}
			return
		}
		l.mu.Lock()
		if m.Arm.Owner == l.peerID && m.Arm.Seq > a.maxSeq {
			a.maxSeq = m.Arm.Seq
			// Only the accepted session moves the durable cursor; replay
			// that raced the handshake is merged in by Accepted.
			if l.rd.Live(a) && a.cursor() > l.lastApplied {
				l.lastApplied = a.cursor()
			}
		}
		if applied {
			l.applied.Inc()
		} else {
			l.duplicates.Inc()
		}
		l.mu.Unlock()
	case wire.TypeForwardConfirm:
		l.node.hub.DeliverConfirm(m.FwdConfirm.Tenant, m.FwdConfirm.Device, m.FwdConfirm.Confirm)
	case wire.TypeMemberUpdate:
		// The answerer's membership snapshot (pushed at handshake and
		// relayed on changes): merge, and run the pipeline if it moved
		// us.
		l.node.ApplyMemberUpdate(*m.Member)
	}
}
