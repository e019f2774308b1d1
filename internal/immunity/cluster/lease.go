package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// leaseManager runs the quorum lease that gates fresh arming decisions
// (see the package comment's trust chain). It counts grants in rounds:
// a round opens every TTL/3, asks every live peer for a grant
// (wire.TypeLease, answered by wire.TypeLeaseAck), and the lease is
// held for one TTL from the round's start once a strict majority has
// granted. The majority is counted over every member this hub has ever
// known — down members included — so a minority partition fragment can
// never assemble one: it marks the other side down, stops hearing
// acks, and its lease expires within one TTL, at which point the hub
// parks fresh arming (MayArm turns false) until the healed cluster
// grants the lease back (Exchange.LeaseAcquired).
//
// Acquisition is event-driven, renewal is not. While no lease is held
// the hub also asks in the current round — opening none, so grants in
// flight stay countable — whenever a grant could newly succeed:
//
//   - contact: an outbound peer link's handshake is accepted
//     (peerAttempt.Accepted), so that peer is asked at once;
//   - owed grant: a granter answers over its own outbound link, which
//     may come up later than the requester's; the grant waits on that
//     link and goes out from its Accepted (Node.grantLease);
//   - epoch advance: the membership epoch moved past the one last asked
//     with (onEpoch) — after a heal, the first ask was refused because
//     the minority had not merged the partition-era membership yet.
//
// A booted, restarted or healed hub therefore arms about one round trip
// after it reaches a majority, not one tick later. A held lease renews
// on the tick alone.
//
// Grant rule (the receive side lives in Node.grantLease): a granter
// acks a requester only when the requester's membership epoch is at
// least its own — a returning stale owner must merge the
// partition-era membership before it may arm again. An owed grant is
// judged again when it is sent. There is no per-granter exclusivity:
// the lease proves connectivity to a majority, not uniqueness;
// uniqueness of arming per key is the ring's job, and the lease's job
// is to keep only one partition side able to exercise it.
type leaseManager struct {
	n   *Node
	ttl time.Duration

	// held is read lock-free by MayArm on every arming decision.
	held atomic.Bool

	mu         sync.Mutex
	round      uint64
	roundStart time.Time
	acks       map[string]bool
	// prevAcks/prevStart keep the previous round countable: a grant
	// that crossed the wire slower than one renewal tick still proves
	// a majority as of that round's solicit time (see ack).
	prevAcks  map[string]bool
	prevStart time.Time
	expiry    time.Time
	// epoch is the membership epoch the last ask of every live peer
	// carried; onEpoch asks again once the membership moves past it.
	epoch uint64

	acquired atomic.Uint64
	lost     atomic.Uint64

	metHeld     *metrics.Gauge
	metAcquired *metrics.Counter
	metLost     *metrics.Counter
	metRefused  *metrics.Counter
}

func newLeaseManager(n *Node, ttl time.Duration) *leaseManager {
	lm := &leaseManager{n: n, ttl: ttl}
	lm.metHeld = n.reg.Gauge("immunity_cluster_lease_held",
		"1 while this hub holds the quorum lease that permits fresh arming decisions.")
	lm.metAcquired = n.reg.Counter("immunity_cluster_lease_acquired_total",
		"Quorum-lease acquisitions (first grant and every re-acquisition after a loss).")
	lm.metLost = n.reg.Counter("immunity_cluster_lease_lost_total",
		"Quorum-lease expiries: the hub lost its majority (minority partition side) and parked fresh arming.")
	lm.metRefused = n.reg.Counter("immunity_cluster_lease_refused_total",
		"Lease grants refused by peers (requester's membership epoch behind the granter's).")
	return lm
}

// run renews the lease until the node closes. Three renewal rounds fit
// in one TTL, so a single dropped round never loses a held lease; and
// because ack counts the previous round too, only rounds whose grants
// never arrive at all (a real cut) burn down the TTL. New opens the
// first round before any link dials.
func (lm *leaseManager) run() {
	defer lm.n.wg.Done()
	tick := lm.ttl / 3
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-lm.n.closeCh:
			return
		case <-t.C:
		}
		lm.renew()
	}
}

// renew expires an overdue lease, opens a new round, and solicits
// grants from every live peer.
func (lm *leaseManager) renew() {
	now := time.Now()
	epoch := lm.n.membership.epochNow()
	lm.mu.Lock()
	lostNow := lm.held.Load() && now.After(lm.expiry)
	if lostNow {
		lm.held.Store(false)
	}
	lm.round++
	round := lm.round
	lm.prevAcks, lm.prevStart = lm.acks, lm.roundStart
	lm.roundStart = now
	lm.acks = make(map[string]bool)
	lm.epoch = epoch
	lm.mu.Unlock()
	if lostNow {
		lm.lost.Add(1)
		lm.metLost.Inc()
		lm.metHeld.Set(0)
	}
	lm.ask(round, epoch, lm.n.membership.live())
	// A single-member cluster (or one whose grants all arrived
	// synchronously over loopback) is its own majority: evaluate even
	// with zero acks this call.
	lm.ack("", round, true)
}

// contact asks peer for a grant in the current round when its link was
// just accepted and no lease is held.
func (lm *leaseManager) contact(peer string) {
	if lm == nil || lm.held.Load() {
		return
	}
	lm.mu.Lock()
	round := lm.round
	lm.mu.Unlock()
	lm.ask(round, lm.n.membership.epochNow(), []wire.MemberInfo{{ID: peer}})
}

// onEpoch asks every live peer again, in the current round, when the
// membership epoch advanced past the last ask while no lease is held:
// a granter refuses a requester whose epoch is behind its own, so a
// merge that caught this hub up may turn its refusals into grants.
func (lm *leaseManager) onEpoch() {
	if lm == nil || lm.held.Load() {
		return
	}
	epoch := lm.n.membership.epochNow()
	lm.mu.Lock()
	if epoch <= lm.epoch {
		lm.mu.Unlock()
		return
	}
	lm.epoch = epoch
	round := lm.round
	lm.mu.Unlock()
	lm.ask(round, epoch, lm.n.membership.live())
}

// ask sends round's lease request to every member of to but this hub.
// Sends happen with no lease lock held — a loopback peer's ack nests
// synchronously back into ack().
func (lm *leaseManager) ask(round, epoch uint64, to []wire.MemberInfo) {
	msg := wire.Message{Type: wire.TypeLease,
		Lease: &wire.Lease{From: lm.n.self, Epoch: epoch, Seq: round}}
	for _, m := range to {
		if m.ID != lm.n.self {
			// A failed send is a grant that never arrives; the round
			// simply counts without it.
			_ = lm.n.sendDirect(m.ID, msg)
		}
	}
}

// ack records one grant (or refusal) for round seq and, when the
// strict majority over all known members is reached, extends — or
// newly acquires — the lease. Grants for the immediately previous
// round still count: an ack slower than one renewal tick proves a
// majority as of that round's solicit time, so the lease extends from
// there instead of the evidence being discarded — without this, three
// consecutive slow (not lost) rounds cost a held lease under load.
// Safety is unchanged: a true minority fragment receives no acks at
// all, and any extension is bounded by the round's start + TTL — a
// start no later than any ask of that round, and so than any grant.
func (lm *leaseManager) ack(from string, seq uint64, ok bool) {
	if !ok {
		lm.metRefused.Inc()
		return
	}
	lm.mu.Lock()
	var acks map[string]bool
	var start time.Time
	switch seq {
	case lm.round:
		acks, start = lm.acks, lm.roundStart
	case lm.round - 1:
		acks, start = lm.prevAcks, lm.prevStart
	}
	if acks == nil {
		lm.mu.Unlock()
		return // older than the previous round: must not extend the lease
	}
	if from != "" {
		acks[from] = true
	}
	grants := 1 + len(acks) // self always grants
	acquired := false
	if grants > lm.n.membership.count()/2 {
		// Max-merge: a late previous-round majority must not retract an
		// expiry the current round already established.
		if exp := start.Add(lm.ttl); exp.After(lm.expiry) {
			lm.expiry = exp
		}
		if !lm.held.Load() {
			lm.held.Store(true)
			acquired = true
		}
	}
	lm.mu.Unlock()
	if acquired {
		lm.acquired.Add(1)
		lm.metAcquired.Inc()
		lm.metHeld.Set(1)
		lm.n.hub.LeaseAcquired()
	}
}

// MayArm implements the arming gate of immunity.ClusterBinding: with
// no lease configured (failure detection off, or Config.NoLease) every
// fresh arming decision is allowed — the pre-lease behavior — else
// only while the quorum lease is held. Pure (one atomic load): called
// under Exchange.mu on every threshold crossing.
func (n *Node) MayArm() bool {
	return n.lease == nil || n.lease.held.Load()
}

// LeaseStats reports the quorum lease's state: whether it is held now
// and how many times it was acquired and lost. With no lease
// configured, held is true (arming is never gated) and the counts are
// zero.
func (n *Node) LeaseStats() (held bool, acquired, lost uint64) {
	if n.lease == nil {
		return true, 0, 0
	}
	return n.lease.held.Load(), n.lease.acquired.Load(), n.lease.lost.Load()
}
