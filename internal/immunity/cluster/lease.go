package cluster

import (
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// leaseState is the quorum lease that gates fresh arming decisions
// (see the package comment's trust chain), as a plain value: no lock,
// no clock, no node. The node steps it under its decision lock with
// the time and the membership facts of the moment, then carries out
// what the step returned — the asks, the lost or acquired verdict —
// with the lock released (see the Node shell in failover.go).
//
// It counts grants in rounds: a round opens every TTL/3 (tick), asks
// every live peer for a grant (wire.TypeLease, answered by
// wire.TypeLeaseAck), and the lease is held for one TTL from the
// round's start once a strict majority has granted. The majority is
// counted over every member this hub has ever known — down members
// included — so a minority partition fragment can never assemble one:
// it marks the other side down, stops hearing acks, and its lease
// expires within one TTL, at which point the hub parks fresh arming
// (MayArm turns false) until the healed cluster grants the lease back
// (Exchange.LeaseAcquired).
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
type leaseState struct {
	self string
	ttl  time.Duration

	held       bool
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
}

func newLeaseState(self string, ttl time.Duration) *leaseState {
	return &leaseState{self: self, ttl: ttl}
}

// tick is one renewal round at now: it expires an overdue lease, opens
// a new round, and returns the ask for every live peer. Three rounds fit
// in one TTL, so a single dropped round never loses a held lease; and
// because ack counts the previous round too, only rounds whose grants
// never arrive at all (a real cut) burn down the TTL. A single-member
// cluster is its own majority and acquires here, with no ack at all.
func (ls *leaseState) tick(now time.Time, epoch uint64, members int) (ask wire.Lease, lost, acquired bool) {
	if ls.held && now.After(ls.expiry) {
		ls.held = false
		lost = true
	}
	ls.round++
	ls.prevAcks, ls.prevStart = ls.acks, ls.roundStart
	ls.acks, ls.roundStart = make(map[string]bool), now
	ls.epoch = epoch
	acquired = ls.ack(wire.LeaseAck{Seq: ls.round, OK: true}, members)
	return ls.ask(epoch), lost, acquired
}

func (ls *leaseState) ask(epoch uint64) wire.Lease {
	return wire.Lease{From: ls.self, Epoch: epoch, Seq: ls.round}
}

// contact returns the ask, in the current round, for a peer whose link
// was just accepted; ok is false while a lease is held.
func (ls *leaseState) contact(epoch uint64) (ask wire.Lease, ok bool) {
	return ls.ask(epoch), !ls.held
}

// onEpoch returns the ask for every live peer, in the current round,
// when the membership epoch advanced past the last ask while no lease
// is held: a granter refuses a requester whose epoch is behind its own,
// so a merge that caught this hub up may turn its refusals into grants.
func (ls *leaseState) onEpoch(epoch uint64) (ask wire.Lease, ok bool) {
	if ls.held || epoch <= ls.epoch {
		return wire.Lease{}, false
	}
	ls.epoch = epoch
	return ls.ask(epoch), true
}

// ack records one grant for round a.Seq and reports whether it newly
// acquired the lease: when the strict majority over all known members
// is reached, the lease extends — or is newly held — to the round's
// start + TTL. A refusal changes nothing. Grants for the immediately
// previous round still count: an ack slower than one renewal tick
// proves a majority as of that round's solicit time, so the lease
// extends from there instead of the evidence being discarded — without
// this, three consecutive slow (not lost) rounds cost a held lease
// under load. Safety is unchanged: a true minority fragment receives no
// acks at all, and any extension is bounded by the round's start + TTL
// — a start no later than any ask of that round, and so than any grant.
func (ls *leaseState) ack(a wire.LeaseAck, members int) (acquired bool) {
	var acks map[string]bool
	var start time.Time
	switch a.Seq {
	case ls.round:
		acks, start = ls.acks, ls.roundStart
	case ls.round - 1:
		acks, start = ls.prevAcks, ls.prevStart
	}
	if !a.OK || acks == nil {
		return false // older than the previous round: must not extend the lease
	}
	if a.From != "" {
		acks[a.From] = true
	}
	if 1+len(acks) <= members/2 { // self always grants
		return false
	}
	// Max-merge: a late previous-round majority must not retract an
	// expiry the current round already established.
	if exp := start.Add(ls.ttl); exp.After(ls.expiry) {
		ls.expiry = exp
	}
	if ls.held {
		return false
	}
	ls.held = true
	return true
}
