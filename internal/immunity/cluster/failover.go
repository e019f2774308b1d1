package cluster

import (
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// Failure detection and the quorum lease decide in probe.go and
// lease.go, as clock-free values; this file is their I/O shell. The
// node's one timer machine (tick) and the session-side entry points
// (HandleProbe, peerAttempt.Accepted → leaseContact, applyMembership →
// leaseOnEpoch) lock Node.stepMu, step, unlock, and only then do the
// work the step returned: send, mark down and run the pipeline below
// (the deputy-promotion trigger), tell the hub, count.

// applyMembership is the single pipeline behind every membership
// change (merge, admit, revive, mark-down, leave). Strictly ordered:
//
//  1. rebuild the live ring and publish it atomically — from here on
//     Owns/OwnerOf answer under the new membership;
//  2. ensure an outbound link to every live member we can reach (a
//     joiner learned from a handshake or a member-update gets dialed
//     here);
//  3. broadcast the membership snapshot on every link;
//  4. re-bind ownership in the hub — promote this hub's gained keys
//     (arming any replica already at threshold), demote its lost ones;
//  5. enqueue the demoted slices as handoff messages to their new
//     owners;
//  6. with applyMu released, ask every live peer for the quorum lease
//     again if none is held and the epoch moved (leaseOnEpoch).
//
// Membership first, local promotion second, handoff enqueue last:
// a report racing the pipeline is either forwarded under the old ring
// (the old owner demotes and hands the confirmation off) or the new
// one (the new owner merges it by set union) — both converge.
// Serialized by applyMu so two triggers cannot interleave their
// re-bind and handoff phases.
func (n *Node) applyMembership() {
	// Runs after applyMu is released: a loopback ask nests the peers'
	// handlers, and their grants this node's, on this stack.
	defer n.leaseOnEpoch()
	n.applyMu.Lock()
	defer n.applyMu.Unlock()

	live := n.membership.live()
	ids := make([]string, 0, len(live))
	for _, m := range live {
		ids = append(ids, m.ID)
	}
	if len(ids) == 0 {
		// A leaving sole member: nothing to hand off to, keep self so
		// the ring stays total.
		ids = []string{n.self}
	}
	ring, err := NewRing(ids...)
	if err != nil {
		return // unreachable: live() yields unique non-empty ids
	}
	n.ring.Store(ring)
	snap := n.membership.snapshot()
	n.metEpoch.Set(int64(snap.Epoch))

	n.ensureLinks(live)
	n.broadcast(wire.Message{Type: wire.TypeMemberUpdate, Member: &snap})

	handoffs := n.hub.RebindOwnership()
	for owner, recs := range handoffs {
		l := n.linkFor(owner)
		if l == nil {
			continue // unreachable new owner: the records stay local as shadow replicas
		}
		n.metHandoffs.Add(uint64(len(recs)))
		l.outbox.Enqueue(wire.Message{Type: wire.TypeHandoff,
			Handoff: &wire.Handoff{From: n.self, Records: recs}})
	}
}

// Leave removes this hub from the cluster gracefully: it marks itself
// down at a bumped epoch, broadcasts the new membership, demotes every
// owned signature, hands the slices off to their new owners, and
// waits (bounded) for the outboxes to drain. The node is still
// running afterwards — typically Close follows.
func (n *Node) Leave() {
	if !n.membership.leave() {
		return
	}
	n.applyMembership()
	drained := make(chan struct{})
	deadline := n.clk.Now().Add(5 * time.Second)
	n.clk.Start(func(now time.Time) (time.Time, bool) {
		select {
		case <-n.closeCh:
		default:
			if n.pendingOutbox() > 0 && now.Before(deadline) {
				return now.Add(10 * time.Millisecond), true
			}
		}
		close(drained)
		return time.Time{}, false
	}, n.closeCh)
	n.clk.Wait(drained)
}

// pendingOutbox sums the queued messages across all peer links.
func (n *Node) pendingOutbox() int {
	n.linksMu.Lock()
	defer n.linksMu.Unlock()
	total := 0
	for _, l := range n.links {
		total += l.outbox.Pending()
	}
	return total
}

// tick is the node's timer machine: a probe round every interval and a
// lease round every TTL/3, each when due (both if both), until Close.
func (n *Node) tick(now time.Time) (time.Time, bool) {
	select {
	case <-n.closeCh:
		close(n.tickDone)
		return time.Time{}, false
	default:
	}
	if !now.Before(n.probeDue) {
		n.probeTick(now)
		n.probeDue = now.Add(n.probe.interval)
	}
	if !now.Before(n.leaseDue) {
		n.leaseTick(now)
		n.leaseDue = now.Add(max(n.probe.leaseTTL/3, time.Millisecond))
	}
	if n.leaseDue.Before(n.probeDue) {
		return n.leaseDue, true
	}
	return n.probeDue, true
}

// peers returns the live members but this hub, sorted by id.
func (n *Node) peers() []string {
	var ids []string
	for _, m := range n.membership.live() {
		if m.ID != n.self {
			ids = append(ids, m.ID)
		}
	}
	return ids
}

// leaseTick opens a renewal round (New opens the first before any link
// dials) and asks every live peer.
func (n *Node) leaseTick(now time.Time) {
	epoch, members := n.membership.epochNow(), n.membership.count()
	n.stepMu.Lock()
	ask, lost, acquired := n.lease.tick(now, epoch, members)
	n.leaseHeld.Store(n.lease.held)
	n.stepMu.Unlock()
	if lost {
		n.metLeaseLost.Inc()
		n.metLeaseHeld.Set(0)
	}
	if acquired {
		n.leaseAcquired()
	}
	n.askLease(ask, n.peers()...)
}

// leaseContact asks peer, whose link was just accepted, for a grant in
// the current round when no lease is held.
func (n *Node) leaseContact(peer string) {
	if n.lease == nil {
		return
	}
	epoch := n.membership.epochNow()
	n.stepMu.Lock()
	ask, ok := n.lease.contact(epoch)
	n.stepMu.Unlock()
	if ok {
		n.askLease(ask, peer)
	}
}

// leaseOnEpoch asks every live peer again when the membership epoch
// moved past the last ask while no lease is held.
func (n *Node) leaseOnEpoch() {
	if n.lease == nil {
		return
	}
	epoch := n.membership.epochNow()
	n.stepMu.Lock()
	ask, ok := n.lease.onEpoch(epoch)
	n.stepMu.Unlock()
	if ok {
		n.askLease(ask, n.peers()...)
	}
}

// askLease sends ask to every peer in to. A failed send is a grant that
// never arrives; the round simply counts without it.
func (n *Node) askLease(ask wire.Lease, to ...string) {
	for _, id := range to {
		_ = n.sendDirect(id, wire.Message{Type: wire.TypeLease, Lease: &ask})
	}
}

// leaseAcquired tells the metrics and the hub, which re-scans its
// parked arming decisions, that a lease step acquired the lease.
func (n *Node) leaseAcquired() {
	n.metLeaseAcquired.Inc()
	n.metLeaseHeld.Set(1)
	n.hub.LeaseAcquired()
}

// probeTick runs one detector round and carries out its step.
func (n *Node) probeTick(now time.Time) {
	peers := n.peers()
	n.stepMu.Lock()
	st := n.probe.tick(now, peers)
	n.stepMu.Unlock()
	for _, pg := range st.indirect {
		n.sendIndirect(pg)
	}
	n.metSuspects.Add(uint64(st.suspects))
	for _, id := range st.down {
		if n.membership.markDown(id) {
			n.metFailovers.Inc()
			n.applyMembership()
		}
	}
	if st.ping == nil {
		return
	}
	n.metProbes.Inc()
	if n.sendDirect(st.ping.Target, wire.Message{Type: wire.TypePing, Ping: st.ping}) == nil {
		return // acked via HandleProbe, or swept into escalation
	}
	n.stepMu.Lock()
	n.probe.directFailed(now, st.ping.Seq)
	n.stepMu.Unlock()
	n.sendIndirect(*st.ping)
}

// sendIndirect fans the ping-req pg out to up to k reachable proxy
// members; their relayed acks come back under pg.Seq. With no reachable
// proxy the probe simply ages into suspicion.
func (n *Node) sendIndirect(pg wire.Ping) {
	n.metIndirect.Inc()
	sent := 0
	for _, id := range n.peers() {
		if sent >= n.probe.indirect {
			break
		}
		if id != pg.Target && n.sendDirect(id, wire.Message{Type: wire.TypePing, Ping: &pg}) == nil {
			sent++
		}
	}
}

// HandleProbe implements the probe/lease leg of
// immunity.ClusterBinding: the hub routes every ping/lease frame from
// a registered peer session here, outside Exchange.mu. Pings are
// always answered (even with the prober off — a peer running
// detection deserves the truth); lease grants are judged against our
// membership epoch whether or not we run a lease ourselves.
func (n *Node) HandleProbe(m wire.Message) {
	switch {
	case m.Type == wire.TypePing && m.Ping != nil:
		pg := *m.Ping
		if pg.Target == "" || pg.Target == n.self {
			n.alive(pg.From)
			n.sendDirect(pg.From, wire.Message{Type: wire.TypePingAck,
				PingAck: &wire.PingAck{From: n.self, Target: n.self, Seq: pg.Seq, OK: true}})
		} else if n.probe != nil {
			n.stepMu.Lock()
			fwd := n.probe.relay(n.clk.Now(), pg)
			n.stepMu.Unlock()
			// On success the target's ack relays from the PingAck case.
			n.sendDirect(fwd.Target, wire.Message{Type: wire.TypePing, Ping: &fwd})
		}
	case m.Type == wire.TypePingAck && m.PingAck != nil && n.probe != nil:
		n.stepMu.Lock()
		to, fwd := n.probe.ack(*m.PingAck)
		n.stepMu.Unlock()
		if to != "" {
			n.sendDirect(to, wire.Message{Type: wire.TypePingAck, PingAck: &fwd})
		}
	case m.Type == wire.TypeLease && m.Lease != nil:
		n.alive(m.Lease.From)
		n.grantLease(*m.Lease)
	case m.Type == wire.TypeLeaseAck && m.LeaseAck != nil && n.lease != nil:
		a := *m.LeaseAck
		if !a.OK {
			n.metLeaseRefused.Inc()
		}
		members := n.membership.count()
		n.stepMu.Lock()
		n.probe.alive(a.From) // a lease implies a prober
		acquired := n.lease.ack(a, members)
		if acquired {
			n.leaseHeld.Store(true)
		}
		n.stepMu.Unlock()
		if acquired {
			n.leaseAcquired()
		}
	}
}

// alive clears any suspicion of id, which authored a message.
func (n *Node) alive(id string) {
	if n.probe == nil {
		return
	}
	n.stepMu.Lock()
	n.probe.alive(id)
	n.stepMu.Unlock()
}

// MayArm implements the arming gate of immunity.ClusterBinding: with
// failure detection on, a fresh arming decision is allowed only while
// the quorum lease is held. Without detection ownership never moves,
// so only a key's owner ever takes one, and every decision is allowed.
// Pure (one atomic load): called under Exchange.mu on every threshold
// crossing.
func (n *Node) MayArm() bool {
	return n.lease == nil || n.leaseHeld.Load()
}

// LeaseStats reports the quorum lease's state: whether arming is
// permitted now (MayArm) and how many times the lease was acquired and
// lost, read off the immunity_cluster_lease_*_total counters. Without
// failure detection there is no lease: held is true and the counts are
// zero.
func (n *Node) LeaseStats() (held bool, acquired, lost uint64) {
	return n.MayArm(), n.metLeaseAcquired.Value(), n.metLeaseLost.Value()
}
