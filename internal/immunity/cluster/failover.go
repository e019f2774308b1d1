package cluster

import (
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// Failure detection lives in probe.go: the SWIM-style prober marks a
// member down only after direct and indirect probes through other
// members fail for the whole suspicion window, then drives the
// applyMembership pipeline below — the deputy-promotion trigger.

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
//     again if none is held and the epoch moved (leaseManager.onEpoch).
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
	defer n.lease.onEpoch()
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
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.pendingOutbox() == 0 {
			return
		}
		select {
		case <-n.closeCh:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
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
