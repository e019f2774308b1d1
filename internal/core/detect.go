package core

import "sync/atomic"

// Deadlock detection. Every time a thread t requests a lock, Dimmunix
// looks for RAG cycles containing t (§2.2). Because each thread requests
// at most one lock and each lock has at most one owner, the reachable part
// of the RAG from the requested lock is a simple chain, so detection is a
// pointer walk: requested lock → its owner → the lock that owner requests
// → that lock's owner → … A cycle exists iff the walk returns to t. An
// owner is read off the runtime's ownership word (Node.holder), which
// running threads may store to during the walk; a walk that reads a
// releasing owner, or a lock that has just gone free, reaches a dead end,
// since only running threads release and no cycle passes through one.

// cycleLink is one (lock, holder) hop of a detected cycle: holder owns
// lock (acquired at lock.acqPos) and is requesting the next link's lock.
type cycleLink struct {
	lock   *Node
	holder *Node
}

// findCycleLocked walks the RAG from lock l and returns the cycle's links
// if granting t→l would complete a deadlock, or nil. The walk also
// terminates (returning nil) if it runs into a pre-existing cycle that
// does not contain t: that deadlock was already detected when it formed,
// and t is merely queued behind it. Caller must hold c.mu exclusively.
func (c *Core) findCycleLocked(t, l *Node) []cycleLink {
	atomic.AddUint64(&c.stats.CycleWalks, 1)
	var links []cycleLink
	cur := l
	for {
		owner := cur.holder()
		if owner == nil {
			return nil // lock free (or being handed over): no cycle
		}
		links = append(links, cycleLink{lock: cur, holder: owner})
		if owner == t {
			return links
		}
		next := owner.reqLock
		if next == nil {
			return nil // owner is running: chain ends
		}
		// Guard against walking a pre-existing cycle that excludes t.
		for _, seen := range links {
			if seen.lock == next {
				return nil
			}
		}
		cur = next
	}
}

// handleDeadlockLocked records the signature of a detected deadlock. The
// request that completed the cycle is still approved: the deadlock
// manifests, as on an unmodified phone, but now with its signature saved.
// Caller must hold c.mu.
func (c *Core) handleDeadlockLocked(t *Node, pos *Position, cycle []cycleLink) {
	sig := c.buildSignatureLocked(t, pos, cycle)
	installed, fresh, err := c.installSignatureLocked(sig, true)
	if err != nil {
		// A signature built from live RAG state is always valid; failure
		// here indicates internal inconsistency. Count and continue: the
		// deadlock still manifests.
		atomic.AddUint64(&c.stats.Misuse, 1)
		return
	}
	ev := Event{
		ThreadID:   t.id,
		ThreadName: t.name,
		Pos:        pos.key,
		Sig:        installed.snapshot(),
	}
	if fresh {
		atomic.AddUint64(&c.stats.DeadlocksDetected, 1)
		ev.Kind = EventDeadlockDetected
	} else {
		atomic.AddUint64(&installed.hits, 1)
		atomic.AddUint64(&c.stats.DuplicateDeadlocks, 1)
		ev.Kind = EventDuplicateDeadlock
	}
	c.emit(ev)
}

// buildSignatureLocked extracts the deadlock signature from a cycle: one
// (outer, inner) pair per deadlocked thread, where outer is the call stack
// with which the thread acquired the lock it holds inside the cycle
// (lock.acqPos) and inner is the thread's call stack at the moment of the
// deadlock (§2.2). The requesting thread t's inner stack is its current
// one; pos supplies its outer-position fallback if the stack capture
// function is absent.
func (c *Core) buildSignatureLocked(t *Node, pos *Position, cycle []cycleLink) *Signature {
	pairs := make([]SigPair, 0, len(cycle))
	for _, link := range cycle {
		outer := CallStack{{Class: "unknown", Method: "unknown", Line: 0}}
		if link.lock.acqPos != nil {
			outer = link.lock.acqPos.stack.Clone()
		}
		// Without a stack capture function, the best inner approximation
		// for the requester is its requesting position.
		var fallback CallStack
		if link.holder == t {
			fallback = pos.stack
		}
		pairs = append(pairs, SigPair{Outer: outer, Inner: link.holder.innerStack(fallback)})
	}
	return &Signature{Kind: DeadlockSig, Pairs: pairs}
}
