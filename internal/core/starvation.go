package core

import "sync/atomic"

// Starvation (avoidance-induced deadlock) handling. A yield suspends a
// thread until the matched instantiation dissolves; if the threads that
// would dissolve it are themselves (transitively) blocked on the yielder,
// nothing can make progress — an avoidance-induced deadlock (§2.2). The
// core detects these as cycles through yield edges in the waits-for
// relation:
//
//   - a yielding thread waits for each witness of its yield,
//   - a thread approved for a lock waits for the lock's current owner.
//
// Edges only appear on yields, approvals, and ownership transfers, so the
// scan runs at exactly those points: avoidLocked checks before suspending,
// and Request/Acquired re-scan all yielders after adding edges. The fast
// path adds edges too, but only while nothing yields, and a cycle through
// a yield edge needs a yielder. Every other transition (release, abort,
// signature install) only removes edges or adds none, so a cycle is seen
// the moment its last edge appears, and a background scanner would find
// nothing these scan points have not. A yield whose witness never
// releases (it runs forever in code the RAG does not see) is not a cycle
// and stays suspended, as in the paper.
//
// When a cycle is found, the starvation signature (the yield's position
// pattern) is saved — arming the yield suppression in avoid.go — and the
// yielding thread is force-resumed, matching the paper: "when starvation
// occurs, Dimmunix saves the signature of the avoidance-induced deadlock,
// and resumes the suspended thread."

// wouldStarveLocked reports whether suspending t with the given witnesses
// would complete a waits-for cycle, i.e. some witness already transitively
// waits for t. Caller must hold c.mu.
func (c *Core) wouldStarveLocked(t *Node, witnesses map[*Node]*Position) bool {
	visited := make(map[*Node]bool, 8)
	for w := range witnesses {
		if c.reachesLocked(w, t, visited) {
			return true
		}
	}
	return false
}

// reachesLocked performs a DFS over the thread waits-for relation, asking
// whether `from` transitively waits for `target`.
func (c *Core) reachesLocked(from, target *Node, visited map[*Node]bool) bool {
	if from == target {
		return true
	}
	if visited[from] {
		return false
	}
	visited[from] = true
	if from.yield != nil {
		for w := range from.yield.witnesses {
			if c.reachesLocked(w, target, visited) {
				return true
			}
		}
	}
	if from.reqLock != nil {
		if owner := from.reqLock.holder(); owner != nil {
			if c.reachesLocked(owner, target, visited) {
				return true
			}
		}
	}
	return false
}

// scanYieldersLocked re-checks every suspended thread for a completed
// starvation cycle and force-resumes the starved ones. Called after new
// waits-for edges appear (approval, acquisition). Cheap when nothing
// yields: a single map-length check.
func (c *Core) scanYieldersLocked() {
	if len(c.yielders) == 0 {
		return
	}
	for y, rec := range c.yielders {
		if y.forceResume {
			continue
		}
		if c.wouldStarveLocked(y, rec.witnesses) {
			c.recordStarvationLocked(y, rec.pos, rec.witnesses)
			c.forceResumeLocked(y, rec)
		}
	}
}

// forceResumeLocked wakes a yielding thread unconditionally. The thread's
// avoidance loop observes forceResume and proceeds.
func (c *Core) forceResumeLocked(y *Node, rec *yieldRecord) {
	y.forceResume = true
	atomic.AddUint64(&c.stats.ForcedResumes, 1)
	rec.sig.cond.Broadcast()
}

// recordStarvationLocked builds, installs and persists the signature of an
// avoidance-induced deadlock: the yielding thread's requesting position
// plus the witness positions — exactly the pattern avoid.go suppresses on
// future requests. Caller must hold c.mu.
func (c *Core) recordStarvationLocked(t *Node, pos *Position, witnesses map[*Node]*Position) {
	pairs := make([]SigPair, 0, len(witnesses)+1)
	// A witness may be running, with no stack to capture: its inner
	// stack is then its witness position's, as for a detection requester.
	pairs = append(pairs, SigPair{Outer: pos.stack.Clone(), Inner: t.innerStack(pos.stack)})
	for _, w := range sortedWitnesses(witnesses) {
		wpos := witnesses[w].stack
		pairs = append(pairs, SigPair{Outer: wpos.Clone(), Inner: w.innerStack(wpos)})
	}
	sig := &Signature{Kind: StarvationSig, Pairs: pairs}
	installed, fresh, err := c.installSignatureLocked(sig, true)
	if err != nil {
		atomic.AddUint64(&c.stats.Misuse, 1)
		return
	}
	atomic.AddUint64(&c.stats.Starvations, 1)
	if !fresh {
		atomic.AddUint64(&installed.hits, 1)
	}
	c.emit(Event{
		Kind:       EventStarvation,
		Sig:        installed.snapshot(),
		ThreadID:   t.id,
		ThreadName: t.name,
		Pos:        pos.key,
	})
}
