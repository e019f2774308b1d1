package core

import (
	"slices"
	"sort"
	"sync/atomic"
)

// Avoidance. Before a thread is allowed to wait for a lock at position
// pos, the core "pretends" the approval and checks whether any deadlock
// signature could then be instantiated: a signature with outer positions
// p1..pn is instantiable iff there exist *distinct* threads t1..tn that
// hold, or are allowed to wait for, locks at p1..pn (§2.2). While an
// instantiation is possible, the thread yields on the signature's
// condition variable; releases of locks held at in-history positions wake
// it to re-check.
//
// Starvation signatures recorded by starvation.go act as yield-suppression
// templates: if the pattern (requesting position + witness positions) of a
// prospective yield matches a starvation signature, the yield previously
// led to an avoidance-induced deadlock, so the thread proceeds instead —
// "Dimmunix will subsequently avoid entering the same starvation condition
// again" (§2.2).

// avoidLocked runs the avoidance loop for t requesting at pos. It returns
// whether the thread yielded at least once. Caller must hold c.mu
// exclusively; the lock is released while the thread is suspended on a
// signature's condition variable. The yielder count mirrors the yielders
// map atomically so the fast path can gate on "nothing yields" without
// the engine lock.
func (c *Core) avoidLocked(t *Node, pos *Position) (yielded bool, err error) {
	for {
		if c.killed.Load() {
			return yielded, ErrCoreClosed
		}
		if t.forceResume {
			return yielded, nil
		}
		sig, witnesses := c.findInstantiationLocked(t, pos)
		if sig == nil {
			return yielded, nil
		}
		atomic.AddUint64(&c.stats.InstantiationsFound, 1)
		atomic.AddUint64(&sig.matches, 1)

		if c.yieldSuppressedLocked(pos, witnesses) {
			atomic.AddUint64(&c.stats.SuppressedYields, 1)
			return yielded, nil
		}
		// Would this yield complete an avoidance-induced deadlock right
		// away? If so, record the starvation signature and proceed.
		if c.wouldStarveLocked(t, witnesses) {
			c.recordStarvationLocked(t, pos, witnesses)
			return yielded, nil
		}

		yielded = true
		rec := &yieldRecord{sig: sig, witnesses: witnesses, pos: pos}
		t.yield = rec
		c.yielders[t] = rec
		c.yielderCount.Add(1)
		atomic.AddUint64(&c.stats.Yields, 1)
		close(c.yieldCh)
		c.yieldCh = make(chan struct{})
		c.emit(Event{
			Kind:       EventYield,
			Sig:        sig.snapshot(),
			ThreadID:   t.id,
			ThreadName: t.name,
			Pos:        pos.key,
		})
		sig.cond.Wait()
		t.yield = nil
		delete(c.yielders, t)
		c.yielderCount.Add(-1)
	}
}

// Yielded returns how many times avoidance has suspended a thread so far
// and a channel that is closed at the next such suspension. Both are
// replaced together under the exclusive engine lock and read here under
// the shared one, so a caller that read count n and waits on the channel
// misses no yield after the n-th. The fast path never touches either.
func (c *Core) Yielded() (count uint64, next <-chan struct{}) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return atomic.LoadUint64(&c.stats.Yields), c.yieldCh
}

// findInstantiationLocked searches the deadlock signatures containing pos
// for one that would be instantiable if t were allowed to wait at pos. It
// returns the first such signature and the witness assignment (matched
// thread → matched position, excluding t), or (nil, nil).
//
// Only signatures containing pos need checking: approvals are the only
// transitions that can create an instantiation, and the core maintains the
// invariant that no instantiation exists after each approval, so a new one
// must involve the newly pretended (t, pos).
//
// The watched-slot index settles most of them without the matcher: a
// signature watching an empty slot at another position is skipped, and
// when none is exposed at pos the walk is skipped too. Every candidate
// still counts in AvoidanceChecks. Both engines run this one function, so
// the index is part of the serial reference too.
func (c *Core) findInstantiationLocked(t *Node, pos *Position) (*Signature, map[*Node]*Position) {
	if pos.exposed.Load() == 0 {
		atomic.AddUint64(&c.stats.AvoidanceChecks, uint64(pos.candidates))
		return nil, nil
	}
	var (
		found     *Signature
		witnesses map[*Node]*Position
		examined  uint64
	)
	for _, sig := range pos.sigs {
		if sig.Kind != DeadlockSig {
			continue
		}
		examined++
		if sig.watchesElsewhere(pos) {
			continue
		}
		// Exposed at pos: look for an empty slot elsewhere before paying
		// for the matcher (the lazy half of the index).
		if w := sig.emptySlot(pos); w != sig.watch {
			sig.unwatchLocked()
			sig.watchLocked(w)
			if sig.watchesElsewhere(pos) {
				continue
			}
		}
		if assigned := c.matchSignatureLocked(sig, t, pos); assigned != nil {
			// A successful match is rare (it precedes a yield); only then
			// materialize the witness map.
			witnesses = make(map[*Node]*Position, len(assigned))
			for i, th := range assigned {
				if th != nil && th != t {
					witnesses[th] = sig.slots[i]
				}
			}
			found = sig
			break
		}
	}
	atomic.AddUint64(&c.stats.AvoidanceChecks, examined)
	return found, witnesses
}

// Watched-slot index. An instantiation needs a distinct thread in every
// slot of a signature, and matchSlot draws a slot's thread from exactly
// two places: the slot position's queue, or the pretended requester, which
// it offers only to slots at the requested position. A slot whose queue is
// empty and whose position is not the requested one therefore has no
// candidate at all, and its signature cannot be instantiated. Like a
// watched literal in a SAT solver, each deadlock signature keeps one such
// slot in view (Signature.watch):
//
//   - A watch is always on a slot whose position's queue is empty. A
//     queue's empty→nonempty step (takeEntryLocked) moves that position's
//     watchers to another empty slot, or to none; its nonempty→empty step
//     does nothing, and a signature that watches nothing picks a slot
//     lazily, the next time findInstantiationLocked examines it.
//   - Position.exposed counts the signatures naming the position that
//     watch it or watch nothing. At zero, every signature there watches an
//     empty slot elsewhere, so a request there instantiates nothing and
//     needs no walk. The skip is exact: it only drops matchings that would
//     fail.
//
// Only exclusive sections move a watch or change exposed. A shared section
// adds a queue entry only at a position with exposed == 0, which nothing
// watches, so it never fills a watched slot (core.go, "Fast-path safety
// argument").
//
// So an armed enter stays shared only while every signature at its site
// watches a slot elsewhere, that is, while no other position of such a
// signature has been entered since the last exclusive enter there. A
// signature whose other positions rarely run keeps its watch; one over two
// sites entered in turn moves its watch onto the site each enter leaves,
// so every enter at either site is exclusive, as without the index.

// watchesElsewhere reports whether s watches an empty slot at a position
// other than pos, which a request at pos cannot fill.
func (s *Signature) watchesElsewhere(pos *Position) bool {
	return s.watch >= 0 && s.slots[s.watch] != pos
}

// emptySlot returns the index of a slot whose position's queue is empty,
// preferring one at a position other than avoid, or -1 if every slot's
// queue is occupied. Caller must hold c.mu exclusively.
func (s *Signature) emptySlot(avoid *Position) int {
	w := -1
	for i, p := range s.slots {
		if p.queue.head == nil && (w < 0 || s.slots[w] == avoid) {
			w = i
		}
	}
	return w
}

// watchLocked makes s, which counts as exposed nowhere, watch slot w (-1:
// none) and counts it exposed where it is: at the watched position, or
// with no watch at every position it names. Caller must hold c.mu
// exclusively.
func (s *Signature) watchLocked(w int) {
	s.watch = w
	if w < 0 {
		s.exposeEach(1)
		return
	}
	p := s.slots[w]
	s.nextWatcher, p.watchers = p.watchers, s
	p.exposed.Add(1)
}

// unwatchLocked undoes watchLocked. Caller must hold c.mu exclusively.
func (s *Signature) unwatchLocked() {
	if s.watch < 0 {
		s.exposeEach(-1)
		return
	}
	p := s.slots[s.watch]
	for link := &p.watchers; *link != nil; link = &(*link).nextWatcher {
		if *link == s {
			*link = s.nextWatcher
			break
		}
	}
	s.nextWatcher = nil
	p.exposed.Add(-1)
	s.watch = -1
}

// exposeEach adds delta to the exposed count of every distinct position s
// names.
func (s *Signature) exposeEach(delta int32) {
	for i, p := range s.slots {
		if !slices.Contains(s.slots[:i], p) {
			p.exposed.Add(delta)
		}
	}
}

// moveWatchersLocked re-points every signature watching p, whose queue has
// just become non-empty, so none can pick p again. Caller must hold c.mu
// exclusively.
func moveWatchersLocked(p *Position) {
	s := p.watchers
	p.watchers = nil
	for s != nil {
		next := s.nextWatcher
		s.nextWatcher = nil
		p.exposed.Add(-1)
		s.watchLocked(s.emptySlot(nil))
		s = next
	}
}

// matchSignatureLocked attempts to find distinct threads occupying all of
// sig's outer positions, with t pretended present at pos. On success it
// returns the per-slot assignment (aliasing the core's scratch buffer, so
// a check allocates nothing); on failure nil. Signatures are tiny (2–4
// positions), so exact backtracking search is cheap.
func (c *Core) matchSignatureLocked(sig *Signature, t *Node, pos *Position) []*Node {
	n := len(sig.slots)
	if cap(c.matchScratch) < n {
		c.matchScratch = make([]*Node, n)
	}
	assigned := c.matchScratch[:n]
	for i := range assigned {
		assigned[i] = nil
	}
	if !matchSlot(sig.slots, 0, assigned, t, pos) {
		return nil
	}
	return assigned
}

// assignedContains reports whether th already fills one of the slots.
func assignedContains(assigned []*Node, th *Node) bool {
	for _, x := range assigned {
		if x == th {
			return true
		}
	}
	return false
}

// matchSlot assigns a distinct thread to slots[i:] given the threads
// already assigned. The pretended candidate t is tried first for slots at
// pos: any new instantiation must involve it.
func matchSlot(slots []*Position, i int, assigned []*Node, t *Node, pos *Position) bool {
	if i == len(slots) {
		return true
	}
	p := slots[i]
	if p == pos && !assignedContains(assigned, t) {
		assigned[i] = t
		if matchSlot(slots, i+1, assigned, t, pos) {
			return true
		}
		assigned[i] = nil
	}
	for e := p.queue.head; e != nil; e = e.next {
		th := e.thread
		if assignedContains(assigned, th) {
			continue
		}
		assigned[i] = th
		if matchSlot(slots, i+1, assigned, t, pos) {
			return true
		}
		assigned[i] = nil
	}
	return false
}

// yieldSuppressedLocked reports whether the prospective yield state —
// t requesting at pos with the given witnesses — matches a recorded
// starvation signature, in which case yielding is known to starve and the
// thread must proceed instead.
func (c *Core) yieldSuppressedLocked(pos *Position, witnesses map[*Node]*Position) bool {
	hasStarvation := false
	for _, s := range pos.sigs {
		if s.Kind == StarvationSig {
			hasStarvation = true
			break
		}
	}
	if !hasStarvation {
		return false
	}
	// Multiset of positions in the prospective yield state.
	state := make(map[*Position]int, len(witnesses)+1)
	state[pos]++
	for _, wpos := range witnesses {
		state[wpos]++
	}
	for _, s := range pos.sigs {
		if s.Kind != StarvationSig {
			continue
		}
		if slotsSubset(s.slots, state) {
			return true
		}
	}
	return false
}

// slotsSubset reports whether the multiset of slots is contained in state.
func slotsSubset(slots []*Position, state map[*Position]int) bool {
	remaining := make(map[*Position]int, len(state))
	for p, n := range state {
		remaining[p] = n
	}
	for _, p := range slots {
		if remaining[p] == 0 {
			return false
		}
		remaining[p]--
	}
	return true
}

// sortedWitnesses returns the witness map as a deterministic slice ordered
// by thread id, for stable signature construction.
func sortedWitnesses(witnesses map[*Node]*Position) []*Node {
	nodes := make([]*Node, 0, len(witnesses))
	for w := range witnesses {
		nodes = append(nodes, w)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	return nodes
}
