package core

import (
	"sync"
	"sync/atomic"
)

// Position is the interned representation of an outer call stack: the
// program location of a monitorenter statement (struct Position in the
// paper). Exactly one Position object exists per distinct call-stack key in
// a given Core (one per process), allocated by the positions intern table
// at first use — "Dimmunix allocates a unique Position object for each call
// stack of a synchronization operation" (§4).
//
// Each Position carries the set of threads that currently hold, or are
// allowed by Dimmunix to wait for, locks acquired at this location. That
// set drives the signature-instantiation check. Following §4, the set is a
// linked queue whose entries are recycled through a second, free queue to
// minimize allocations.
//
// Mutable fields are guarded by the owning Core's engine lock (held
// exclusively); inHistory and exposed are atomic so the fast path can read
// them before it takes the lock, and a shared section edits the queue
// under mu (see the lock-order comment in core.go).
type Position struct {
	// key is the canonical encoding of stack (CallStack.Key).
	key string
	// stack is the interned outer call stack, truncated to the configured
	// outer depth. Owned by the Position (cloned at intern time).
	stack CallStack
	// sigs is the position→candidate-signature index: the history
	// signatures whose outer positions include this position, maintained
	// at install time. Avoidance at this position only examines these.
	sigs []*Signature
	// watchers heads the list, linked through Signature.nextWatcher, of
	// the deadlock signatures whose watched slot is at this position (the
	// watched-slot index, avoid.go). Non-empty only while the queue is
	// empty.
	watchers *Signature
	// queue holds one entry per (thread, acquisition) that is currently
	// holding or approved to wait at this position. The paper's main
	// queue, maintained lazily: only while the position is in-history (the
	// only time matching consults it); rebuilt from RAG state when the
	// position first becomes named by a signature.
	queue entryList
	// free is the recycling list for queue entries. The paper's second
	// queue: "whenever a thread t needs to be added to the main queue and
	// the second queue is non-empty, Dimmunix pops an element from the
	// second queue" (§4).
	free entryList
	// mu is a leaf lock: a shared section takes it to add or remove its
	// entry, ordering it against the other shared sections at this
	// position. The exclusive engine lock excludes every shared section,
	// so exclusive code reads and edits the queue without it.
	mu sync.Mutex
	// inHistory is true when at least one history signature contains this
	// position; only then can an acquisition here participate in an
	// instantiation, and only then is the queue maintained. Set (never
	// cleared) at signature install time, under the exclusive engine
	// lock.
	inHistory atomic.Bool
	// exposed counts the deadlock signatures naming this position that
	// watch it or watch nothing. At zero, no signature here can be
	// instantiated by a request here, and an uncontended enter may be
	// approved under the shared engine lock. Written under the exclusive
	// lock only.
	exposed atomic.Int32
	// candidates is how many of sigs are deadlock signatures: the count
	// an avoidance check here adds to Stats.AvoidanceChecks.
	candidates int32
}

// Key returns the canonical string encoding of the position's call stack.
func (p *Position) Key() string { return p.key }

// Stack returns the interned outer call stack. The caller must not modify
// the returned slice.
func (p *Position) Stack() CallStack { return p.stack }

// InHistory reports whether any known signature contains this position.
func (p *Position) InHistory() bool { return p.inHistory.Load() }

// entry is a node in a Position's thread queue. One entry exists per
// in-flight or completed acquisition at the position; a thread holding two
// locks acquired at the same position owns two entries there.
type entry struct {
	thread     *Node
	next, prev *entry
}

// entryList is an intrusive doubly linked list of entries with O(1)
// insertion and removal. The zero value is an empty list.
type entryList struct {
	head, tail *entry
	size       int
}

// pushBack appends e to the list.
func (l *entryList) pushBack(e *entry) {
	e.next = nil
	e.prev = l.tail
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.size++
}

// remove unlinks e from the list. e must be an element of the list.
func (l *entryList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.next, e.prev = nil, nil
	l.size--
}

// popFront removes and returns the first entry, or nil if the list is
// empty.
func (l *entryList) popFront() *entry {
	e := l.head
	if e == nil {
		return nil
	}
	l.remove(e)
	return e
}

// len returns the number of entries in the list.
func (l *entryList) len() int { return l.size }

// takeEntry obtains a queue entry for t at position p, recycling from the
// free list when possible (the §4 allocation-avoidance scheme). When the
// Core is configured with queue reuse disabled (ablation A2), entries are
// always freshly allocated.
func (p *Position) takeEntry(t *Node, reuse bool) *entry {
	if reuse {
		if e := p.free.popFront(); e != nil {
			e.thread = t
			p.queue.pushBack(e)
			return e
		}
	}
	e := &entry{thread: t}
	p.queue.pushBack(e)
	return e
}

// releaseEntry removes e from the main queue and recycles it onto the free
// list (or drops it when reuse is disabled).
func (p *Position) releaseEntry(e *entry, reuse bool) {
	p.queue.remove(e)
	e.thread = nil
	if reuse {
		p.free.pushBack(e)
	}
}

// distinctThreads appends to dst the distinct threads present in the
// position's queue and returns the extended slice. A thread holding several
// locks acquired here appears once: a single thread cannot deadlock with
// itself, so instantiation matching is over distinct threads.
func (p *Position) distinctThreads(dst []*Node) []*Node {
	for e := p.queue.head; e != nil; e = e.next {
		seen := false
		for _, t := range dst {
			if t == e.thread {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, e.thread)
		}
	}
	return dst
}

// occupants returns the number of entries (not distinct threads) currently
// in the queue. Used by stats and tests.
func (p *Position) occupants() int { return p.queue.len() }
