// Package core implements Dimmunix deadlock immunity: deadlock detection
// over a resource allocation graph, deadlock signatures, a persistent
// signature history, and avoidance of execution flows that match previously
// recorded signatures.
//
// One Core instance exists per (simulated) process — platform-wide
// immunity runs Dimmunix in user space inside every application process
// (§3.1 of the paper), so state is process-local and isolated.
//
// The embedding runtime (a synchronization library, here internal/vm's
// Dalvik-like monitors) drives the core through three interception points,
// mirroring the paper's integration with lockMonitor/unlockMonitor:
//
//   - Request, before a monitorenter: runs detection, then blocks the
//     caller while any history signature could be instantiated.
//   - Acquired, right after a monitorenter succeeds.
//   - Release, right before a monitorexit.
//
// EnterFast stands in for Request and Acquired on an uncontended
// monitorenter that neither can matter to: it takes the runtime's lock
// through a non-blocking callback inside one shared engine section (see
// "Fast-path safety argument").
//
// # Concurrency architecture
//
// The paper serializes the three entry points under one global per-process
// mutex ("Dimmunix uses a global lock within these methods", §4). That is
// kept as the serial reference engine (Config.Serial). The default engine
// is sharded for low contention:
//
//   - The position intern table is lock-striped into posShardCount shards
//     keyed by call-stack hash (shard.go), so interning — done on every
//     monitorenter — never touches the engine lock.
//
//   - Each Position carries the index of signatures that name it
//     (Position.sigs, maintained at signature install time), an atomic
//     inHistory flag, and the watched-slot index's exposed count (avoid.go),
//     so "could this acquisition matter to avoidance?" is one atomic load.
//
//   - The engine lock c.mu is a RWMutex. Request, detection, avoidance
//     that has signatures to examine, signature installation and the
//     starvation scan hold it exclusively and see a frozen RAG, exactly
//     like the paper's global lock. Writer preference in RWMutex keeps them
//     from starving.
//
// Three sections hold c.mu shared and only publish RAG updates, each when
// it provably needs no detection, no avoidance walk and no starvation
// scan:
//
//   - EnterFast, every uncontended monitorenter at a position where no
//     signature is exposed: the approval, the runtime's tryLock and the
//     hold edge in one section, when the lock is unowned (so granting
//     cannot complete a cycle — detection's walk would stop immediately)
//     and no thread is yielding (so no starvation cycle can involve the
//     new edge). At a position no signature names that is all; at an
//     armed one the section also enters the queue.
//
//   - fastAcquired, Acquired after an approved Request while nothing
//     yields: it finishes every enter whose Request ran exclusive.
//
//   - fastRelease, an owner's release while nothing yields: at an armed
//     position it returns the queue entry, and there is no yielder to wake.
//
// # Lock order
//
//	c.mu (engine RWMutex; shared = fast path, exclusive = slow path)
//	  > c.histMu   (history list + dedup map; History() readers take it alone)
//	  > c.nodesMu  (node registry; node constructors take it alone)
//	  > posTable shard locks (leaf; Intern takes them with no other lock)
//	  > Position.mu (leaf; a shared section's own queue entry)
//	  > c.evMu     (event channel; leaf)
//
// Never acquire c.mu while holding any of the inner locks. Fields read on
// the fast path while others mutate them are atomic: Node.owner,
// Position.inHistory, Position.exposed, the yielder count, the kill flag,
// and the Stats counters (the per-thread fast-path counters are plain,
// written only by the owning thread and read under the exclusive lock).
//
// Position thread queues are maintained lazily: only in-history positions
// keep them (signature matching is their only consumer), so an enter at an
// unarmed position never touches a queue; when a signature first names a
// position, the queue is rebuilt from live RAG state via the node registry.
// Exclusive sections edit queues directly; a shared section edits only
// its own position's queue, under that position's leaf lock.
//
// # Fast-path safety argument
//
// Approving a request t→l with l unowned cannot complete a deadlock cycle
// (a cycle needs l held), and every cycle's final edge targets a held lock,
// so the request that completes a cycle always sees owner != nil, fails
// EnterFast's conditions, and runs full detection in Request under the
// exclusive lock. Starvation cycles need a yielder; every shared section
// bails out to the exclusive path whenever one exists, and a thread that
// starts yielding later does so under the exclusive lock, observing every
// previously published edge and queue entry.
//
// Avoidance at pos finds nothing when no signature is exposed at pos: each
// signature naming pos then watches a slot at another position whose queue
// is empty, a slot no thread can fill (avoid.go, "Watched-slot index").
// EnterFast reads exposed(pos) == 0 under the shared lock, and exposure
// changes only under the exclusive one, so the answer holds for the whole
// section. It also holds against every other shared section running
// beside it: a shared section adds a queue entry only at a position where
// nothing is exposed, so nothing watches it, so no shared section fills a
// watched slot, and every signature keeps an empty slot outside pos until
// an exclusive section runs. Releases only empty queues, which moves no
// watch. So the shared approvals of one shared phase are each the approval
// Request would have made in any serial order of them.
//
// EnterFast is the schedule Request → tryLock → Acquired in which no
// exclusive section lands in between. Under its conditions Request's
// detection and avoidance would find nothing, so Request would only set
// the request edge and, at an armed position, the queue entry, and
// Acquired would replace that edge with the hold edge, moving the entry to
// the lock. Nothing exclusive can see the state in between (an approved
// request edge t→l with l's real lock taken), so the detector still sees
// every hold edge, at the moment it is published, and the fused section
// adds no reachable state. When tryLock loses, nothing was published and
// the caller starts over on the full path. Holding the read lock across
// tryLock cannot deadlock under RWMutex's writer preference: a waiting
// writer blocks only new readers, and tryLock neither blocks nor takes
// c.mu, so the reader always reaches its RUnlock and lets the writer in.
//
// A release while nothing yields is Release with no one to wake: it
// removes the hold edge and the queue entry, and an emptied queue moves
// no watch, so the shared release decides as the exclusive one does.
//
// The exclusive path takes two shortcuts of its own, each a cheap test
// proving that the expensive step it guards would find nothing.
//
// Watched-slot pre-filter (avoid.go). An instantiation needs a distinct
// thread in every slot of a signature, and a slot whose queue is empty can
// only take the pretended requester, so only if it sits at the requested
// position. The index keeps, per deadlock signature, one such empty slot
// in view, moved when its queue fills: the matcher skips a signature that
// watches an empty slot elsewhere, and a request at a position where none
// is exposed skips the walk altogether. It only drops matchings that would
// fail, so avoidance decides exactly as it would without it. It sits in
// the one findInstantiationLocked both engines call, so the serial
// reference runs it too.
//
// Yielder-set invariant (wakeYieldersLocked). Every goroutine waiting on a
// Signature.cond is in c.yielders: avoidLocked inserts it before cond.Wait
// and removes it after Wait returns, and both steps — like Wait's own
// unlock and relock — happen under the exclusive engine lock. Release and
// Abort hold that lock when they wake, so len(c.yielders) == 0 proves no
// goroutine is parked on any signature, and the per-signature Broadcast
// loop is skipped. A goroutine already woken but not yet rescheduled is
// still in the set (it cannot remove itself before relocking), so the gate
// never hides a waiter. Close does not use the gate: it broadcasts
// unconditionally.
//
// # Starvation scan points
//
// There is no background starvation scanner. A waits-for edge appears only
// when a thread yields, when a request is approved, or when a lock changes
// owner, and each of those points runs the cycle check under the exclusive
// lock: avoidLocked before it suspends a thread, Request and Acquired over
// every yielder afterwards (starvation.go). A periodic re-scan could find
// no cycle these points missed. A Core reads no clock and starts no
// goroutine, so every decision is a function of the call schedule.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// eventBuffer is the capacity of a core's event channel; events beyond it
// are dropped (counted in Stats.EventsDropped).
const eventBuffer = 256

// Core is one per-process Dimmunix instance.
type Core struct {
	cfg Config

	// mu is the engine lock guarding the RAG (node edges), position
	// queues, per-signature runtime state and the yielder set. Exclusive
	// for the slow path (detection, avoidance, installation, starvation
	// scans); shared for the fast path, which relies on the atomics and
	// leaf locks described in the package comment.
	mu sync.RWMutex

	// positions is the sharded per-process intern table mapping call-stack
	// keys to unique Position objects (the paper's global positions map).
	positions *posTable

	// histMu guards history and sigKeys against concurrent readers;
	// writers additionally hold c.mu exclusively.
	histMu  sync.Mutex
	history []*Signature
	sigKeys map[string]*Signature

	// yielders tracks threads currently suspended by avoidance (under
	// exclusive c.mu); yielderCount mirrors len(yielders) atomically for
	// the fast-path gate.
	yielders     map[*Node]*yieldRecord
	yielderCount atomic.Int32

	// nodesMu guards the node registry. The registry exists so that
	// installSignatureLocked can rebuild a newly named position's thread
	// queue from live RAG state (queues are maintained lazily, only for
	// in-history positions) and so Stats can aggregate the per-thread
	// fast-path counters.
	nodesMu     sync.Mutex
	threadNodes []*Node
	lockNodes   []*Node

	nodeCount        atomic.Uint64
	entriesAllocated atomic.Uint64

	// matchScratch is the reusable slot-assignment buffer for signature
	// matching (safe: matching always runs under exclusive c.mu).
	matchScratch []*Node

	// stats fields are all mutated with sync/atomic (the fast path updates
	// them without the engine lock). Snapshot with Stats().
	stats Stats

	// evMu guards the event channel and its closed flag.
	evMu         sync.Mutex
	events       chan Event
	eventsClosed bool

	killed  atomic.Bool
	yieldCh chan struct{} // closed and replaced at each yield (exclusive c.mu)
}

// New creates a Core with the given options applied over DefaultConfig.
// If a history store is configured, all persisted signatures are loaded
// and installed before New returns, so avoidance is armed from the first
// monitorenter — this is the paper's initDimmunix, called when Zygote
// forks a new process.
func New(opts ...Option) (*Core, error) {
	cfg := DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:       cfg,
		positions: newPosTable(),
		sigKeys:   make(map[string]*Signature),
		yielders:  make(map[*Node]*yieldRecord),
		yieldCh:   make(chan struct{}),
		events:    make(chan Event, eventBuffer),
	}
	if cfg.Store != nil {
		sigs, err := cfg.Store.Load()
		if err != nil {
			return nil, fmt.Errorf("init dimmunix: %w", err)
		}
		c.mu.Lock()
		for _, s := range sigs {
			installed, fresh, err := c.installSignatureLocked(s, false)
			if err != nil {
				c.mu.Unlock()
				return nil, fmt.Errorf("init dimmunix: install signature: %w", err)
			}
			if fresh {
				atomic.AddUint64(&c.stats.SignaturesLoaded, 1)
				c.emit(Event{Kind: EventSignatureLoaded, Sig: installed.snapshot()})
			}
		}
		c.mu.Unlock()
	}
	return c, nil
}

// Config returns a copy of the effective configuration.
func (c *Core) Config() Config { return c.cfg }

// Events returns the event stream. The channel is closed by Close. Events
// are dropped (never blocking the synchronization path) if the consumer
// falls behind.
func (c *Core) Events() <-chan Event { return c.events }

// Close shuts the core down: all threads suspended in avoidance are woken
// with ErrCoreClosed, and the event channel is closed.
// Close is idempotent.
func (c *Core) Close() error {
	if !c.killed.CompareAndSwap(false, true) {
		return nil
	}
	// Wake every yielder so blocked Requests can return ErrCoreClosed. The
	// exclusive lock orders the kill flag before any in-progress avoidance
	// check: a yielder either sees killed before waiting or is already
	// parked on its condition variable when the broadcast fires.
	c.mu.Lock()
	c.histMu.Lock()
	for _, s := range c.history {
		s.cond.Broadcast()
	}
	c.histMu.Unlock()
	c.mu.Unlock()

	c.evMu.Lock()
	c.eventsClosed = true
	close(c.events)
	c.evMu.Unlock()
	return nil
}

// NewThreadNode creates the RAG node for a thread. stackFn, which may be
// nil, captures the thread's current full call stack for the informational
// inner stacks of signatures; it must be safe to call from any goroutine.
// The paper embeds this node in Dalvik's Thread struct ("Node node").
func (c *Core) NewThreadNode(name string, stackFn func() CallStack) *Node {
	n := &Node{kind: ThreadNode, id: c.nodeCount.Add(1), name: name, stackFn: stackFn}
	c.nodesMu.Lock()
	c.threadNodes = append(c.threadNodes, n)
	c.nodesMu.Unlock()
	return n
}

// NewLockNode creates the RAG node for a lock (monitor). The paper embeds
// this node in Dalvik's Monitor struct.
func (c *Core) NewLockNode(name string) *Node {
	n := &Node{kind: LockNode, id: c.nodeCount.Add(1), name: name}
	c.nodesMu.Lock()
	c.lockNodes = append(c.lockNodes, n)
	c.nodesMu.Unlock()
	return n
}

// RetireThreadNode removes a terminated thread's node from the registry,
// folding its fast-path counters into the core totals. Nodes are
// otherwise retained for the Core's lifetime (the paper embeds them in
// Thread/Monitor structs), so embeddings with thread churn should retire
// nodes as threads exit to keep the registry — which signature
// installation and Stats scan — bounded by live threads. A node still
// holding an approved request or a yield is left registered (the RAG
// still references it).
func (c *Core) RetireThreadNode(t *Node) {
	if t == nil || t.kind != ThreadNode {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.reqLock != nil || t.yield != nil {
		return
	}
	atomic.AddUint64(&c.stats.FastRequests, t.fastRequests)
	atomic.AddUint64(&c.stats.FastAcquisitions, t.fastAcquisitions)
	atomic.AddUint64(&c.stats.FastReleases, t.fastReleases)
	atomic.AddUint64(&c.stats.Requests, t.armedRequests)
	atomic.AddUint64(&c.stats.AvoidanceChecks, t.avoidanceChecks)
	t.fastRequests, t.fastAcquisitions, t.fastReleases = 0, 0, 0
	t.armedRequests, t.avoidanceChecks = 0, 0
	c.nodesMu.Lock()
	c.threadNodes = removeNode(c.threadNodes, t)
	c.nodesMu.Unlock()
}

// removeNode deletes n from nodes (order not preserved).
func removeNode(nodes []*Node, n *Node) []*Node {
	for i, x := range nodes {
		if x == n {
			nodes[i] = nodes[len(nodes)-1]
			nodes[len(nodes)-1] = nil
			return nodes[:len(nodes)-1]
		}
	}
	return nodes
}

// Intern returns the unique Position for the given outer call stack,
// truncated to the configured outer depth. Interning touches only the
// sharded table, never the engine lock. The stack is cloned when a new
// Position is created, so callers may reuse their capture buffers (the
// paper's Thread.stackBuffer).
func (c *Core) Intern(stack CallStack) (*Position, error) {
	if len(stack) == 0 {
		return nil, fmt.Errorf("intern: empty call stack")
	}
	return c.positions.intern(stack.Truncate(c.cfg.OuterDepth)), nil
}

// Request implements the pre-monitorenter interception. t is about to
// request lock l with outer call stack position pos. Request:
//
//  1. Runs deadlock detection: if granting the request would complete a
//     RAG cycle, the deadlock's signature is recorded (and persisted), and
//     Request proceeds to step 3: the deadlock happens, as on an
//     unmodified phone it would, but now with an antibody saved.
//  2. Otherwise runs avoidance: while the pretended approval would make
//     any history signature instantiable, the calling goroutine is
//     suspended on that signature's condition variable (§2.2).
//  3. Approves: t is registered in pos's thread queue ("holds or is
//     allowed to wait for a lock at pos") and the request edge t→l is
//     added to the RAG.
//
// Request always takes the exclusive engine lock; an uncontended
// monitorenter that neither step can matter to goes through EnterFast
// instead. Besides argument errors, Request fails only with ErrCoreClosed.
//
// On success the caller must proceed to block on the real lock and then
// call Acquired; if the caller gives up instead it must call Abort.
func (c *Core) Request(t, l *Node, pos *Position) error {
	if err := checkArgs(t, l); err != nil {
		return err
	}
	if pos == nil {
		return fmt.Errorf("request: nil position")
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed.Load() {
		return ErrCoreClosed
	}
	atomic.AddUint64(&c.stats.Requests, 1)
	if t.reqLock != nil {
		// A second Request without Acquired/Abort: tolerate but count, and
		// drop the superseded approval's queue entry so it does not stay
		// behind as a phantom occupant of its position.
		atomic.AddUint64(&c.stats.Misuse, 1)
		c.dropRequestLocked(t)
	}

	if cycle := c.findCycleLocked(t, l); cycle != nil {
		// Avoidance is skipped: yielding cannot undo a deadlock that has
		// already formed, and the faithful behaviour is to let it manifest.
		c.handleDeadlockLocked(t, pos, cycle)
	} else if len(pos.sigs) > 0 {
		yielded, err := c.avoidLocked(t, pos)
		if err != nil {
			return err
		}
		if yielded {
			atomic.AddUint64(&c.stats.Resumes, 1)
			c.emit(Event{
				Kind:       EventResume,
				ThreadID:   t.id,
				ThreadName: t.name,
				Pos:        pos.key,
			})
		}
	}
	t.forceResume = false

	// Approve: set the request edge, and enter pos's queue when pos is
	// named by a signature (queues are maintained lazily — positions
	// outside every signature are never matched against, and their queues
	// are rebuilt from RAG state if a signature naming them installs).
	t.reqLock = l
	t.reqPos = pos
	if pos.inHistory.Load() {
		t.reqEntry = c.takeEntryLocked(pos, t)
	} else {
		t.reqEntry = nil
	}

	// A new waits-for edge (t→l) may complete a starvation cycle for a
	// current yielder.
	c.scanYieldersLocked()
	return nil
}

// EnterFast is an uncontended monitorenter in one shared section: an
// approval whose detection and avoidance provably find nothing, the
// embedding runtime's own acquisition and the fast Acquired, run back to
// back under one shared engine lock. Under that lock it checks that the
// core is open, t has no pending request, no signature is exposed at pos
// (Position.exposed; always so at a position no signature names), l is
// unowned and nothing yields (the lock keeps pos's exposure and the
// yielder set fixed: both change only under the exclusive lock). When they
// hold it calls tryLock, which must try to take the real lock and report
// whether it did. tryLock runs under the engine lock, so it must not
// block, wait or call into this Core. If tryLock wins, t's hold edge on l
// is published (acquisition position, owner, and at an armed position a
// queue entry, taken under pos's leaf lock) and counted as one
// acquisition on the fast path. At a position no signature names it is
// also one fast request; at an armed one it is a request whose avoidance
// checked pos's candidate signatures, as Request would have counted it.
// The caller then owns l and releases it with Release.
//
// EnterFast returns false, having changed nothing, when the conditions do
// not hold, when tryLock loses, and always on the serial engine. The
// caller then takes the full Request → acquire → Acquired sequence. The
// package comment ("Fast-path safety argument") has why the fused section
// decides exactly as that sequence does. An exposed position is refused
// before the lock is taken: the check is repeated under it, so the early
// answer only saves a read pair that could not succeed.
func (c *Core) EnterFast(t, l *Node, pos *Position, tryLock func() bool) bool {
	if c.cfg.Serial || pos == nil || pos.exposed.Load() != 0 || checkArgs(t, l) != nil {
		return false
	}
	c.mu.RLock()
	if c.killed.Load() || t.reqLock != nil || pos.exposed.Load() != 0 ||
		l.owner.Load() != nil || c.yielderCount.Load() != 0 || !tryLock() {
		c.mu.RUnlock()
		return false
	}
	t.fastAcquisitions++
	t.forceResume = false
	l.acqPos = pos
	l.acqEntry = nil
	if pos.inHistory.Load() {
		t.armedRequests++
		t.avoidanceChecks += uint64(pos.candidates)
		pos.mu.Lock()
		l.acqEntry = c.newEntry(pos, t)
		pos.mu.Unlock()
	} else {
		t.fastRequests++
	}
	l.owner.Store(t)
	c.mu.RUnlock()
	return true
}

// Acquired implements the post-monitorenter interception: t now owns l.
// The request edge is replaced by a hold edge and the position entry is
// transferred from the thread to the lock (it stays in the same queue: the
// thread went from "allowed to wait at pos" to "holds at pos").
func (c *Core) Acquired(t, l *Node) {
	if checkArgs(t, l) != nil {
		return
	}
	if c.fastAcquired(t, l) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	atomic.AddUint64(&c.stats.Acquisitions, 1)
	if t.reqLock != l {
		// Acquired without a matching approved Request: t's approval for
		// another lock, if any, is dropped with its queue entry.
		atomic.AddUint64(&c.stats.Misuse, 1)
		l.owner.Store(t)
		c.dropRequestLocked(t)
		return
	}
	l.acqPos = t.reqPos
	l.acqEntry = t.reqEntry
	t.reqLock, t.reqPos, t.reqEntry = nil, nil, nil
	l.owner.Store(t)
	// t becoming the owner creates waits-for edges u→t for every thread u
	// blocked on l; a yield cycle may have formed.
	c.scanYieldersLocked()
}

// fastAcquired publishes the hold edge under the shared lock. Only the
// acquiring thread writes l's acquisition fields (ownership transfers are
// serialized by the embedding runtime's real lock), and the owner pointer
// is atomic for concurrent EnterFast readers. Skipped whenever a thread
// yields, so the starvation scan never misses a new hold edge.
func (c *Core) fastAcquired(t, l *Node) bool {
	if c.cfg.Serial {
		return false
	}
	c.mu.RLock()
	if t.reqLock != l || c.yielderCount.Load() != 0 {
		c.mu.RUnlock()
		return false
	}
	t.fastAcquisitions++
	l.acqPos = t.reqPos
	l.acqEntry = t.reqEntry
	t.reqLock, t.reqPos, t.reqEntry = nil, nil, nil
	l.owner.Store(t)
	c.mu.RUnlock()
	return true
}

// Release implements the pre-monitorexit interception: t is about to
// release l. The hold edge and the position-queue entry are removed; if
// the acquisition position appears in any history signature, all threads
// yielding on those signatures are woken to re-check (the paper's
// notifyAll over signatures containing the position).
func (c *Core) Release(t, l *Node) {
	if checkArgs(t, l) != nil {
		return
	}
	if c.fastRelease(t, l) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	atomic.AddUint64(&c.stats.Releases, 1)
	if l.owner.Load() != t {
		atomic.AddUint64(&c.stats.Misuse, 1)
	}
	pos := l.acqPos
	if pos != nil && l.acqEntry != nil {
		c.releaseEntryLocked(pos, l.acqEntry)
	}
	l.owner.Store(nil)
	l.acqPos = nil
	l.acqEntry = nil
	if pos != nil {
		c.wakeYieldersLocked(pos)
	}
}

// wakeYieldersLocked wakes every thread yielding on a signature that names
// pos, after an occupant left pos's queue, so each re-checks its
// instantiation. With nothing yielding there is nobody to wake (the
// yielder-set invariant in the package comment), which spares an
// uncontended release at an armed position one Broadcast per signature
// naming it. Caller must hold c.mu exclusively.
func (c *Core) wakeYieldersLocked(pos *Position) {
	if len(c.yielders) == 0 {
		return
	}
	for _, s := range pos.sigs {
		s.cond.Broadcast()
	}
}

// fastRelease removes the hold edge under the shared lock. Requires the
// caller to be the current owner (so l's acquisition fields are its own
// writes, or the exclusive queue rebuild's) and nothing to be yielding (so
// no yielder needs waking, and none can appear before the section ends).
// A queue entry at an armed position goes back under the position's leaf
// lock; a queue turning empty moves no watch (avoid.go).
func (c *Core) fastRelease(t, l *Node) bool {
	// Checked before the lock, and again under it: a release that is not
	// its owner's, or one while a thread yields, only ever takes the slow
	// path. When t is the owner, l.acqPos is t's own write.
	if c.cfg.Serial || l.owner.Load() != t || l.acqPos == nil || c.yielderCount.Load() != 0 {
		return false
	}
	c.mu.RLock()
	// Owner check first: only when t is the owner are l.acqPos/acqEntry
	// safe to read without the exclusive lock.
	if l.owner.Load() != t || c.yielderCount.Load() != 0 {
		c.mu.RUnlock()
		return false
	}
	if e := l.acqEntry; e != nil {
		pos := l.acqPos
		pos.mu.Lock()
		pos.releaseEntry(e, c.cfg.QueueReuse)
		pos.mu.Unlock()
		l.acqEntry = nil
	}
	t.fastReleases++
	l.acqPos = nil
	l.owner.Store(nil)
	c.mu.RUnlock()
	return true
}

// Abort undoes an approved Request that will not proceed to Acquired
// (e.g. the embedding runtime cancelled a blocked monitorenter during
// process teardown). The position entry and the request edge are removed
// and yielders on affected signatures are woken. Aborts are rare (they
// happen on teardown), so there is no fast path.
func (c *Core) Abort(t, l *Node) {
	if checkArgs(t, l) != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	atomic.AddUint64(&c.stats.Aborts, 1)
	if t.reqLock != l {
		atomic.AddUint64(&c.stats.Misuse, 1)
		return
	}
	c.dropRequestLocked(t)
}

// dropRequestLocked removes t's approved request: its queue entry goes
// back to its position, whose yielders are woken to re-check, and the
// request edge is cleared. Caller must hold c.mu exclusively.
func (c *Core) dropRequestLocked(t *Node) {
	if pos := t.reqPos; pos != nil && t.reqEntry != nil {
		c.releaseEntryLocked(pos, t.reqEntry)
		c.wakeYieldersLocked(pos)
	}
	t.reqLock, t.reqPos, t.reqEntry = nil, nil, nil
}

// takeEntryLocked enters t in pos's queue and, when the queue was empty,
// moves the signatures watching it (avoid.go). Caller must hold c.mu
// exclusively.
func (c *Core) takeEntryLocked(pos *Position, t *Node) *entry {
	e := c.newEntry(pos, t)
	if pos.queue.len() == 1 && pos.watchers != nil {
		moveWatchersLocked(pos)
	}
	return e
}

// newEntry allocates or recycles a queue entry for t at pos, tracking the
// allocation high-water mark. Caller must hold c.mu exclusively, or hold
// it shared with pos.mu at a position nothing watches.
func (c *Core) newEntry(pos *Position, t *Node) *entry {
	if c.cfg.QueueReuse && pos.free.len() > 0 {
		return pos.takeEntry(t, true)
	}
	c.entriesAllocated.Add(1)
	return pos.takeEntry(t, false)
}

// releaseEntryLocked returns an entry to the position's free list. Caller
// must hold c.mu exclusively.
func (c *Core) releaseEntryLocked(pos *Position, e *entry) {
	pos.releaseEntry(e, c.cfg.QueueReuse)
}

// AddSignature installs a signature directly (deduplicated by key) and
// persists it if a store is configured. It returns the installed snapshot
// and whether the signature was new. Synthetic histories for benchmarks
// (§5's 64–256 synthetic signatures) are built this way.
func (c *Core) AddSignature(sig *Signature) (SignatureInfo, bool, error) {
	if sig == nil {
		return SignatureInfo{}, false, fmt.Errorf("add signature: nil signature")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	installed, fresh, err := c.installSignatureLocked(sig, true)
	if err != nil {
		return SignatureInfo{}, false, err
	}
	return installed.snapshot(), fresh, nil
}

// InstallSignature installs a signature that originated outside this
// process — the platform immunity service's hot-install path, pushed to
// live processes when another process detects a deadlock — without
// persisting it (the service is the single writer of the persistent
// history). Installation is idempotent: a signature already in the history
// is a no-op. On success the position(s) named by the signature flip to
// the slow path (Position.inHistory), so avoidance is armed for all
// subsequent monitorenters with no restart.
func (c *Core) InstallSignature(sig *Signature) (SignatureInfo, bool, error) {
	if sig == nil {
		return SignatureInfo{}, false, fmt.Errorf("install signature: nil signature")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed.Load() {
		return SignatureInfo{}, false, ErrCoreClosed
	}
	installed, fresh, err := c.installSignatureLocked(sig, false)
	if err != nil {
		return SignatureInfo{}, false, err
	}
	if fresh {
		atomic.AddUint64(&c.stats.SignaturesInstalled, 1)
		c.emit(Event{Kind: EventSignatureInstalled, Sig: installed.snapshot()})
	}
	return installed.snapshot(), fresh, nil
}

// installSignatureLocked deduplicates, resolves outer positions, wires the
// condition variable, and optionally persists. Caller must hold c.mu
// exclusively — installation flips positions from the fast path to the
// slow path (Position.inHistory), which must not happen mid-operation.
func (c *Core) installSignatureLocked(sig *Signature, persist bool) (*Signature, bool, error) {
	if err := sig.Validate(); err != nil {
		return nil, false, err
	}
	// Identity is computed over depth-truncated outer stacks so that a
	// history recorded at a deeper depth deduplicates consistently under
	// the current configuration.
	truncated := &Signature{Kind: sig.Kind, Pairs: make([]SigPair, len(sig.Pairs))}
	for i, p := range sig.Pairs {
		truncated.Pairs[i] = SigPair{
			Outer: p.Outer.Truncate(c.cfg.OuterDepth).Clone(),
			Inner: p.Inner.Clone(),
		}
	}
	key := truncated.Key()
	c.histMu.Lock()
	existing, ok := c.sigKeys[key]
	c.histMu.Unlock()
	if ok {
		return existing, false, nil
	}
	s := truncated
	s.cond = sync.NewCond(&c.mu)
	s.slots = make([]*Position, len(s.Pairs))
	for i, p := range s.Pairs {
		pos := c.positions.intern(p.Outer.Truncate(c.cfg.OuterDepth))
		s.slots[i] = pos
		if !containsSig(pos.sigs, s) {
			pos.sigs = append(pos.sigs, s)
			if s.Kind == DeadlockSig {
				pos.candidates++
			}
		}
		if !pos.inHistory.Load() {
			// First signature naming this position: arm it and rebuild its
			// lazily maintained thread queue from live RAG state, so
			// matching sees every current holder and approved waiter.
			pos.inHistory.Store(true)
			c.rebuildQueueLocked(pos)
		}
	}
	if s.Kind == DeadlockSig {
		// The queues are exact now, rebuilt ones included.
		s.watchLocked(s.emptySlot(nil))
	}
	c.histMu.Lock()
	s.id = len(c.history)
	c.history = append(c.history, s)
	c.sigKeys[key] = s
	c.histMu.Unlock()
	atomic.AddUint64(&c.stats.SignaturesAdded, 1)
	if persist && c.cfg.Store != nil {
		if err := c.cfg.Store.Append(s); err != nil {
			// The in-memory antibody still protects this run; persistence
			// will be retried implicitly if the bug reoccurs next boot.
			atomic.AddUint64(&c.stats.PersistErrors, 1)
		}
	}
	return s, true, nil
}

// rebuildQueueLocked populates a newly armed position's thread queue from
// the RAG: one entry per lock currently held that was acquired at pos, and
// one per approved in-flight request at pos. Queues of positions outside
// every signature are not maintained (nothing ever matches against them);
// this reconstruction runs once, when the position first becomes named by
// a signature, under the exclusive engine lock. Caller must hold c.mu
// exclusively.
func (c *Core) rebuildQueueLocked(pos *Position) {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	for _, l := range c.lockNodes {
		if l.acqPos == pos && l.acqEntry == nil {
			if owner := l.owner.Load(); owner != nil {
				l.acqEntry = c.takeEntryLocked(pos, owner)
			}
		}
	}
	for _, t := range c.threadNodes {
		if t.reqPos == pos && t.reqLock != nil && t.reqEntry == nil {
			t.reqEntry = c.takeEntryLocked(pos, t)
		}
	}
}

// containsSig reports whether sigs already holds s.
func containsSig(sigs []*Signature, s *Signature) bool {
	for _, x := range sigs {
		if x == s {
			return true
		}
	}
	return false
}

// History returns a snapshot of all installed signatures.
func (c *Core) History() []SignatureInfo {
	c.histMu.Lock()
	defer c.histMu.Unlock()
	out := make([]SignatureInfo, len(c.history))
	for i, s := range c.history {
		out[i] = s.snapshot()
	}
	return out
}

// HistorySize returns the number of installed signatures.
func (c *Core) HistorySize() int {
	c.histMu.Lock()
	defer c.histMu.Unlock()
	return len(c.history)
}

// Stats returns a snapshot of the activity counters. The fast-path
// counters live on the thread nodes (written lock-free by each thread);
// aggregating them takes the exclusive engine lock briefly to exclude
// in-flight fast operations.
func (c *Core) Stats() Stats {
	out := c.stats.snapshot()
	c.mu.Lock()
	c.nodesMu.Lock()
	for _, t := range c.threadNodes {
		out.FastRequests += t.fastRequests
		out.FastAcquisitions += t.fastAcquisitions
		out.FastReleases += t.fastReleases
		out.Requests += t.armedRequests
		out.AvoidanceChecks += t.avoidanceChecks
	}
	c.nodesMu.Unlock()
	c.mu.Unlock()
	out.Requests += out.FastRequests
	out.Acquisitions += out.FastAcquisitions
	out.Releases += out.FastReleases
	return out
}

// MemStats computes the current memory footprint of the core's data
// structures.
func (c *Core) MemStats() MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memStatsLocked()
}

// PositionCount returns the number of interned positions.
func (c *Core) PositionCount() int {
	return c.positions.count()
}

// checkArgs validates the node kinds for the interception entry points.
func checkArgs(t, l *Node) error {
	if t == nil || l == nil {
		return fmt.Errorf("core: nil node")
	}
	if t.kind != ThreadNode {
		return fmt.Errorf("core: %v is not a thread node", t)
	}
	if l.kind != LockNode {
		return fmt.Errorf("core: %v is not a lock node", l)
	}
	return nil
}
