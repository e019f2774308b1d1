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
// Dalvik-like monitors) drives the core through two interception points,
// the paper's lockMonitor and unlockMonitor:
//
//   - Enter, a monitorenter with the runtime's acquisition: one shared
//     engine section around the runtime's tryLock when neither detection
//     nor avoidance can matter (see "Fast-path safety argument"), else
//     Request (detection, then avoidance, which suspends the caller while
//     a history signature could be instantiated), the runtime's blocking
//     acquire and Acquired, or an abort when acquire fails.
//   - Exit, a monitorexit with the runtime's release store: Release right
//     before the store, unless the exit needs no engine section at all.
//
// The RAG's hold edge is the runtime's own ownership word, handed to the
// core with the lock node (NewMonitorNode, Word): the runtime's acquiring
// CAS publishes it and its release store retracts it. The core reads it
// and never writes it (see "The hold edge is the runtime's word").
//
// # Concurrency architecture
//
// The paper serializes its entry points under one global per-process
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
// scan, and one exit takes no section at all:
//
//   - enterFast, every uncontended monitorenter at a position where no
//     signature is exposed: the approval, the runtime's tryLock and the
//     hold edge in one section, when tryLock wins (so the lock was free
//     and granting cannot complete a cycle — detection's walk would stop
//     immediately) and no thread is yielding (so no starvation cycle can
//     involve the new edge). At a position no signature names that is
//     all; at an armed one the section also enters the queue.
//
//   - fastAcquired, Acquired after an approved Request while nothing
//     yields: it finishes every enter whose Request ran exclusive.
//
//   - fastRelease, an owner's release while nothing yields: at an armed
//     position it returns the queue entry, and there is no yielder to wake.
//
//   - Exit from a hold acquired at a position outside the history: no
//     queue entry, no signature to wake. It is the runtime's release store
//     and one re-load of the position's inHistory flag, which sends the
//     rare exit that raced a signature install to an exclusive reconcile.
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
// Never acquire c.mu while holding any of the inner locks. Exit calls its
// unlock callback, the runtime's release store, holding none of them.
// Fields read on the fast path while others mutate them are atomic:
// Position.inHistory, Position.exposed, the yielder count, the kill flag,
// the Stats counters the exclusive sections keep, and the runtime's
// ownership words. Everything a shared section writes is plain: the
// per-thread fast-path counters and request fields (written only by the
// owning thread, read by others only under the exclusive lock) and a
// lock's acqPos and acqEntry (written only by the thread holding the
// runtime's real lock, or by an exclusive section; see "The hold edge is
// the runtime's word").
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
// so the request that completes a cycle always finds the real lock taken,
// loses enterFast's tryLock, and runs full detection in Request under the
// exclusive lock. enterFast does not read l's word to learn whether l is
// free: the runtime's tryLock answers that, atomically with taking it.
// Starvation cycles need a yielder; every shared section bails out to the
// exclusive path whenever one exists, and a thread that starts yielding
// later does so under the exclusive lock, observing every previously
// published edge and queue entry.
//
// Avoidance at pos finds nothing when no signature is exposed at pos: each
// signature naming pos then watches a slot at another position whose queue
// is empty, a slot no thread can fill (avoid.go, "Watched-slot index").
// enterFast reads exposed(pos) == 0 under the shared lock, and exposure
// changes only under the exclusive one, so the answer holds for the whole
// section. It also holds against every other shared section running
// beside it: a shared section adds a queue entry only at a position where
// nothing is exposed, so nothing watches it, so no shared section fills a
// watched slot, and every signature keeps an empty slot outside pos until
// an exclusive section runs. Releases only empty queues, which moves no
// watch. So the shared approvals of one shared phase are each the approval
// Request would have made in any serial order of them.
//
// enterFast is the schedule Request → tryLock → Acquired in which no
// exclusive section lands in between. Under its conditions Request's
// detection and avoidance would find nothing, so Request would only set
// the request edge and, at an armed position, the queue entry, and
// Acquired would replace that edge with the hold's acquisition position,
// moving the entry to the lock. Nothing exclusive can see the states in
// between (the approved request before the CAS, and case (a) below after
// it, which the full path does expose), so the detector still sees every
// hold edge from the CAS that publishes it, and the fused section adds no
// reachable state. When tryLock loses, nothing was published and the
// caller starts over on the full path. Holding the read lock across
// tryLock cannot deadlock under RWMutex's writer preference: a waiting
// writer blocks only new readers, and tryLock neither blocks nor takes
// c.mu, so the reader always reaches its RUnlock and lets the writer in.
//
// A release while nothing yields is Release with no one to wake: it
// removes the hold's position and queue entry, and an emptied queue moves
// no watch, so the shared release decides as the exclusive one does.
//
// # The hold edge is the runtime's word
//
// A lock's holder is its ownership word (Word), which the runtime writes
// and the core only reads: Node.holder for the RAG, under the exclusive
// lock. acqPos and acqEntry, where and with which queue entry the holder
// acquired it, are plain fields written inside an engine section by the
// thread that holds the runtime's real lock (enterFast after its tryLock
// wins, Acquired after the runtime's acquisition, Release before the
// release store) or by an exclusive section. Two holders are ordered by
// the word itself: the old one's last write precedes its release store,
// which the new one's CAS observes. Three cases make this exact.
//
// (a) A hold appears at the runtime's CAS, before Acquired. Until
// Acquired runs, the thread's approved request still names the lock and
// the hold has no acquisition position. holder reads such a lock as free,
// so the thread reads as running to findCycleLocked and reachesLocked,
// never as a wait-for edge (it waits for nothing: the lock is its own);
// the queue rebuild takes no entry for it (its request has one); and
// Stats counts no hold (its acquisition is not counted yet).
//
// (b) A holder can vanish during an exclusive section: a lock-free exit
// takes no engine lock. Only running threads release, and no cycle passes
// through a running thread, so a detection or starvation walk that reads
// a releasing holder, or the word already free, reaches a dead end
// either way. Stats may see such a release land while it counts holds;
// it only makes the snapshot newer.
//
// (c) The install race. A lock-free exit writes no core field: it leaves
// acqPos behind (a stale acqPos describes nothing once the word is free
// or its new holder is in case (a)), and acqEntry is nil, since the
// position was outside the history when the hold began and when the exit
// looked. A signature install stores inHistory and then, in the queue
// rebuild, reads every word; the exit stores the word and then re-reads
// inHistory. Both are sequentially consistent atomics, so whichever side
// comes second sees the other: either the rebuild finds the word free and
// attaches nothing, or the exit sees the flag and reconciles under the
// exclusive lock, or both. The rebuild may thus attach a phantom entry to
// a hold whose release store follows at once. The phantom is only ever
// returned under the exclusive lock: by the exit's reconcile, which
// returns the lock's entry only if it is the exiting thread's own, or by
// the next holder's Acquired. enterFast never overwrites a non-nil
// acqEntry: when its CAS wins over a phantom it finishes as an approved
// request whose Acquired runs exclusive, and fastAcquired likewise
// refuses a lock with an entry. Until it is returned, a phantom can only
// make avoidance more careful for the length of one exit, never hide an
// occupant. A release inside a section (fastRelease or Release) instead
// clears acqPos before the section ends, so an install between that
// section and the release store attaches nothing.
//
// Releases are not counted where they happen, so the lock-free exit adds
// no locked instruction: Stats derives them as acquisitions less the
// locks still held, under the exclusive lock.
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
// abort hold that lock when they wake, so len(c.yielders) == 0 proves no
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

	// stats holds the counts of the exclusive sections and the folded
	// per-thread counts of retired nodes; its Releases are the
	// exclusive-path releases only (Stats derives the total). Each field is updated with
	// sync/atomic, because Yielded and event emission touch it outside
	// the exclusive lock; the shared sections never do (they count on
	// their thread's node). Snapshot with Stats().
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

// NewMonitorNode creates the RAG node for a lock (monitor) whose
// ownership word is word: the runtime's acquiring CAS and release store on
// it are the hold edge's publication and retraction (Word). The paper
// embeds this node in Dalvik's Monitor struct.
func (c *Core) NewMonitorNode(name string, word Word) *Node {
	n := &Node{kind: LockNode, id: c.nodeCount.Add(1), name: name, word: word}
	c.nodesMu.Lock()
	c.lockNodes = append(c.lockNodes, n)
	c.nodesMu.Unlock()
	return n
}

// NewLockNode creates a lock node with no ownership word. The core never
// sees it held, so detection never walks through it. It is exported only
// for the benchmarks that time the engine's sections without a runtime
// lock; an embedder's locks have words (NewMonitorNode).
func (c *Core) NewLockNode(name string) *Node { return c.NewMonitorNode(name, nil) }

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
	atomic.AddUint64(&c.stats.Requests, t.armedRequests)
	atomic.AddUint64(&c.stats.AvoidanceChecks, t.avoidanceChecks)
	t.fastRequests, t.fastAcquisitions = 0, 0
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

// Enter is the monitorenter interception together with the embedding
// runtime's acquisition of l by t at pos. It returns once t owns l, or
// with an error, owning nothing; t releases l with Exit. tryLock takes the
// lock if it is free and reports whether it did; it runs inside an engine
// section, so it must not block, wait or call into this Core. acquire
// blocks until the lock is taken, or fails leaving it untaken (the runtime
// gave up, say on teardown). blocked is told true before an enter that
// may wait, for avoidance or for the lock, and false once it owns l or
// fails.
//
// An uncontended enter at a position where no signature is exposed is one
// shared section (enterFast), which calls only tryLock. Any other is
// Request, acquire and Acquired; a failed acquire aborts the approved
// request, and a failed Request (ErrCoreClosed) returns before acquire.
func (c *Core) Enter(t, l *Node, pos *Position, tryLock func() bool, acquire func() error, blocked func(bool)) error {
	if c.enterFast(t, l, pos, tryLock) {
		return nil
	}
	return c.enterSlow(t, l, pos, acquire, blocked)
}

// enterSlow is Enter's exclusive path.
func (c *Core) enterSlow(t, l *Node, pos *Position, acquire func() error, blocked func(bool)) error {
	blocked(true)
	defer blocked(false)
	if err := c.Request(t, l, pos); err != nil {
		return err
	}
	if err := acquire(); err != nil {
		c.abort(t)
		return err
	}
	c.Acquired(t, l)
	return nil
}

// Request is the pre-monitorenter interception, the first step of Enter's
// exclusive path: t is about to request l at outer position pos. It:
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
// Request always takes the exclusive engine lock. Besides argument errors,
// it fails only with ErrCoreClosed. Request, Acquired and Release are
// exported only for the benchmarks that time the engine's sections one by
// one; an embedder calls Enter and Exit.
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
		// A second Request without Acquired or abort: tolerate but count,
		// and drop the superseded approval's queue entry so it does not
		// stay behind as a phantom occupant of its position.
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

// enterFast is Enter's shared path: an approval whose detection and
// avoidance provably find nothing, the runtime's tryLock and the fast
// Acquired, back to back under one shared engine lock. Under it, it
// checks that the core is open, t has no pending request, no signature is
// exposed at pos (always so at a position no signature names) and nothing
// yields; the lock keeps pos's exposure and the yielder set fixed, as both
// change only under the exclusive lock. Then tryLock, the CAS on l's word,
// is also the only test of whether l is free. If it wins, t's hold gets
// its acquisition position, and at an armed position a queue entry taken
// under pos's leaf lock, and counts as one fast acquisition and one
// request: a fast one at a position no signature names, else one whose
// avoidance checked pos's candidate signatures, as Request would count it.
// A phantom entry on l (a lock-free exit raced a signature install) is
// never overwritten: the enter then finishes as an approved request whose
// Acquired runs exclusive and returns the phantom first.
//
// enterFast returns false, having changed nothing, when the conditions do
// not hold, when tryLock loses, and always on the serial engine. The
// package comment ("Fast-path safety argument") has why the section
// decides exactly as Request → acquire → Acquired does. An exposed
// position is refused before the lock is taken too, which saves a read
// pair that could not succeed.
func (c *Core) enterFast(t, l *Node, pos *Position, tryLock func() bool) bool {
	if c.cfg.Serial || pos == nil || pos.exposed.Load() != 0 || !validArgs(t, l) {
		return false
	}
	c.mu.RLock()
	if c.killed.Load() || t.reqLock != nil || pos.exposed.Load() != 0 ||
		c.yielderCount.Load() != 0 || !tryLock() {
		c.mu.RUnlock()
		return false
	}
	t.forceResume = false
	var e *entry
	if pos.inHistory.Load() {
		t.armedRequests++
		t.avoidanceChecks += uint64(pos.candidates)
		pos.mu.Lock()
		e = c.newEntry(pos, t)
		pos.mu.Unlock()
	} else {
		t.fastRequests++
	}
	if l.acqEntry != nil {
		t.reqLock, t.reqPos, t.reqEntry = l, pos, e
		c.mu.RUnlock()
		c.Acquired(t, l)
		return true
	}
	t.fastAcquisitions++
	l.acqPos = pos
	l.acqEntry = e
	c.mu.RUnlock()
	return true
}

// Acquired implements the post-monitorenter interception, the last step
// of Enter's exclusive path: t now owns l. The runtime's acquisition
// already published the hold on l's word; the request edge is replaced by
// the hold's acquisition position and the position entry is transferred
// from the thread to the lock (it stays in the same queue: the thread went
// from "allowed to wait at pos" to "holds at pos"). A phantom entry left
// on l is returned first. Exported only for benchmarks, as Request is.
func (c *Core) Acquired(t, l *Node) {
	if checkArgs(t, l) != nil {
		return
	}
	if c.fastAcquired(t, l) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if pos, e := l.acqPos, l.acqEntry; e != nil {
		c.releaseEntryLocked(pos, e)
		c.wakeYieldersLocked(pos)
	}
	if t.reqLock != l {
		// Acquired without a matching approved Request: the hold has no
		// acquisition position and is not counted; t's approval for
		// another lock, if any, is dropped with its queue entry.
		atomic.AddUint64(&c.stats.Misuse, 1)
		l.acqPos, l.acqEntry = nil, nil
		c.dropRequestLocked(t)
		return
	}
	atomic.AddUint64(&c.stats.Acquisitions, 1)
	l.acqPos = t.reqPos
	l.acqEntry = t.reqEntry
	t.reqLock, t.reqPos, t.reqEntry = nil, nil, nil
	// t becoming the owner creates waits-for edges u→t for every thread u
	// blocked on l; a yield cycle may have formed.
	c.scanYieldersLocked()
}

// fastAcquired completes the hold under the shared lock. Only the
// acquiring thread, which holds the runtime's real lock, writes l's
// acquisition fields (package comment, "Fast-path safety argument").
// Skipped whenever a thread yields, so the starvation scan never misses a
// new hold edge, and when l carries a phantom entry, which only the
// exclusive lock returns.
func (c *Core) fastAcquired(t, l *Node) bool {
	if c.cfg.Serial {
		return false
	}
	c.mu.RLock()
	if t.reqLock != l || c.yielderCount.Load() != 0 || l.acqEntry != nil {
		c.mu.RUnlock()
		return false
	}
	t.fastAcquisitions++
	l.acqPos = t.reqPos
	l.acqEntry = t.reqEntry
	t.reqLock, t.reqPos, t.reqEntry = nil, nil, nil
	c.mu.RUnlock()
	return true
}

// Exit is the monitorexit interception together with the runtime's
// release: unlock must make the release store on l's word, and t must be
// l's holder. An exit whose acquisition position is outside the history
// (no queue entry, no signature to wake) takes no engine lock: it is the
// release store, then one load of the position's inHistory flag, and only
// when a signature naming the position installed meanwhile an exclusive
// reconcile returns the entry the queue rebuild may have attached. Any
// other exit is Release followed by unlock. Package comment, "The hold
// edge is the runtime's word", case (c).
func (c *Core) Exit(t, l *Node, unlock func()) {
	if !validArgs(t, l) {
		unlock()
		return
	}
	pos := c.lockFreeExit(l)
	if pos == nil && !c.fastRelease(t, l) {
		c.releaseExclusive(t, l)
	}
	unlock()
	c.exited(t, l, pos)
}

// lockFreeExit returns l's acquisition position when its holder's exit
// needs no engine section before the release store, or nil. Only the
// holder writes acqPos, so the holder reads it without the engine lock.
func (c *Core) lockFreeExit(l *Node) *Position {
	if pos := l.acqPos; !c.cfg.Serial && pos != nil && !pos.inHistory.Load() {
		return pos
	}
	return nil
}

// exited is the part of t's exit from l after the release store. A
// lock-free exit from pos loads pos's inHistory flag once more: the
// release store comes before that load, and a signature install stores
// the flag before the queue rebuild reads the word, so either the rebuild
// saw the word already free or this load sees the flag, and the exit
// reconciles.
func (c *Core) exited(t, l *Node, pos *Position) {
	if pos != nil && pos.inHistory.Load() {
		c.reconcileExit(t, l, pos)
	}
}

// reconcileExit finishes a lock-free exit from l that raced the arming of
// its acquisition position pos: if the queue rebuild attached an entry
// for t's hold, still on l, it goes back, and yielders on pos's
// signatures re-check. An entry of another thread, or none, means a new
// holder got there first (its Acquired returned the phantom) or the
// rebuild saw the word already stored.
func (c *Core) reconcileExit(t, l *Node, pos *Position) {
	c.mu.Lock()
	if e := l.acqEntry; e != nil && e.thread == t {
		c.releaseEntryLocked(pos, e)
		l.acqEntry = nil
		c.wakeYieldersLocked(pos)
	}
	c.mu.Unlock()
}

// Release implements the pre-monitorexit interception inside an engine
// section: t is about to release l with its runtime's release store. The
// hold's acquisition position and position-queue entry are removed; if
// the acquisition position appears in any history signature, all threads
// yielding on those signatures are woken to re-check (the paper's
// notifyAll over signatures containing the position). The section clears
// acqPos before it ends, so a signature installed before the release
// store attaches no entry to the hold. Exit runs this section for every
// exit that is not lock-free; Release is exported only for benchmarks.
func (c *Core) Release(t, l *Node) {
	if !validArgs(t, l) {
		return
	}
	if l.heldBy(t) && c.fastRelease(t, l) {
		return
	}
	c.releaseExclusive(t, l)
}

// releaseExclusive is Release under the exclusive lock.
func (c *Core) releaseExclusive(t, l *Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !l.heldBy(t) {
		atomic.AddUint64(&c.stats.Misuse, 1)
	}
	pos := l.acqPos
	if pos == nil {
		return
	}
	atomic.AddUint64(&c.stats.Releases, 1)
	if l.acqEntry != nil {
		c.releaseEntryLocked(pos, l.acqEntry)
	}
	l.acqPos = nil
	l.acqEntry = nil
	c.wakeYieldersLocked(pos)
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

// fastRelease removes the hold's position and entry under the shared
// lock. Requires the caller to be the word's holder (so l's acquisition
// fields are its own writes, or the exclusive queue rebuild's; Release
// checks it, Exit's caller guarantees it) and nothing to be yielding (so
// no yielder needs waking, and none can appear before the section ends).
// A queue entry at an armed position goes back under the position's leaf
// lock; a queue turning empty moves no watch (avoid.go). It is counted by
// Stats, as the acquisition minus the hold.
func (c *Core) fastRelease(t, l *Node) bool {
	// The caller holds the real lock, so l's fields are its own writes
	// and read the same outside the engine lock as under it; only the
	// yielder count can change, so it alone is checked again under the
	// lock. A release while a thread yields only ever takes the slow
	// path.
	if c.cfg.Serial || l.acqPos == nil || c.yielderCount.Load() != 0 {
		return false
	}
	c.mu.RLock()
	if c.yielderCount.Load() != 0 {
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
	l.acqPos = nil
	c.mu.RUnlock()
	return true
}

// abort undoes t's approved request, whose acquisition failed (Enter's
// acquire gave up, e.g. on process teardown): the position entry and the
// request edge are removed and yielders on affected signatures are woken.
// Aborts are rare, so there is no fast path.
func (c *Core) abort(t *Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	atomic.AddUint64(&c.stats.Aborts, 1)
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
			if h := l.holder(); h != nil {
				l.acqEntry = c.takeEntryLocked(pos, h)
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
// in-flight fast operations. The core totals are read under the same
// lock: RetireThreadNode moves a node's counts into them under it, so a
// snapshot sees each retired count exactly once, on the node or in the
// total, and successive snapshots never go down.
//
// Releases are not counted where they happen: they are the acquisitions
// less the locks still held (a holder past its acquisition, with an
// acquisition position), and the fast ones those less the releases the
// exclusive path counted. Under the exclusive lock no acquisition is
// counted and no section releases; a lock-free exit's release store may
// land during the count and only makes the snapshot newer.
func (c *Core) Stats() Stats {
	c.mu.Lock()
	out := c.stats.snapshot()
	var held uint64
	c.nodesMu.Lock()
	for _, t := range c.threadNodes {
		out.FastRequests += t.fastRequests
		out.FastAcquisitions += t.fastAcquisitions
		out.Requests += t.armedRequests
		out.AvoidanceChecks += t.avoidanceChecks
	}
	for _, l := range c.lockNodes {
		if l.acqPos != nil && l.holder() != nil {
			held++
		}
	}
	c.nodesMu.Unlock()
	c.mu.Unlock()
	out.Requests += out.FastRequests
	out.Acquisitions += out.FastAcquisitions
	exclusive := out.Releases
	out.Releases = out.Acquisitions - held
	out.FastReleases = out.Releases - exclusive
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

// validArgs is checkArgs's verdict without the error, for the hot paths.
func validArgs(t, l *Node) bool {
	return t != nil && l != nil && t.kind == ThreadNode && l.kind == LockNode
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
