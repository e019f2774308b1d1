package core

import (
	"sync/atomic"
	"unsafe"
)

// Stats counts core activity. All counters are cumulative since Core
// creation. Snapshot with Core.Stats. Inside the core the exclusive
// sections count in Core.stats with sync/atomic, and the shared sections
// count on their thread's node, in plain fields only that thread writes;
// Core.Stats adds the two under the exclusive lock. The
// Requests/Acquisitions/Releases totals include their fast-path subsets,
// which the internal representation keeps in the Fast* fields only
// (folded together by Core.Stats).
type Stats struct {
	// Requests counts monitorenter interceptions: Request calls on an
	// open core, and successful EnterFast calls.
	Requests uint64
	// FastRequests counts successful EnterFast calls at positions named by
	// no signature: approvals that needed no avoidance. An EnterFast at an
	// armed position, approved under the shared lock because no signature
	// is exposed there, counts in Requests only, as Request would have,
	// and Request never counts here. Every successful EnterFast counts as
	// one fast acquisition.
	FastRequests uint64
	// Acquisitions counts published hold edges: Acquired calls, including
	// fast-path ones, and successful EnterFast calls. A vm process counts
	// its Dimmunix monitor enters here and nowhere else.
	Acquisitions uint64
	// FastAcquisitions counts Acquired calls on the fast path, and
	// successful EnterFast calls.
	FastAcquisitions uint64
	// Releases counts Release calls (monitorexit interceptions),
	// including fast-path ones.
	Releases uint64
	// FastReleases counts Release calls on the fast path.
	FastReleases uint64
	// Aborts counts approved requests undone via Abort.
	Aborts uint64
	// CycleWalks counts RAG chain walks performed by detection.
	CycleWalks uint64
	// DeadlocksDetected counts new deadlock signatures discovered.
	DeadlocksDetected uint64
	// DuplicateDeadlocks counts detections whose signature was already in
	// the history (the same bug reoccurring).
	DuplicateDeadlocks uint64
	// AvoidanceChecks counts candidate deadlock signatures examined by
	// avoidance: one per deadlock signature naming the requested position
	// (up to the first instantiable one), whether the watched-slot index
	// or the full matcher settled it, on the exclusive path and in an
	// EnterFast at an armed position alike.
	AvoidanceChecks uint64
	// InstantiationsFound counts matchings that succeeded (led to a yield
	// or a starvation verdict).
	InstantiationsFound uint64
	// Yields counts avoidance suspensions.
	Yields uint64
	// Resumes counts threads that resumed from avoidance and proceeded.
	Resumes uint64
	// Starvations counts avoidance-induced deadlocks detected.
	Starvations uint64
	// SuppressedYields counts yields skipped because the yield state
	// matched a recorded starvation signature.
	SuppressedYields uint64
	// ForcedResumes counts threads force-resumed by starvation handling.
	ForcedResumes uint64
	// SignaturesLoaded counts signatures installed from the store at
	// construction.
	SignaturesLoaded uint64
	// SignaturesAdded counts new signatures installed at runtime.
	SignaturesAdded uint64
	// SignaturesInstalled counts signatures hot-installed from outside the
	// process (the immunity service's live propagation path); each is also
	// counted in SignaturesAdded.
	SignaturesInstalled uint64
	// PersistErrors counts failed history store appends (the in-memory
	// history still protects the current run).
	PersistErrors uint64
	// EventsDropped counts events discarded because the event buffer was
	// full.
	EventsDropped uint64
	// Misuse counts API sequencing violations detected and tolerated
	// (e.g. Release of a lock the core never saw acquired).
	Misuse uint64
}

// snapshot atomically reads every counter. The Fast* fields of the
// internal representation hold only the folded counts of retired thread
// nodes; Core.Stats adds the live nodes' counters and folds the totals.
func (s *Stats) snapshot() Stats {
	out := Stats{
		Requests:            atomic.LoadUint64(&s.Requests),
		Acquisitions:        atomic.LoadUint64(&s.Acquisitions),
		Releases:            atomic.LoadUint64(&s.Releases),
		FastRequests:        atomic.LoadUint64(&s.FastRequests),
		FastAcquisitions:    atomic.LoadUint64(&s.FastAcquisitions),
		FastReleases:        atomic.LoadUint64(&s.FastReleases),
		Aborts:              atomic.LoadUint64(&s.Aborts),
		CycleWalks:          atomic.LoadUint64(&s.CycleWalks),
		DeadlocksDetected:   atomic.LoadUint64(&s.DeadlocksDetected),
		DuplicateDeadlocks:  atomic.LoadUint64(&s.DuplicateDeadlocks),
		AvoidanceChecks:     atomic.LoadUint64(&s.AvoidanceChecks),
		InstantiationsFound: atomic.LoadUint64(&s.InstantiationsFound),
		Yields:              atomic.LoadUint64(&s.Yields),
		Resumes:             atomic.LoadUint64(&s.Resumes),
		Starvations:         atomic.LoadUint64(&s.Starvations),
		SuppressedYields:    atomic.LoadUint64(&s.SuppressedYields),
		ForcedResumes:       atomic.LoadUint64(&s.ForcedResumes),
		SignaturesLoaded:    atomic.LoadUint64(&s.SignaturesLoaded),
		SignaturesAdded:     atomic.LoadUint64(&s.SignaturesAdded),
		SignaturesInstalled: atomic.LoadUint64(&s.SignaturesInstalled),
		PersistErrors:       atomic.LoadUint64(&s.PersistErrors),
		EventsDropped:       atomic.LoadUint64(&s.EventsDropped),
		Misuse:              atomic.LoadUint64(&s.Misuse),
	}
	return out
}

// MemStats describes the memory footprint of a Core's data structures —
// the quantity behind the paper's 4% platform memory overhead claim.
type MemStats struct {
	// Positions is the number of interned Position objects.
	Positions int
	// Signatures is the number of installed signatures.
	Signatures int
	// Nodes is the number of live RAG nodes (created minus retired).
	Nodes int
	// QueueEntriesLive is the number of entries currently in position
	// queues (threads holding or allowed to wait).
	QueueEntriesLive int
	// QueueEntriesFree is the number of entries parked on free lists.
	QueueEntriesFree int
	// QueueEntriesAllocated is the total number of entries ever allocated;
	// with queue reuse on, it plateaus at the high-water mark of
	// concurrent acquisitions per position.
	QueueEntriesAllocated uint64
	// Bytes is the estimated total footprint in bytes of positions,
	// entries, signatures and nodes (struct sizes plus owned strings and
	// slices).
	Bytes int64
}

// Struct sizes used by the footprint estimate.
const (
	sizeofPosition  = int64(unsafe.Sizeof(Position{}))
	sizeofEntry     = int64(unsafe.Sizeof(entry{}))
	sizeofNode      = int64(unsafe.Sizeof(Node{}))
	sizeofSignature = int64(unsafe.Sizeof(Signature{}))
	sizeofFrame     = int64(unsafe.Sizeof(Frame{}))
	sizeofSigPair   = int64(unsafe.Sizeof(SigPair{}))
)

// stackBytes estimates the owned bytes of a call stack.
func stackBytes(cs CallStack) int64 {
	b := sizeofFrame * int64(len(cs))
	for _, f := range cs {
		b += int64(len(f.Class) + len(f.Method))
	}
	return b
}

// memStatsLocked computes the footprint. Caller must hold c.mu
// exclusively (freezing the position queues); the shard and history locks
// are taken per the lock order.
func (c *Core) memStatsLocked() MemStats {
	// Live nodes only: retired (dead-thread) nodes no longer occupy
	// memory, so the footprint counts the registry, not the cumulative
	// creation counter.
	c.nodesMu.Lock()
	nodes := int64(len(c.threadNodes) + len(c.lockNodes))
	c.nodesMu.Unlock()
	ms := MemStats{
		Nodes:                 int(nodes),
		QueueEntriesAllocated: c.entriesAllocated.Load(),
	}
	var bytes int64
	c.positions.forEach(func(key string, p *Position) {
		ms.Positions++
		bytes += sizeofPosition + int64(len(key)) + stackBytes(p.stack)
		ms.QueueEntriesLive += p.queue.len()
		ms.QueueEntriesFree += p.free.len()
		// sigs slice elements.
		bytes += int64(len(p.sigs)) * 8
	})
	bytes += int64(ms.QueueEntriesLive+ms.QueueEntriesFree) * sizeofEntry
	c.histMu.Lock()
	ms.Signatures = len(c.history)
	for _, s := range c.history {
		bytes += sizeofSignature
		for _, pr := range s.Pairs {
			bytes += sizeofSigPair + stackBytes(pr.Outer) + stackBytes(pr.Inner)
		}
		bytes += int64(len(s.slots)) * 8
	}
	c.histMu.Unlock()
	bytes += nodes * sizeofNode
	ms.Bytes = bytes
	return ms
}
