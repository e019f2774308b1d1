package core

import "fmt"

// NodeKind distinguishes the two kinds of RAG nodes.
type NodeKind int

// RAG node kinds. The paper's initNode takes T_THREAD or T_MONITOR.
const (
	ThreadNode NodeKind = iota + 1
	LockNode
)

// String returns a human-readable kind name.
func (k NodeKind) String() string {
	switch k {
	case ThreadNode:
		return "thread"
	case LockNode:
		return "lock"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a resource allocation graph (RAG) node, corresponding to either a
// thread or a lock (monitor). The paper embeds a Node in Dalvik's Thread
// and Monitor structs for zero-overhead lookup; here the VM keeps a *Node
// pointer inside its Thread and Monitor types, created via
// Core.NewThreadNode / Core.NewLockNode.
//
// The RAG for mutex-only synchronization is sparse: a thread requests at
// most one lock at a time and a lock has at most one owner, so edges are
// plain pointer fields and cycle detection is a chain walk.
//
// Every field is plain. Mutable fields are guarded by the owning Core's
// engine lock. Thread-node fields are additionally written under the
// shared engine lock, but only ever by the thread the node belongs to, so
// shared-lock holders never race on them. Lock-node fields are written
// inside an engine section only by the thread that holds the embedding
// runtime's real lock, which orders one holder's writes before the next
// one's, or by an exclusive section. The hold edge itself is not a field:
// it is the runtime's ownership word, read through Word (package comment,
// "The hold edge is the runtime's word").
type Node struct {
	kind NodeKind
	id   uint64
	name string

	// ---- thread-node state ----

	// reqLock is the lock this thread has been approved to wait for and has
	// not yet acquired (the request edge thread→lock). Set when Request
	// approves, cleared by Acquired or Abort.
	reqLock *Node
	// reqPos is the position of the pending request.
	reqPos *Position
	// reqEntry is the thread's entry in reqPos's queue for the pending
	// acquisition ("allowed to wait"). Transferred to the lock node on
	// Acquired.
	reqEntry *entry
	// yield is non-nil while the thread is suspended by avoidance, and
	// records which signature it yields on and the instantiation witness.
	yield *yieldRecord
	// forceResume, when true, makes the next avoidance check approve the
	// thread unconditionally. Set by starvation handling (§2.2: "resumes
	// the suspended thread").
	forceResume bool
	// stackFn captures the thread's current full call stack; used only for
	// the informational inner call stacks of signatures. May be nil.
	stackFn func() CallStack
	// fastRequests/fastAcquisitions count this thread's fast-path
	// operations, and armedRequests/avoidanceChecks its EnterFast
	// approvals at armed positions and the candidate signatures they
	// checked (Stats folds those into Requests and AvoidanceChecks). Plain
	// fields: only the owning thread writes them (under the shared engine
	// lock), and Core.Stats aggregates them under the exclusive lock,
	// which excludes all fast-path writers. Releases are not counted here:
	// Stats derives them from acquisitions and the locks still held.
	fastRequests     uint64
	fastAcquisitions uint64
	armedRequests    uint64
	avoidanceChecks  uint64

	// ---- lock-node state ----

	// word is the embedding runtime's ownership word for this lock, handed
	// over at NewMonitorNode: the hold edge lock→thread. nil for a lock
	// made by NewLockNode, which the core never sees held.
	word Word
	// acqPos is the position at which the holder acquired the lock — the
	// paper's l.acqPos, i.e. the candidate outer call stack. It describes
	// a hold only while the word names a holder that has finished its
	// acquisition (holder): a lock-free exit leaves it behind, and the next
	// acquisition overwrites it. A release inside an engine section clears
	// it, and so does the exclusive reconcile of a lock-free exit.
	acqPos *Position
	// acqEntry is the holder's entry in acqPos's queue for this holding. A
	// non-nil entry whose thread no longer holds the word is a phantom: the
	// queue rebuild attached it while the holder's lock-free exit was
	// storing the word, and only an exclusive section returns it.
	acqEntry *entry
}

// Word is the embedding runtime's ownership word for one lock, and the
// RAG's hold edge: the runtime's acquiring CAS publishes the holder and its
// release store retracts it. The core never writes it. Holder returns the
// node of the thread holding the lock, or nil when it is free; it must be
// safe to call from any goroutine and must not block.
type Word interface {
	Holder() *Node
}

// holder is the thread holding l as the RAG sees it: the word's holder,
// unless that thread's approved request is for l itself. Such a thread
// won the runtime's CAS and has not yet called Acquired; it is running,
// not waiting, and its hold has no acquisition position yet, so l reads
// as free (package comment, case (a)). Caller must hold c.mu exclusively.
func (l *Node) holder() *Node {
	if l.word == nil {
		return nil
	}
	h := l.word.Holder()
	if h != nil && h.reqLock == l {
		return nil
	}
	return h
}

// heldBy reports whether the word names t as l's holder. A lock with no
// word is taken to be held by whoever releases it.
func (l *Node) heldBy(t *Node) bool {
	return l.word == nil || l.word.Holder() == t
}

// Kind returns the node kind.
func (n *Node) Kind() NodeKind { return n.kind }

// ID returns the node's unique id within its Core.
func (n *Node) ID() uint64 { return n.id }

// Name returns the diagnostic name given at creation.
func (n *Node) Name() string { return n.name }

// String renders the node for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("%s#%d(%s)", n.kind, n.id, n.name)
}

// yieldRecord captures one avoidance suspension: the signature yielded on
// and the witness assignment that made the instantiation possible. The
// witness set feeds the starvation (avoidance-induced deadlock) cycle
// check.
type yieldRecord struct {
	sig *Signature
	// witnesses maps each matched thread to the position it was matched
	// at, excluding the yielding thread itself.
	witnesses map[*Node]*Position
	// pos is the position the yielding thread was requesting at.
	pos *Position
}

// innerStack captures the thread's current stack via stackFn. When there
// is no capture function, or it has no stack to give (a VM thread that is
// running owns its frames), it returns a copy of fallback, or a
// placeholder frame if fallback is nil. Signatures always carry a
// non-empty inner stack so they can round-trip through the history file.
func (n *Node) innerStack(fallback CallStack) CallStack {
	if n.stackFn != nil {
		if cs := n.stackFn(); len(cs) > 0 {
			return cs.Clone()
		}
	}
	if len(fallback) > 0 {
		return fallback.Clone()
	}
	return CallStack{{Class: "unknown", Method: "unknown", Line: 0}}
}
