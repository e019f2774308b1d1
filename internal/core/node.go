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
// under the shared engine lock only by the thread that holds the
// embedding runtime's real lock, which orders one holder's writes before
// the next one's (package comment, "Fast-path safety argument").
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
	// fastRequests/fastAcquisitions/fastReleases count this thread's
	// fast-path operations, and armedRequests/avoidanceChecks its EnterFast
	// approvals at armed positions and the candidate signatures they
	// checked (Stats folds those into Requests and AvoidanceChecks). Plain
	// fields: only the owning thread writes them (under the shared engine
	// lock), and Core.Stats aggregates them under the exclusive lock,
	// which excludes all fast-path writers.
	fastRequests     uint64
	fastAcquisitions uint64
	fastReleases     uint64
	armedRequests    uint64
	avoidanceChecks  uint64

	// ---- lock-node state ----

	// owner is the thread currently holding this lock (the hold edge
	// lock→thread). nil when the lock is free. A plain field: written only
	// inside an engine section by the thread that holds the embedding
	// runtime's real lock, and read only under the exclusive engine lock
	// or by that thread. Nothing on the fast path reads another thread's
	// hold edge: the runtime's tryLock answers "is it free".
	owner *Node
	// acqPos is the position at which owner acquired the lock — the
	// paper's l.acqPos, i.e. the candidate outer call stack.
	acqPos *Position
	// acqEntry is the owner's entry in acqPos's queue for this holding.
	acqEntry *entry
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
