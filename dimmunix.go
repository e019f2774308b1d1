// Package dimmunix is a Go reproduction of "Platform-wide Deadlock
// Immunity for Mobile Phones" (Jula, Rensch, Candea — EPFL, 2011): the
// Dimmunix deadlock-immunity system integrated into a Dalvik-like managed
// runtime, so that every process forked from the runtime's Zygote runs
// with deadlock detection, persistent deadlock signatures, and avoidance
// of previously observed deadlocks — with no application changes.
//
// The package is a facade over the implementation packages:
//
//   - internal/core — the Dimmunix core: resource-allocation-graph
//     deadlock detection, signature extraction, persistent history, and
//     instantiation-avoidance (suspending threads whose lock acquisition
//     would re-create a recorded deadlock pattern).
//   - internal/vm — the managed-runtime substrate: VM threads with
//     explicit call stacks, objects with Dalvik-style thin/fat lock words,
//     recursive monitors with wait/notify, and the three Dimmunix
//     interception points around monitorenter/monitorexit.
//   - internal/android — the simulated platform: Looper/Handler, system
//     services (including the NotificationManagerService/StatusBarService
//     pair whose real deadlock, Android issue 7986, the paper reproduces),
//     watchdog, and the Phone boot/freeze/reboot lifecycle.
//
// # Quick start
//
//	rt := dimmunix.New(dimmunix.WithHistoryFile("deadlocks.hist"))
//	defer rt.Shutdown()
//	proc, _ := rt.Fork("my-app")
//	obj := proc.NewObject("shared")
//	proc.Start("worker", func(t *dimmunix.Thread) {
//		t.Call("com.example.Worker", "run", 42, func() {
//			obj.Synchronized(t, func() {
//				// critical section — deadlock-immune
//			})
//		})
//	})
//
// The first time a deadlock manifests it is detected and its signature is
// appended to the history file; every process forked afterwards (or after
// a restart) avoids that deadlock deterministically.
package dimmunix

import (
	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// Core types re-exported for API users.
type (
	// Frame identifies a program location (class, method, line).
	Frame = core.Frame
	// CallStack is a sequence of frames, innermost first.
	CallStack = core.CallStack
	// Signature is a deadlock antibody: one (outer, inner) call-stack
	// pair per deadlocked thread.
	Signature = core.Signature
	// SigPair is one thread's contribution to a signature.
	SigPair = core.SigPair
	// SignatureInfo is an immutable signature snapshot.
	SignatureInfo = core.SignatureInfo
	// SigKind distinguishes deadlock from starvation signatures.
	SigKind = core.SigKind
	// HistoryStore is the persistent deadlock history.
	HistoryStore = core.HistoryStore
	// Event is an observable core occurrence (detection, yield, ...).
	Event = core.Event
	// EventKind identifies an event's type.
	EventKind = core.EventKind
	// CoreStats are the immunity engine's activity counters.
	CoreStats = core.Stats
	// CoreMemStats describe the immunity engine's memory footprint.
	CoreMemStats = core.MemStats
	// CoreOption configures a process's core.
	CoreOption = core.Option
)

// VM types re-exported for API users.
type (
	// Process is an isolated set of threads, objects and monitors with
	// its own Dimmunix instance.
	Process = vm.Process
	// Thread is a VM thread (a goroutine with an explicit call stack).
	Thread = vm.Thread
	// Object is a synchronizable object (monitorenter/monitorexit,
	// wait/notify).
	Object = vm.Object
	// Monitor is an inflated (fat) lock.
	Monitor = vm.Monitor
	// Site is a static synchronization statement.
	Site = vm.Site
	// ProcessStats are a process's synchronization counters.
	ProcessStats = vm.ProcessStats
	// Census tallies static synchronization sites.
	Census = vm.Census
)

// Signature kinds.
const (
	DeadlockSig   = core.DeadlockSig
	StarvationSig = core.StarvationSig
)

// Core event kinds.
const (
	EventDeadlockDetected   = core.EventDeadlockDetected
	EventSignatureLoaded    = core.EventSignatureLoaded
	EventYield              = core.EventYield
	EventResume             = core.EventResume
	EventStarvation         = core.EventStarvation
	EventDuplicateDeadlock  = core.EventDuplicateDeadlock
	EventSignatureInstalled = core.EventSignatureInstalled
)

// Errors re-exported for matching with errors.Is.
var (
	// ErrCoreClosed: operation on a closed core (process teardown).
	ErrCoreClosed = core.ErrCoreClosed
	// ErrNotOwner: monitor operation by a non-owner.
	ErrNotOwner = vm.ErrNotOwner
	// ErrInterrupted: thread interrupted while waiting.
	ErrInterrupted = vm.ErrInterrupted
	// ErrProcessKilled: operation abandoned during teardown.
	ErrProcessKilled = vm.ErrProcessKilled
)

// NewFileHistory creates a file-backed persistent history (the on-flash
// history file of the paper).
func NewFileHistory(path string) HistoryStore { return core.NewFileHistory(path) }

// NewMemHistory creates an in-memory history (shared across the runtime's
// processes; useful for tests and simulations).
func NewMemHistory() HistoryStore { return core.NewMemHistory() }

// WithOuterDepth sets the outer call-stack depth (paper default: 1).
// Starvation handling has no option: an avoidance-induced deadlock is
// always detected at the yield or edge that closes it, recorded as a
// starvation signature, and the yielder resumed.
var WithOuterDepth = core.WithOuterDepth

// NewSite declares a synchronized-block site (for the static-id fast path
// and the sync-site census).
func NewSite(class, method string, line int) *Site { return vm.NewSite(class, method, line) }

// NewCensus returns an empty synchronization-site census.
func NewCensus() *Census { return vm.NewCensus() }
