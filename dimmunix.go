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
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
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
	// DeadlockError is returned under the fail policy when an acquisition
	// would complete a deadlock.
	DeadlockError = core.DeadlockError
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

// Immunity distribution types re-exported for API users.
//
// The fleet tier speaks a versioned, transport-agnostic wire protocol
// (internal/immunity/wire): an Exchange hub holds no references to
// device services — phones attach through a Transport (the in-process
// Loopback or the TCP transport) with ConnectExchange, report local
// detections upward, and receive fleet-armed signatures as delta
// pushes. Give the hub a ProvenanceStore (NewFileProvenance) and its
// confirm-before-arm state survives restarts.
type (
	// ImmunityService is the on-device hub: single writer of the
	// persistent history and live signature fan-out to running processes.
	ImmunityService = immunity.Service
	// ImmunityServiceStats snapshot an ImmunityService's counters.
	ImmunityServiceStats = immunity.ServiceStats
	// Exchange is the cross-device hub syncing device histories across a
	// fleet with a confirm-before-arm threshold.
	Exchange = immunity.Exchange
	// ExchangeOption configures an Exchange (e.g. WithProvenanceStore).
	ExchangeOption = immunity.ExchangeOption
	// ExchangeStats snapshot an Exchange's counters (epoch, devices,
	// confirmations vs. echoes, delta batching).
	ExchangeStats = immunity.ExchangeStats
	// ExchangeClient bridges one device's ImmunityService to an Exchange
	// over a Transport, with automatic reconnect + resubscribe-from-epoch.
	ExchangeClient = immunity.ExchangeClient
	// Transport moves wire messages between a device and an Exchange.
	Transport = immunity.Transport
	// ExchangeServer serves an Exchange over TCP (length-prefixed
	// binary wire frames).
	ExchangeServer = immunity.ExchangeServer
	// ProvenanceStore persists the hub's per-signature fleet state
	// across restarts.
	ProvenanceStore = immunity.ProvenanceStore
	// FileProvenanceOption configures a file provenance store
	// (WithCompactionCounters).
	FileProvenanceOption = immunity.FileProvenanceOption
	// Provenance is one fleet signature's audit record (first-seen device,
	// confirmation count, armed state, owning hub in a cluster).
	Provenance = immunity.Provenance
	// HubCluster federates several Exchange hubs into one logical fleet
	// hub: per-signature ownership via a rendezvous ring, hub-to-hub
	// report forwarding and arm broadcasting.
	HubCluster = cluster.Node
	// HubClusterConfig assembles one cluster node: the hub, its cluster
	// id, and the peer members.
	HubClusterConfig = cluster.Config
	// HubClusterMember names one remote hub of a cluster and the
	// transport that reaches it.
	HubClusterMember = cluster.Member
	// MetricsRegistry is a dependency-free instrument registry (counters,
	// gauges, histograms) rendered in Prometheus text format. Share one
	// across an Exchange (WithMetricsRegistry), a HubCluster
	// (HubClusterConfig.Metrics), and device clients (WithClientMetrics)
	// to observe a whole fleet topology on one page.
	MetricsRegistry = metrics.Registry
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

// NewImmunityService creates a device's live-propagation hub over an
// optional backing store (nil keeps the history in memory only). Attach
// it to a Runtime with WithImmunityService; connect it to an Exchange for
// fleet-wide immunity.
func NewImmunityService(name string, store HistoryStore) (*ImmunityService, error) {
	return immunity.NewService(name, store)
}

// NewExchange creates a fleet signature exchange that arms a signature
// fleet-wide once confirmThreshold distinct devices have reported it.
// With WithProvenanceStore the hub reloads its confirm-before-arm state
// on restart.
func NewExchange(confirmThreshold int, opts ...ExchangeOption) (*Exchange, error) {
	return immunity.NewExchange(confirmThreshold, opts...)
}

// WithProvenanceStore attaches durable fleet provenance to an Exchange.
func WithProvenanceStore(store ProvenanceStore) ExchangeOption {
	return immunity.WithProvenanceStore(store)
}

// WithMetricsRegistry shares reg with an Exchange: the hub's counters,
// session gauges, push-queue depth, and latency histograms land on it
// (instead of a private registry) for scraping alongside other hubs'.
func WithMetricsRegistry(reg *MetricsRegistry) ExchangeOption {
	return immunity.WithMetricsRegistry(reg)
}

// NewFileProvenance creates a file-backed provenance store: a binary,
// CRC-checked, last-wins upsert log that drops a torn tail on load and
// compacts itself once dead records outnumber live ones.
func NewFileProvenance(path string, opts ...FileProvenanceOption) ProvenanceStore {
	return immunity.NewFileProvenance(path, opts...)
}

// WithCompactionCounters mirrors a file provenance store's compaction
// activity onto registry counters (register them on the hub's shared
// MetricsRegistry to watch the log's health on /metrics).
func WithCompactionCounters(compactions, compactErrors *metrics.Counter) FileProvenanceOption {
	return immunity.WithCompactionCounters(compactions, compactErrors)
}

// NewLoopback creates the in-process transport for hub: the full wire
// protocol with no sockets.
func NewLoopback(hub *Exchange) Transport { return immunity.NewLoopback(hub) }

// NewTCPTransport creates a transport dialing the exchange served at
// addr (see ServeExchangeTCP and cmd/immunityd -serve).
func NewTCPTransport(addr string) Transport { return immunity.NewTCPTransport(addr) }

// ServeExchangeTCP serves hub on a TCP listen address ("host:port";
// ":0" picks a free port — read it back with Addr).
func ServeExchangeTCP(hub *Exchange, addr string) (*ExchangeServer, error) {
	return immunity.ServeTCP(hub, addr)
}

// ExchangeClientOption configures an exchange client at connect time
// (e.g. WithClientMetrics).
type ExchangeClientOption = immunity.ClientOption

// WithClientMetrics mirrors a device client's session health
// (reconnects, reports sent, fleet installs) onto reg, labelled by
// device id.
func WithClientMetrics(reg *MetricsRegistry) ExchangeClientOption {
	return immunity.WithClientMetrics(reg)
}

// ConnectExchange attaches a device's ImmunityService to a fleet
// exchange through a transport. The client keeps itself connected:
// dropped sessions are redialed and resumed from the last applied fleet
// epoch (tracked per hub incarnation, so one device can roam between
// the hubs of a cluster), and the hub restores the device's
// confirmation state by its device id.
func ConnectExchange(t Transport, deviceID string, svc *ImmunityService, opts ...ExchangeClientOption) (*ExchangeClient, error) {
	return immunity.Connect(t, deviceID, svc, opts...)
}

// Core option constructors re-exported for API users. Starvation handling
// has no option: an avoidance-induced deadlock is always detected at the
// yield or edge that closes it, recorded as a starvation signature, and
// the yielder resumed.
var (
	// WithOuterDepth sets the outer call-stack depth (paper default: 1).
	WithOuterDepth = core.WithOuterDepth
	// WithAvoidance toggles signature avoidance.
	WithAvoidance = core.WithAvoidance
	// WithDetection toggles deadlock detection.
	WithDetection = core.WithDetection
	// WithQueueReuse toggles the position-queue entry recycling.
	WithQueueReuse = core.WithQueueReuse
	// WithSerialEngine selects the serial reference engine (the paper's
	// single global lock) instead of the sharded low-contention fast path.
	WithSerialEngine = core.WithSerialEngine
)

// NewSite declares a synchronized-block site (for the static-id fast path
// and the sync-site census).
func NewSite(class, method string, line int) *Site { return vm.NewSite(class, method, line) }

// NewCensus returns an empty synchronization-site census.
func NewCensus() *Census { return vm.NewCensus() }
