package vm

import (
	"fmt"
	"sync"

	"github.com/dimmunix/dimmunix/internal/core"
)

// SiteKind classifies a synchronization site in simulated platform code,
// for the §3.2 census (Android 2.2 essential applications contain 1,050
// synchronized blocks/methods and only 15 explicit lock/unlock sites).
type SiteKind int

// Synchronization site kinds.
const (
	// SyncBlock is a synchronized(obj){...} block.
	SyncBlock SiteKind = iota + 1
	// SyncMethod is a synchronized method (a block over `this`).
	SyncMethod
	// ExplicitLock is an explicit lock()/unlock() pair (the minority case
	// Android Dimmunix does not intercept; counted for the census).
	ExplicitLock
)

// String returns a readable kind name.
func (k SiteKind) String() string {
	switch k {
	case SyncBlock:
		return "synchronized-block"
	case SyncMethod:
		return "synchronized-method"
	case ExplicitLock:
		return "explicit-lock"
	default:
		return fmt.Sprintf("SiteKind(%d)", int(k))
	}
}

// Site is a static synchronization statement: a program location that
// performs monitorenter. Sites serve two purposes: they are the unit of
// the §3.2 census, and they implement the §4 proposal of compiler-assigned
// static ids ("the compiler could produce a unique id for each
// synchronization statement ... retrieving the id would not incur any
// performance penalty") — EnterAt with a Site skips the stack capture.
type Site struct {
	// Frame is the site's program location.
	Frame core.Frame
	// Kind classifies the site.
	Kind SiteKind
}

// NewSite declares a synchronized-block site.
func NewSite(class, method string, line int) *Site {
	return &Site{Frame: core.Frame{Class: class, Method: method, Line: line}, Kind: SyncBlock}
}

// NewMethodSite declares a synchronized-method site.
func NewMethodSite(class, method string, line int) *Site {
	return &Site{Frame: core.Frame{Class: class, Method: method, Line: line}, Kind: SyncMethod}
}

// position resolves (and caches) the site's interned Position in process
// p. Positions are per-process, so the cache lives on the process. The
// cache is lock-free on the hit path (every monitorenter at an already
// seen site), keeping static-id interception off all process locks — the
// VM half of the core's sharded low-contention fast path. Interning is
// idempotent (the core's sharded table returns the same *Position for the
// same stack), so a racing first use stores the same value.
func (s *Site) position(p *Process) (*core.Position, error) {
	if pos, ok := p.sites.Load(s); ok {
		return pos.(*core.Position), nil
	}
	pos, err := p.dim.Intern(core.CallStack{s.Frame})
	if err != nil {
		return nil, err
	}
	if _, loaded := p.sites.LoadOrStore(s, pos); !loaded {
		p.siteCount.Add(1)
	}
	return pos, nil
}

// Synchronized runs body as a synchronized(o){...} block on thread t. If
// the monitor cannot be entered because the process is being torn down (or
// a fail-policy deadlock fires), the thread unwinds — the VM equivalent of
// a Java thread dying from an exception; Process.Start's trampoline
// absorbs it.
func (o *Object) Synchronized(t *Thread, body func()) {
	if err := o.Enter(t); err != nil {
		unwind(err)
	}
	defer o.exitOrUnwind(t)
	body()
}

// SynchronizedAt is Synchronized with a static site id (ablation A5).
func (o *Object) SynchronizedAt(t *Thread, site *Site, body func()) {
	if err := o.EnterAt(t, site); err != nil {
		unwind(err)
	}
	defer o.exitOrUnwind(t)
	body()
}

// exitOrUnwind releases the monitor on block exit. During a kill-driven
// unwind the exit may legitimately fail (e.g. a Wait abandoned the monitor
// without re-acquiring); re-panicking there would mask the original
// teardown error, so failures on a dying process are swallowed.
func (o *Object) exitOrUnwind(t *Thread) {
	if err := o.Exit(t); err != nil && !o.proc.isKilled() {
		unwind(err)
	}
}

// Census tallies the static synchronization sites declared by the
// simulated platform and applications, reproducing the §3.2 measurement
// that justifies handling only synchronized blocks/methods.
type Census struct {
	mu    sync.Mutex
	sites []*Site
}

// NewCensus returns an empty census.
func NewCensus() *Census { return &Census{} }

// Register adds sites to the census.
func (c *Census) Register(sites ...*Site) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sites = append(c.sites, sites...)
}

// CensusCounts summarizes a census.
type CensusCounts struct {
	SyncBlocks      int
	SyncMethods     int
	ExplicitLocks   int
	TotalSyncSites  int // blocks + methods
	TotalSites      int
	ClassesDeclared int
}

// Counts tallies the registered sites.
func (c *Census) Counts() CensusCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	classes := make(map[string]bool)
	var out CensusCounts
	for _, s := range c.sites {
		classes[s.Frame.Class] = true
		switch s.Kind {
		case SyncBlock:
			out.SyncBlocks++
		case SyncMethod:
			out.SyncMethods++
		case ExplicitLock:
			out.ExplicitLocks++
		}
	}
	out.TotalSyncSites = out.SyncBlocks + out.SyncMethods
	out.TotalSites = len(c.sites)
	out.ClassesDeclared = len(classes)
	return out
}
