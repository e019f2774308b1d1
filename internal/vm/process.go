package vm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

// Process is a simulated application process: an isolated set of threads,
// objects and monitors with its own Dimmunix instance (or none, in vanilla
// mode). Platform-wide immunity runs user-space Dimmunix per process, "in
// isolation from the other applications" (§3.1); the only state processes
// share is the persistent history store their cores load at fork time.
type Process struct {
	id   int
	name string

	// dim is this process's Dimmunix core; nil when running vanilla.
	dim *core.Core
	// captureDepth is how many frames monitorenter captures (the core's
	// outer depth; 1 in the paper).
	captureDepth int

	// fattenMu serializes lock fattening — the paper's globalLock around
	// dvmCreateMonitor.
	fattenMu sync.Mutex

	mu       sync.Mutex
	threads  map[uint32]*Thread
	nextTID  uint32
	monitors []*Monitor
	objects  int
	// live holds the threads that have not exited, whose monitorenter
	// counts are read off the threads themselves; exited holds the counts
	// of those that have, folded in by exit. Both change only together,
	// under mu, and are read under it, so a sample counts every thread
	// exactly once even while one exits.
	live   map[*Thread]struct{}
	exited enterCounts

	// sites caches each static Site's interned Position (sync.Map: written
	// once per site at first use, then read on every monitorenter at that
	// site from many threads — the read-mostly case sync.Map is for).
	// siteCount mirrors the number of cached sites for the footprint
	// estimate.
	sites     sync.Map // *Site -> *core.Position
	siteCount atomic.Int64

	killCh chan struct{}
	killed atomic.Bool
	wg     sync.WaitGroup

	// killHooks run once at the start of Kill, before the core closes —
	// the Zygote registers the signature-bus unsubscribe here so delta
	// delivery stops before the process is torn down.
	killHooksMu sync.Mutex
	killHooks   []func()

	stats procStats
}

// procStats are the process's counters of rare synchronization events.
// Monitorenters are counted per thread (Thread.thinEnters and its
// siblings) and, for a Dimmunix fat enter, by the core: see enters.
type procStats struct {
	inflations atomic.Uint64
	waits      atomic.Uint64
	notifies   atomic.Uint64
}

// enterCounts tallies completed monitorenters by kind; each enter is
// exactly one of a thin, a fat or a recursive enter.
type enterCounts struct{ thin, fat, recursive uint64 }

func (c *enterCounts) add(o enterCounts) {
	c.thin += o.thin
	c.fat += o.fat
	c.recursive += o.recursive
}

func (c enterCounts) total() uint64 { return c.thin + c.fat + c.recursive }

// ProcessStats is a snapshot of a process's synchronization counters.
type ProcessStats struct {
	// ThinEnters counts uncontended thin-lock acquisitions.
	ThinEnters uint64
	// FatEnters counts monitor (fat) acquisitions. In a Dimmunix process
	// every one of them is a core acquisition, and this is the core's
	// Stats.Acquisitions.
	FatEnters uint64
	// RecursiveEnters counts re-entrant acquisitions.
	RecursiveEnters uint64
	// Inflations counts thin→fat promotions.
	Inflations uint64
	// Waits counts Object.wait calls.
	Waits uint64
	// Notifies counts waiters woken by notify/notifyAll.
	Notifies uint64
	// SyncOps counts all completed monitorenters (the paper's
	// "synchronizations" throughput unit).
	SyncOps uint64
	// Threads is the number of threads ever started.
	Threads int
	// Monitors is the number of fat monitors created.
	Monitors int
	// Objects is the number of objects created.
	Objects int
}

// newProcess builds a process around an optional Dimmunix core.
func newProcess(id int, name string, dim *core.Core) *Process {
	depth := 1
	if dim != nil {
		depth = dim.Config().OuterDepth
	}
	return &Process{
		id:           id,
		name:         name,
		dim:          dim,
		captureDepth: depth,
		threads:      make(map[uint32]*Thread),
		live:         make(map[*Thread]struct{}),
		killCh:       make(chan struct{}),
	}
}

// NewProcess creates a standalone process (outside any Zygote), with dim
// optionally nil for vanilla execution. Tests and microbenchmarks use this
// directly; platform code forks processes from the Zygote.
func NewProcess(name string, dim *core.Core) *Process {
	return newProcess(0, name, dim)
}

// ID returns the process id.
func (p *Process) ID() int { return p.id }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Dimmunix returns the process's core, or nil in vanilla mode.
func (p *Process) Dimmunix() *core.Core { return p.dim }

// Killed reports whether the process has been torn down. Long-running
// thread loops must poll this (or use bounded work) so Kill can complete.
func (p *Process) Killed() bool { return p.killed.Load() }

// Dying returns a channel that is closed once Kill starts tearing the
// process down, for loops that wait on something else until then.
func (p *Process) Dying() <-chan struct{} { return p.killCh }

func (p *Process) isKilled() bool { return p.killed.Load() }

// Start launches a VM thread running fn. The thread's goroutine is tracked
// by the process and reaped by Kill/Join.
func (p *Process) Start(name string, fn func(*Thread)) (*Thread, error) {
	if fn == nil {
		return nil, fmt.Errorf("vm: nil thread function")
	}
	p.mu.Lock()
	if p.killed.Load() {
		p.mu.Unlock()
		return nil, ErrProcessDead
	}
	p.nextTID++
	t := &Thread{
		id:          p.nextTID,
		name:        name,
		proc:        p,
		interruptCh: make(chan struct{}, 1),
		done:        make(chan struct{}),
		entry:       [1]core.Frame{{Class: "vm.ThreadEntry", Method: name, Line: 0}},
	}
	t.setState(StateNew)
	if p.dim != nil {
		t.node = p.dim.NewThreadNode(name, t.CurrentStack)
	}
	p.threads[t.id] = t
	p.live[t] = struct{}{}
	p.wg.Add(1)
	p.mu.Unlock()
	go t.run(fn)
	return t, nil
}

// addKillHook registers fn to run once when the process is killed,
// before its threads and core are torn down. Hooks registered after Kill
// has started run immediately.
func (p *Process) addKillHook(fn func()) {
	p.killHooksMu.Lock()
	if !p.killed.Load() {
		p.killHooks = append(p.killHooks, fn)
		p.killHooksMu.Unlock()
		return
	}
	p.killHooksMu.Unlock()
	fn()
}

// NewObject creates a synchronizable object in this process.
func (p *Process) NewObject(name string) *Object {
	p.mu.Lock()
	p.objects++
	p.mu.Unlock()
	return &Object{name: name, proc: p}
}

// newMonitor creates a fat Monitor for obj (dvmCreateMonitor), wiring its
// RAG node when Dimmunix is enabled.
func (p *Process) newMonitor(obj *Object) *Monitor {
	m := &Monitor{obj: obj, proc: p}
	m.acqCond = sync.NewCond(&m.mu)
	if p.dim != nil {
		m.node = p.dim.NewMonitorNode(obj.name, m)
	}
	p.stats.inflations.Add(1)
	p.mu.Lock()
	p.monitors = append(p.monitors, m)
	p.mu.Unlock()
	return m
}

// exit folds an exiting thread's monitorenter counts into the process.
// Called by the thread's own goroutine once it makes no more enters.
func (p *Process) exit(t *Thread) {
	p.mu.Lock()
	p.exited.add(t.enters())
	delete(p.live, t)
	p.mu.Unlock()
}

// enters sums the process's completed monitorenters: the live threads'
// counts and the exited threads' total, read together under mu, plus, in
// a Dimmunix process, the core's acquisitions, which are its fat enters.
// Each part only grows, so successive sums never go down.
func (p *Process) enters() enterCounts {
	p.mu.Lock()
	n := p.exited
	for t := range p.live {
		n.add(t.enters())
	}
	p.mu.Unlock()
	if p.dim != nil {
		n.fat += p.dim.Stats().Acquisitions
	}
	return n
}

// SyncCount returns the number of completed monitorenters so far; the
// throughput meters sample it, live.
func (p *Process) SyncCount() uint64 { return p.enters().total() }

// Stats returns a snapshot of the process counters.
func (p *Process) Stats() ProcessStats {
	n := p.enters()
	p.mu.Lock()
	threads := len(p.threads)
	monitors := len(p.monitors)
	objects := p.objects
	p.mu.Unlock()
	return ProcessStats{
		ThinEnters:      n.thin,
		FatEnters:       n.fat,
		RecursiveEnters: n.recursive,
		Inflations:      p.stats.inflations.Load(),
		Waits:           p.stats.waits.Load(),
		Notifies:        p.stats.notifies.Load(),
		SyncOps:         n.total(),
		Threads:         threads,
		Monitors:        monitors,
		Objects:         objects,
	}
}

// SyncFootprint estimates the bytes held by the process's
// synchronization-related VM structures: fattened monitors (each carrying
// the RAG-node pointer the paper adds to struct Monitor), per-thread stack
// capture buffers and position caches, and the static-site position cache.
// Together with core.MemStats this is the Dimmunix-attributable memory of
// experiment E5.
//
// The capture buffer and the position cache belong to their thread's
// goroutine alone, so they are accounted for, not inspected: under
// Dimmunix every thread is charged a full capture buffer (captureDepth
// frames, what it grows to at its first monitorenter) and the fixed-size
// cache; a vanilla process uses neither.
func (p *Process) SyncFootprint() int64 {
	p.mu.Lock()
	monitors := len(p.monitors)
	var waitNodes int
	for _, m := range p.monitors {
		m.mu.Lock()
		waitNodes += len(m.waitSet)
		m.mu.Unlock()
	}
	threads := len(p.threads)
	p.mu.Unlock()

	var perThread int64
	if p.dim != nil {
		perThread = int64(p.captureDepth)*sizeofFrame + sizeofPosCache
	}
	sites := int(p.siteCount.Load())

	return int64(monitors)*sizeofMonitor +
		int64(waitNodes)*sizeofWaitNode +
		int64(threads)*perThread +
		int64(sites)*sizeofSiteEntry
}

// Threads returns the process's threads (live and terminated).
func (p *Process) Threads() []*Thread {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Thread, 0, len(p.threads))
	for _, t := range p.threads {
		out = append(out, t)
	}
	return out
}

// Join waits until every thread has terminated or the timeout elapses,
// returning whether all terminated. A frozen (deadlocked) process reports
// false — that is how the platform watchdog notices the hang.
func (p *Process) Join(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return true
	}
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Kill tears the process down: all threads blocked in monitors, waits, or
// avoidance are woken and unwound, and Kill blocks until every thread has
// terminated. Kill is idempotent; the simulated reboot path relies on it
// never leaking goroutines even when the process is deadlocked.
func (p *Process) Kill() {
	if !p.killed.CompareAndSwap(false, true) {
		p.wg.Wait()
		return
	}
	p.killHooksMu.Lock()
	hooks := p.killHooks
	p.killHooks = nil
	p.killHooksMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	close(p.killCh)
	if p.dim != nil {
		_ = p.dim.Close() // wakes avoidance yields with ErrCoreClosed
	}
	p.mu.Lock()
	monitors := make([]*Monitor, len(p.monitors))
	copy(monitors, p.monitors)
	p.mu.Unlock()
	for _, m := range monitors {
		m.killWake()
	}
	p.wg.Wait()
}
