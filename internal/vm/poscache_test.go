package vm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

// The per-thread position cache must be invisible: every monitorenter
// gets the Position that capture + Intern would have given it, armed or
// not, at any outer depth — only cheaper.

// enterPosition resolves the position a site-less monitorenter on o would
// use for th right now. th's own goroutine only.
func enterPosition(t *testing.T, o *Object, th *Thread) *core.Position {
	t.Helper()
	m, err := o.fatten(th)
	if err != nil {
		t.Error(err)
		return nil
	}
	pos, err := m.resolvePosition(th, nil)
	if err != nil {
		t.Error(err)
	}
	return pos
}

func TestPositionCacheSharesInternedPosition(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	site := core.Frame{Class: "com.app.Service", Method: "handle", Line: 42}
	got := make([]*core.Position, 2)
	for i := range got {
		i := i
		th := startThread(t, p, fmt.Sprintf("w%d", i), func(th *Thread) {
			th.PushFrame(site)
			defer th.PopFrame()
			first := enterPosition(t, o, th)  // miss: capture + intern
			second := enterPosition(t, o, th) // hit
			if first != second {
				t.Errorf("thread %d: miss gave %p, hit gave %p", i, first, second)
			}
			got[i] = second
		})
		waitDone(t, th)
	}
	want, err := p.Dimmunix().Intern(core.CallStack{site})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want || got[1] != want {
		t.Errorf("threads resolved %p and %p, the intern table holds %p", got[0], got[1], want)
	}
}

// TestPositionCacheSeesHotInstall: a signature installed into a live
// process arms the very Position object a thread has cached, so the
// thread's next monitorenter at that site must leave the fast path.
func TestPositionCacheSeesHotInstall(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	site := core.Frame{Class: "com.app.Service", Method: "handle", Line: 42}
	const n = 5
	cached, installed := make(chan struct{}), make(chan struct{})
	th := startThread(t, p, "w", func(th *Thread) {
		block := func() { th.Call(site.Class, site.Method, site.Line, func() { o.Synchronized(th, func() {}) }) }
		for i := 0; i < n; i++ {
			block()
		}
		close(cached)
		<-installed
		for i := 0; i < n; i++ {
			block()
		}
	})
	<-cached
	dim := p.Dimmunix()
	if st := dim.Stats(); st.FastRequests != n {
		t.Fatalf("before the install: %d of %d requests on the fast path, want all", st.FastRequests, st.Requests)
	}
	cold := core.Frame{Class: "com.app.Never", Method: "runs", Line: 1}
	if _, fresh, err := dim.InstallSignature(&core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
		{Outer: core.CallStack{site}, Inner: core.CallStack{site}},
		{Outer: core.CallStack{cold}, Inner: core.CallStack{cold}},
	}}); err != nil || !fresh {
		t.Fatalf("InstallSignature: fresh=%v err=%v", fresh, err)
	}
	close(installed)
	waitDone(t, th)
	st := dim.Stats()
	if st.Requests != 2*n || st.FastRequests != n {
		t.Errorf("after the install: %d requests, %d fast; want %d and %d (every enter at the armed site on the slow path)",
			st.Requests, st.FastRequests, 2*n, n)
	}
	if st.AvoidanceChecks != n {
		t.Errorf("AvoidanceChecks = %d, want %d (one candidate signature per armed enter)", st.AvoidanceChecks, n)
	}
}

// TestPositionCacheKeyCoversOuterDepth: at outer depth 2 the position is
// the top two frames, so one synchronized statement reached from two
// callers — or with no caller at all — is three positions, and the cache
// must not hand one caller the other's.
func TestPositionCacheKeyCoversOuterDepth(t *testing.T) {
	p := dimProcess(t, core.WithOuterDepth(2))
	o := p.NewObject("o")
	top := core.Frame{Class: "com.app.Lib", Method: "locked", Line: 7}
	callers := []core.Frame{
		{Class: "com.app.A", Method: "run", Line: 7},
		{Class: "com.app.B", Method: "run", Line: 7},
	}
	th := startThread(t, p, "w", func(th *Thread) {
		seen := map[*core.Position]bool{}
		// resolve pushes the given frames (outermost first), resolves the
		// monitorenter position and checks it is exactly those frames.
		resolve := func(frames ...core.Frame) {
			want := make(core.CallStack, len(frames))
			for i, f := range frames {
				th.PushFrame(f)
				want[len(frames)-1-i] = f
			}
			pos := enterPosition(t, o, th)
			for range frames {
				th.PopFrame()
			}
			if pos == nil || !pos.Stack().Equal(want) {
				t.Errorf("position %v, want the one for %v", pos, want)
				return
			}
			seen[pos] = true
		}
		for round := 0; round < 3; round++ {
			for _, caller := range callers {
				resolve(caller, top)
			}
			resolve(top)
		}
		if len(seen) != 3 {
			t.Errorf("%d distinct positions over three rounds, want 3", len(seen))
		}
	})
	waitDone(t, th)
	if n := p.Dimmunix().PositionCount(); n != 3 {
		t.Errorf("intern table holds %d positions, want 3", n)
	}
}

// benchStyleSites draws n synchronization statements the way the
// repository benchmark's generator does: class and method from pools,
// consecutive line numbers.
func benchStyleSites(seed int64, n int) []core.Frame {
	rng := rand.New(rand.NewSource(seed))
	pkgs := []string{"android.app", "android.os", "com.android.server", "com.android.server.am"}
	classes := []string{"ActivityManagerService", "Looper", "Handler", "MessageQueue", "Binder"}
	methods := []string{"handleMessage", "onTransact", "next", "run", "quit", "addWindow"}
	sites := make([]core.Frame, n)
	for i := range sites {
		sites[i] = core.Frame{
			Class:  pkgs[rng.Intn(len(pkgs))] + "." + classes[rng.Intn(len(classes))],
			Method: methods[rng.Intn(len(methods))],
			Line:   5000 + i,
		}
	}
	return sites
}

// countCacheHits runs ops synchronized blocks on one thread, visiting
// sites in the order pick gives, and returns how many found their
// position in the thread's cache.
func countCacheHits(t *testing.T, sites []core.Frame, ops int, pick func(k int) int) int {
	t.Helper()
	p := dimProcess(t)
	o := p.NewObject("o")
	hits := 0
	th := startThread(t, p, "w", func(th *Thread) {
		for k := 0; k < ops; k++ {
			th.PushFrame(sites[pick(k)])
			if th.cachedPosition(p.captureDepth) != nil {
				hits++
			}
			o.Synchronized(th, func() {})
			th.PopFrame()
		}
	})
	waitDone(t, th)
	if n := p.Dimmunix().PositionCount(); n != len(sites) {
		t.Errorf("intern table holds %d positions for %d sites", n, len(sites))
	}
	return hits
}

func TestPositionCacheHitRate(t *testing.T) {
	const sites, ops = 16, 16 * 200
	for _, seed := range []int64{20110627, 7, 424242} {
		frames := benchStyleSites(seed, sites)
		rng := rand.New(rand.NewSource(seed))
		for _, order := range []struct {
			name string
			pick func(k int) int
		}{
			{"round-robin", func(k int) int { return k % sites }},
			{"random", func(int) int { return rng.Intn(sites) }},
		} {
			hits := countCacheHits(t, frames, ops, order.pick)
			if hits < ops*99/100 {
				t.Errorf("seed %d, %s: %d of %d enters hit the cache, want ≥ 99 %%", seed, order.name, hits, ops)
			}
			if hits > ops-sites {
				t.Errorf("seed %d, %s: %d hits over %d sites in %d enters: a first visit cannot hit", seed, order.name, hits, sites, ops)
			}
		}
	}
}

// TestPositionCacheAbsorbsSharedLine: two statements on the same line of
// two classes share a cache set; its two ways must hold both.
func TestPositionCacheAbsorbsSharedLine(t *testing.T) {
	frames := []core.Frame{
		{Class: "com.app.A", Method: "m", Line: 100},
		{Class: "com.app.B", Method: "m", Line: 100},
	}
	const ops = 200
	if hits := countCacheHits(t, frames, ops, func(k int) int { return k % 2 }); hits != ops-2 {
		t.Errorf("%d of %d alternating enters hit the cache, want all but the first two", hits, ops)
	}
}

// TestSynchronizedDoesNotAllocate: with the position served from the
// cache, a synchronized block allocates nothing, at a site outside the
// history and at one named by it.
func TestSynchronizedDoesNotAllocate(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	unarmed := core.Frame{Class: "com.app.Service", Method: "free", Line: 10}
	armed := core.Frame{Class: "com.app.Service", Method: "named", Line: 11}
	for i := 0; i < 8; i++ {
		cold := core.Frame{Class: "com.app.Never", Method: "runs", Line: i}
		if _, _, err := p.Dimmunix().AddSignature(&core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
			{Outer: core.CallStack{armed}, Inner: core.CallStack{armed}},
			{Outer: core.CallStack{cold}, Inner: core.CallStack{cold}},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	th := startThread(t, p, "w", func(th *Thread) {
		for _, site := range []core.Frame{unarmed, armed} {
			block := func() { th.Call(site.Class, site.Method, site.Line, func() { o.Synchronized(th, func() {}) }) }
			block() // first visit: intern, cache fill, queue entry
			if allocs := testing.AllocsPerRun(200, block); allocs != 0 {
				t.Errorf("site %v: %.1f allocations per synchronized block, want 0", site, allocs)
			}
		}
	})
	waitDone(t, th)
	if st := p.Dimmunix().Stats(); st.FastRequests == 0 || st.FastRequests == st.Requests {
		t.Errorf("%d of %d requests on the fast path: want both paths exercised", st.FastRequests, st.Requests)
	}
}

// TestSyncCountCountsEveryEnter: SyncCount is derived from the thin, fat
// and recursive counters and, under Dimmunix, the core's acquisitions; it
// must still be the number of completed monitorenters on every path,
// Wait's re-acquisition included. Under Dimmunix a signature names the
// thread's entry position, so its first fat enter takes the exclusive
// path (Request and Acquired) and the later ones the shared EnterFast.
func TestSyncCountCountsEveryEnter(t *testing.T) {
	for _, mode := range []string{"vanilla", "dimmunix"} {
		t.Run(mode, func(t *testing.T) {
			p := vanillaProcess(t)
			if mode == "dimmunix" {
				p = dimProcess(t)
				entry := core.Frame{Class: "vm.ThreadEntry", Method: "w"}
				cold := core.Frame{Class: "vm.Unreached", Method: "never", Line: 1}
				if _, _, err := p.Dimmunix().AddSignature(&core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
					{Outer: core.CallStack{entry}, Inner: core.CallStack{entry}},
					{Outer: core.CallStack{cold}, Inner: core.CallStack{cold}},
				}}); err != nil {
					t.Fatal(err)
				}
			}
			o := p.NewObject("o")
			var enters uint64
			th := startThread(t, p, "w", func(th *Thread) {
				enter := func() {
					if err := o.Enter(th); err != nil {
						t.Error(err)
					}
					enters++
				}
				exit := func() {
					if err := o.Exit(th); err != nil {
						t.Error(err)
					}
				}
				enter() // thin (vanilla) or fat (Dimmunix)
				enter() // recursive
				// A timed-out wait releases both levels and re-enters
				// through the monitor: one more completed monitorenter.
				if _, err := o.Wait(th, time.Millisecond); err != nil {
					t.Error(err)
				}
				enters++
				enter() // recursive, on the now-fat monitor
				exit()
				exit()
				exit()
				enter() // fat in both modes: Wait inflated the lock
				exit()
			})
			waitDone(t, th)
			if got := p.SyncCount(); got != enters {
				t.Errorf("SyncCount = %d after %d completed enters", got, enters)
			}
			st := p.Stats()
			if st.SyncOps != enters || st.ThinEnters+st.FatEnters+st.RecursiveEnters != enters {
				t.Errorf("Stats: SyncOps %d, thin %d + fat %d + recursive %d; want %d",
					st.SyncOps, st.ThinEnters, st.FatEnters, st.RecursiveEnters, enters)
			}
			if st.RecursiveEnters != 2 || st.Waits != 1 {
				t.Errorf("recursive %d, waits %d; want 2 and 1", st.RecursiveEnters, st.Waits)
			}
			if mode == "dimmunix" {
				// Each Request runs one detection walk; EnterFast runs none.
				if cs := p.Dimmunix().Stats(); cs.CycleWalks == 0 || cs.CycleWalks == cs.Requests {
					t.Errorf("%d of %d requests took Request: want both paths exercised", cs.CycleWalks, cs.Requests)
				}
			}
		})
	}
}

// TestSyncFootprintDuringFramelessSync: the capture buffer and the cache
// belong to their thread; SyncFootprint, called from another goroutine
// while a thread with no frames synchronizes (the capture path that once
// resized the buffer under another goroutine's reads), must not touch them. Meaningful
// under -race.
func TestSyncFootprintDuringFramelessSync(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	started := make(chan struct{})
	th := startThread(t, p, "bare", func(th *Thread) {
		o.Synchronized(th, func() {})
		close(started)
		for i := 0; i < 2000; i++ {
			o.Synchronized(th, func() {})
		}
	})
	<-started
	want := sizeofMonitor + sizeofFrame + sizeofPosCache
	for done := false; !done; {
		select {
		case <-th.Done():
			done = true
		default:
		}
		if got := p.SyncFootprint(); got != want {
			t.Fatalf("SyncFootprint = %d, want %d (one monitor, one thread's capture buffer and cache)", got, want)
		}
	}
	if n := p.Dimmunix().PositionCount(); n != 1 {
		t.Errorf("frameless thread resolved %d positions, want its one entry point", n)
	}

	v := vanillaProcess(t)
	waitDone(t, startThread(t, v, "bare", func(th *Thread) { v.NewObject("o").Synchronized(th, func() {}) }))
	if got := v.SyncFootprint(); got != 0 {
		t.Errorf("vanilla SyncFootprint = %d, want 0: no monitor, and no Dimmunix per-thread state", got)
	}
}
