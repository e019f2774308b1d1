package vm

import (
	"errors"
	"sync"
	"testing"

	"github.com/dimmunix/dimmunix/internal/core"
)

// dimProcess creates a process backed by a fresh Dimmunix core.
func dimProcess(t *testing.T, opts ...core.Option) *Process {
	t.Helper()
	c, err := core.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcess("dim", c)
	t.Cleanup(p.Kill)
	return p
}

func vanillaProcess(t *testing.T) *Process {
	t.Helper()
	p := NewProcess("vanilla", nil)
	t.Cleanup(p.Kill)
	return p
}

func TestThinLockFastPath(t *testing.T) {
	p := vanillaProcess(t)
	o := p.NewObject("o")
	th := startThread(t, p, "w", func(th *Thread) {
		if err := o.Enter(th); err != nil {
			t.Errorf("Enter: %v", err)
		}
		if o.IsFat() {
			t.Error("uncontended enter must stay thin")
		}
		if err := o.Exit(th); err != nil {
			t.Errorf("Exit: %v", err)
		}
	})
	waitDone(t, th)
	st := p.Stats()
	if st.ThinEnters != 1 || st.FatEnters != 0 {
		t.Errorf("thin=%d fat=%d, want 1/0", st.ThinEnters, st.FatEnters)
	}
	if st.SyncOps != 1 {
		t.Errorf("SyncOps = %d, want 1", st.SyncOps)
	}
}

func TestThinLockRecursion(t *testing.T) {
	p := vanillaProcess(t)
	o := p.NewObject("o")
	th := startThread(t, p, "w", func(th *Thread) {
		const depth = 10
		for i := 0; i < depth; i++ {
			if err := o.Enter(th); err != nil {
				t.Errorf("Enter %d: %v", i, err)
			}
		}
		if o.IsFat() {
			t.Error("shallow recursion must stay thin")
		}
		for i := 0; i < depth; i++ {
			if err := o.Exit(th); err != nil {
				t.Errorf("Exit %d: %v", i, err)
			}
		}
		if o.lw.Load() != 0 {
			t.Errorf("lock word = %#x after full exit, want 0", o.lw.Load())
		}
	})
	waitDone(t, th)
}

func TestThinLockRecursionOverflowInflates(t *testing.T) {
	p := vanillaProcess(t)
	o := p.NewObject("o")
	th := startThread(t, p, "w", func(th *Thread) {
		total := maxThinRecursion + 10
		for i := 0; i < total; i++ {
			if err := o.Enter(th); err != nil {
				t.Errorf("Enter %d: %v", i, err)
			}
		}
		if !o.IsFat() {
			t.Error("recursion overflow must inflate")
		}
		for i := 0; i < total; i++ {
			if err := o.Exit(th); err != nil {
				t.Errorf("Exit %d: %v", i, err)
			}
		}
		if o.Monitor().Owner() != nil {
			t.Error("monitor must be free after matching exits")
		}
	})
	waitDone(t, th)
}

func TestExitNotOwner(t *testing.T) {
	p := vanillaProcess(t)
	o := p.NewObject("o")
	hold := make(chan struct{})
	release := make(chan struct{})
	owner := startThread(t, p, "owner", func(th *Thread) {
		if err := o.Enter(th); err != nil {
			t.Errorf("Enter: %v", err)
		}
		close(hold)
		<-release
		if err := o.Exit(th); err != nil {
			t.Errorf("Exit: %v", err)
		}
	})
	intruder := startThread(t, p, "intruder", func(th *Thread) {
		<-hold
		if err := o.Exit(th); !errors.Is(err, ErrNotOwner) {
			t.Errorf("foreign Exit = %v, want ErrNotOwner", err)
		}
		close(release)
	})
	waitDone(t, owner)
	waitDone(t, intruder)

	// Exit of a never-locked object.
	lone := startThread(t, p, "lone", func(th *Thread) {
		if err := o.Exit(th); !errors.Is(err, ErrNotOwner) {
			t.Errorf("Exit unlocked = %v, want ErrNotOwner", err)
		}
	})
	waitDone(t, lone)
}

func TestForeignThreadRejected(t *testing.T) {
	p1 := vanillaProcess(t)
	p2 := vanillaProcess(t)
	o := p1.NewObject("o")
	th := startThread(t, p2, "alien", func(th *Thread) {
		if err := o.Enter(th); !errors.Is(err, ErrForeignThread) {
			t.Errorf("cross-process Enter = %v, want ErrForeignThread", err)
		}
	})
	waitDone(t, th)
	if err := o.Enter(nil); !errors.Is(err, ErrNilThread) {
		t.Errorf("nil thread = %v, want ErrNilThread", err)
	}
}

// TestThinLockMutualExclusion stress-checks the CAS protocol: N threads
// increment a plain counter under the thin lock; any exclusion bug shows
// up as a lost update (and as a race under -race).
func TestThinLockMutualExclusion(t *testing.T) {
	p := vanillaProcess(t)
	o := p.NewObject("ctr")
	const workers = 8
	const iters = 500
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		th := startThread(t, p, "w", func(th *Thread) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				if err := o.Enter(th); err != nil {
					t.Errorf("Enter: %v", err)
					return
				}
				counter++
				if err := o.Exit(th); err != nil {
					t.Errorf("Exit: %v", err)
					return
				}
			}
		})
		_ = th
	}
	wg.Wait()
	if counter != workers*iters {
		t.Errorf("counter = %d, want %d (lost updates!)", counter, workers*iters)
	}
	// Contention should have promoted the lock.
	if !o.IsFat() {
		t.Log("note: lock stayed thin (low contention this run)") // not an error: scheduling-dependent
	}
}

func TestDimmunixModeFattensImmediately(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	th := startThread(t, p, "w", func(th *Thread) {
		if err := o.Enter(th); err != nil {
			t.Errorf("Enter: %v", err)
		}
		if !o.IsFat() {
			t.Error("Dimmunix mode must fatten on first monitorenter (§4)")
		}
		if err := o.Exit(th); err != nil {
			t.Errorf("Exit: %v", err)
		}
	})
	waitDone(t, th)
	// The core must have seen the full interception sequence.
	st := p.Dimmunix().Stats()
	if st.Requests != 1 || st.Acquisitions != 1 || st.Releases != 1 {
		t.Errorf("core saw %d/%d/%d, want 1/1/1", st.Requests, st.Acquisitions, st.Releases)
	}
}

func TestDimmunixRecursiveEnterSkipsCore(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	th := startThread(t, p, "w", func(th *Thread) {
		if err := o.Enter(th); err != nil {
			t.Error(err)
		}
		if err := o.Enter(th); err != nil { // recursive
			t.Error(err)
		}
		if err := o.Exit(th); err != nil {
			t.Error(err)
		}
		if err := o.Exit(th); err != nil {
			t.Error(err)
		}
	})
	waitDone(t, th)
	st := p.Dimmunix().Stats()
	if st.Requests != 1 {
		t.Errorf("core Requests = %d, want 1 (recursion must not call the core)", st.Requests)
	}
	if st.Releases != 1 {
		t.Errorf("core Releases = %d, want 1", st.Releases)
	}
}

// TestEnterFastStaysRunnable: an uncontended Dimmunix monitorenter at an
// unarmed site is one shared engine section (core.EnterFast) that never
// waits, so it writes no thread state and never reads as blocked, and each
// of its hold edges is dropped by a fast release. A signature hot-installed
// over the site sends the very next enter there to the full path, which
// does read as blocked until it owns the monitor.
func TestEnterFastStaysRunnable(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	site := core.Frame{Class: "com.app.Service", Method: "handle", Line: 42}
	// unset is no thread state: finding it still stored after an enter
	// shows the enter wrote none.
	const unset ThreadState = 0
	// enter runs one synchronized block at site and reports whether its
	// monitorenter left the thread's state alone. th's goroutine only.
	enter := func(th *Thread) (untouched bool) {
		th.Call(site.Class, site.Method, site.Line, func() {
			th.setState(unset)
			if err := o.Enter(th); err != nil {
				t.Error(err)
				return
			}
			untouched = th.State() == unset
			th.setState(StateRunnable)
			if err := o.Exit(th); err != nil {
				t.Error(err)
			}
		})
		return untouched
	}
	const n = 5
	unarmed, installed := make(chan struct{}), make(chan struct{})
	var fast [n]bool
	var armedFast bool
	th := startThread(t, p, "w", func(th *Thread) {
		for i := range fast {
			fast[i] = enter(th)
		}
		close(unarmed)
		<-installed
		armedFast = enter(th)
	})
	<-unarmed
	dim := p.Dimmunix()
	st := dim.Stats()
	for i, ok := range fast {
		if !ok {
			t.Errorf("unarmed enter %d wrote the thread's state (read as blocked)", i)
		}
	}
	if st.Requests != n || st.FastAcquisitions != n || st.FastReleases != st.FastAcquisitions {
		t.Errorf("unarmed: %d requests, %d fast acquisitions, %d fast releases; want %d of each",
			st.Requests, st.FastAcquisitions, st.FastReleases, n)
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
	if armedFast {
		t.Error("the first enter after the install wrote no thread state: it took the fast path")
	}
	// The armed enter is approved by avoidance under the exclusive lock;
	// its Acquired still publishes under the shared one.
	st = dim.Stats()
	if st.Requests != n+1 || st.FastRequests != n || st.FastReleases != n || st.AvoidanceChecks != 1 {
		t.Errorf("after the install: %d requests, %d fast, %d fast releases, %d avoidance checks; want %d, %d, %d, 1",
			st.Requests, st.FastRequests, st.FastReleases, st.AvoidanceChecks, n+1, n, n)
	}
}

func TestPositionsComeFromFrames(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	th := startThread(t, p, "w", func(th *Thread) {
		th.Call("com.app.Service", "handle", 42, func() {
			o.Synchronized(th, func() {})
		})
	})
	waitDone(t, th)
	if n := p.Dimmunix().PositionCount(); n != 1 {
		t.Fatalf("positions = %d, want 1", n)
	}
	// Same site again: still one position (interned).
	th2 := startThread(t, p, "w2", func(th *Thread) {
		th.Call("com.app.Service", "handle", 42, func() {
			o.Synchronized(th, func() {})
		})
	})
	waitDone(t, th2)
	if n := p.Dimmunix().PositionCount(); n != 1 {
		t.Errorf("positions after repeat = %d, want 1", n)
	}
}

func TestEnterAtUsesStaticSite(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	site := NewSite("com.app.S", "m", 7)
	th := startThread(t, p, "w", func(th *Thread) {
		// No frames pushed: the position must come from the site, not the
		// (synthetic) stack.
		if err := o.EnterAt(th, site); err != nil {
			t.Error(err)
		}
		if err := o.Exit(th); err != nil {
			t.Error(err)
		}
	})
	waitDone(t, th)
	if n := p.Dimmunix().PositionCount(); n != 1 {
		t.Fatalf("positions = %d, want 1", n)
	}
	// A second process-independent use of the same site resolves to the
	// same cached position.
	th2 := startThread(t, p, "w2", func(th *Thread) {
		o.SynchronizedAt(th, site, func() {})
	})
	waitDone(t, th2)
	if n := p.Dimmunix().PositionCount(); n != 1 {
		t.Errorf("positions = %d, want 1 (site cached)", n)
	}
}

func TestKillUnblocksContender(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	held := make(chan struct{})
	blocked := startThread(t, p, "blocked", func(th *Thread) {
		<-held
		err := o.Enter(th)
		if !errors.Is(err, ErrProcessKilled) && !errors.Is(err, core.ErrCoreClosed) {
			t.Errorf("Enter on killed process = %v", err)
		}
	})
	holder := startThread(t, p, "holder", func(th *Thread) {
		if err := o.Enter(th); err != nil {
			t.Error(err)
			return
		}
		close(held)
		<-th.proc.killCh // hold until teardown
	})
	pollUntil(t, "contender blocked", func() bool {
		m := o.Monitor()
		return m != nil && m.Blocked() > 0
	})
	p.Kill()
	waitDone(t, blocked)
	waitDone(t, holder)
}

func TestKillUnblocksThinSpinner(t *testing.T) {
	p := vanillaProcess(t)
	o := p.NewObject("o")
	held := make(chan struct{})
	holder := startThread(t, p, "holder", func(th *Thread) {
		if err := o.Enter(th); err != nil {
			t.Error(err)
			return
		}
		close(held)
		<-th.proc.killCh
	})
	spinner := startThread(t, p, "spinner", func(th *Thread) {
		<-held
		if err := o.Enter(th); !errors.Is(err, ErrProcessKilled) {
			t.Errorf("spinner Enter = %v, want ErrProcessKilled", err)
		}
	})
	<-held
	pollUntil(t, "spinner contending", func() bool { return spinner.State() == StateBlocked })
	p.Kill()
	waitDone(t, holder)
	waitDone(t, spinner)
}
