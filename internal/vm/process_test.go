package vm

import (
	"fmt"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

func TestProcessJoin(t *testing.T) {
	p := vanillaProcess(t)
	release := make(chan struct{})
	startThread(t, p, "w", func(*Thread) { <-release })
	if p.Join(10 * time.Millisecond) {
		t.Error("Join must time out while a thread runs")
	}
	close(release)
	if !p.Join(5 * time.Second) {
		t.Error("Join must succeed after threads finish")
	}
}

func TestProcessKillIdempotent(t *testing.T) {
	p := NewProcess("test", nil)
	startThread(t, p, "w", func(th *Thread) { <-th.proc.killCh })
	p.Kill()
	p.Kill() // second kill must not panic or hang
}

func TestProcessStatsCounts(t *testing.T) {
	p := dimProcess(t)
	o := p.NewObject("o")
	th := startThread(t, p, "w", func(th *Thread) {
		o.Synchronized(th, func() {})
		o.Synchronized(th, func() {
			o.Synchronized(th, func() {}) // recursive
		})
	})
	waitDone(t, th)
	st := p.Stats()
	if st.SyncOps != 3 {
		t.Errorf("SyncOps = %d, want 3", st.SyncOps)
	}
	if st.RecursiveEnters != 1 {
		t.Errorf("RecursiveEnters = %d, want 1", st.RecursiveEnters)
	}
	if st.Threads != 1 || st.Objects != 1 || st.Monitors != 1 {
		t.Errorf("threads/objects/monitors = %d/%d/%d, want 1/1/1", st.Threads, st.Objects, st.Monitors)
	}
}

// TestSyncCountSampledWhileThreadsExit: SyncCount and Stats sum the live
// threads' own counters, the total folded in as each thread exits and, in
// a Dimmunix process, the core's acquisitions. A sampler reading them in a
// loop while waves of threads start, synchronize and exit must never see
// the count go down (a thread counted on neither side of its fold, or on
// both), and the count once every thread is done must be exact.
func TestSyncCountSampledWhileThreadsExit(t *testing.T) {
	const waves, threads, iters = 4, 4, 200
	for _, mode := range []string{"vanilla", "dimmunix"} {
		t.Run(mode, func(t *testing.T) {
			p := vanillaProcess(t)
			if mode == "dimmunix" {
				p = dimProcess(t)
			}
			shared := p.NewObject("shared")
			stop := make(chan struct{})
			sampled := make(chan error, 1)
			go func() {
				var last, samples uint64
				next := func(what string, n uint64) error {
					samples++
					if n < last {
						return fmt.Errorf("sample %d: %s = %d after %d", samples, what, n, last)
					}
					last = n
					return nil
				}
				for {
					select {
					case <-stop:
						sampled <- nil
						return
					default:
					}
					if err := next("SyncCount", p.SyncCount()); err != nil {
						sampled <- err
						return
					}
					if err := next("Stats().SyncOps", p.Stats().SyncOps); err != nil {
						sampled <- err
						return
					}
				}
			}()
			for w := 0; w < waves; w++ {
				var wave []*Thread
				for i := 0; i < threads; i++ {
					own := p.NewObject(fmt.Sprintf("own-%d-%d", w, i))
					wave = append(wave, startThread(t, p, fmt.Sprintf("w%d-%d", w, i), func(th *Thread) {
						for k := 0; k < iters; k++ {
							own.Synchronized(th, func() {
								own.Synchronized(th, func() {}) // recursive
							})
							shared.Synchronized(th, func() {})
						}
					}))
				}
				for _, th := range wave {
					waitDone(t, th)
				}
			}
			close(stop)
			if err := <-sampled; err != nil {
				t.Fatal(err)
			}
			const want = waves * threads * iters * 3
			if got := p.SyncCount(); got != want {
				t.Errorf("SyncCount = %d after %d completed enters", got, want)
			}
			if st := p.Stats(); st.SyncOps != want || st.RecursiveEnters != want/3 {
				t.Errorf("Stats: SyncOps %d, recursive %d; want %d and %d", st.SyncOps, st.RecursiveEnters, want, want/3)
			}
		})
	}
}

func TestZygoteForkIsolation(t *testing.T) {
	z := NewZygote(WithDimmunix(true))
	p1, err := z.Fork("app1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := z.Fork("app2")
	if err != nil {
		t.Fatal(err)
	}
	defer z.KillAll()

	if p1.Dimmunix() == nil || p2.Dimmunix() == nil {
		t.Fatal("dimmunix zygote must give every process a core")
	}
	if p1.Dimmunix() == p2.Dimmunix() {
		t.Error("each process must have its own core (user-space isolation, §3.1)")
	}
	if p1.ID() == p2.ID() {
		t.Error("processes must have distinct pids")
	}
}

func TestZygoteVanillaFork(t *testing.T) {
	z := NewZygote(WithDimmunix(false))
	p, err := z.Fork("app")
	if err != nil {
		t.Fatal(err)
	}
	defer z.KillAll()
	if p.Dimmunix() != nil {
		t.Error("vanilla zygote must not attach a core")
	}
}

// TestZygoteSharedHistory is platform-wide immunity across apps: a
// deadlock detected in one app's process immunizes a different app forked
// later, because both load the same history store.
func TestZygoteSharedHistory(t *testing.T) {
	store := core.NewMemHistory()
	z := NewZygote(WithDimmunix(true), WithHistory(store))

	p1, err := z.Fork("buggy-app")
	if err != nil {
		t.Fatal(err)
	}
	abbaScenario(t, p1)
	pollUntil(t, "deadlock in app1", func() bool {
		return p1.Dimmunix().Stats().DeadlocksDetected == 1
	})
	p1.Kill()

	// A different app with the same code pattern is immune from birth.
	p2, err := z.Fork("other-app")
	if err != nil {
		t.Fatal(err)
	}
	defer z.KillAll()
	if p2.Dimmunix().HistorySize() != 1 {
		t.Fatalf("app2 loaded %d signatures, want 1", p2.Dimmunix().HistorySize())
	}
	t1, t2, _ := abbaScenario(t, p2)
	waitDone(t, t1)
	waitDone(t, t2)
	if st := p2.Dimmunix().Stats(); st.DeadlocksDetected != 0 {
		t.Errorf("app2 deadlocked: %+v", st)
	}
}

func TestZygoteForkFailsOnBadStore(t *testing.T) {
	z := NewZygote(WithDimmunix(true), WithHistory(badStore{}))
	if _, err := z.Fork("app"); err == nil {
		t.Error("fork with failing history store must error")
	}
}

// badStore always fails to load.
type badStore struct{}

func (badStore) Load() ([]*core.Signature, error) {
	return nil, errTest
}
func (badStore) Append(*core.Signature) error { return errTest }

var errTest = core.ErrHistoryFormat

func TestCensusCounts(t *testing.T) {
	c := NewCensus()
	c.Register(
		NewSite("a.A", "m", 1),
		NewSite("a.A", "m", 2),
		NewMethodSite("a.B", "n", 1),
		&Site{Frame: core.Frame{Class: "a.C", Method: "lock", Line: 3}, Kind: ExplicitLock},
	)
	got := c.Counts()
	if got.SyncBlocks != 2 || got.SyncMethods != 1 || got.ExplicitLocks != 1 {
		t.Errorf("counts = %+v", got)
	}
	if got.TotalSyncSites != 3 || got.TotalSites != 4 {
		t.Errorf("totals = %+v", got)
	}
	if got.ClassesDeclared != 3 {
		t.Errorf("classes = %d, want 3", got.ClassesDeclared)
	}
}

// TestDeadlockFreezeKeepsOtherAppsAlive: platform-wide immunity is
// per-process; one app's freeze must not impede another process.
func TestDeadlockFreezeKeepsOtherAppsAlive(t *testing.T) {
	z := NewZygote(WithDimmunix(true), WithHistory(core.NewMemHistory()))
	frozen, err := z.Fork("frozen-app")
	if err != nil {
		t.Fatal(err)
	}
	abbaScenario(t, frozen)
	pollUntil(t, "freeze", func() bool {
		return frozen.Dimmunix().Stats().DeadlocksDetected == 1
	})

	healthy, err := z.Fork("healthy-app")
	if err != nil {
		t.Fatal(err)
	}
	defer z.KillAll()
	o := healthy.NewObject("o")
	th := startThread(t, healthy, "w", func(th *Thread) {
		for i := 0; i < 100; i++ {
			o.Synchronized(th, func() {})
		}
	})
	waitDone(t, th)
	if th.Err() != nil {
		t.Errorf("healthy app impacted by frozen app: %v", th.Err())
	}
}
