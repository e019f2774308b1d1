package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Sharded-engine stress: hammer enterFast/Request/Acquired/Release from many
// goroutines — with per-lock real mutexes providing the ownership ordering
// the embedding runtime's monitors provide — while signatures install
// concurrently, repeatedly flipping positions from the fast path to the
// slow path mid-traffic (and triggering queue rebuilds under load). Run
// with -race; the invariants of invariants_test.go must survive.

// stressCore runs the workload against a core and returns it for
// inspection.
func stressCore(t *testing.T, serial bool, installer func(c *Core, stop <-chan struct{})) *Core {
	t.Helper()
	c, err := New(WithSerialEngine(serial))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	const (
		threads = 8
		locks   = 12
		opsPer  = 400
	)
	lockNodes := make([]*Node, locks)
	positions := make([]*Position, locks)
	for i := range lockNodes {
		lockNodes[i] = newTestLock(c, fmt.Sprintf("L%d", i))
		p, err := c.Intern(CallStack{{Class: "stress.Site", Method: "m", Line: i}})
		if err != nil {
			t.Fatal(err)
		}
		positions[i] = p
	}

	// The installer starts once the first operation has completed, so
	// some traffic provably ran before anything was armed (the first
	// request in an empty core is always fast-path), whatever the
	// scheduler does with the goroutines below.
	stop := make(chan struct{})
	warm := make(chan struct{})
	var warmOnce sync.Once
	var installWG sync.WaitGroup
	if installer != nil {
		installWG.Add(1)
		go func() {
			defer installWG.Done()
			<-warm
			installer(c, stop)
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			th := c.NewThreadNode(fmt.Sprintf("T%d", w), nil)
			for op := 0; op < opsPer; op++ {
				// 1–2 distinct locks in ascending order: deadlock-free.
				k := 1 + rng.Intn(2)
				chosen := rng.Perm(locks)[:k]
				sortInts(chosen)
				for _, li := range chosen {
					// A monitorenter as the VM drives it: the fused
					// uncontended section first, else the full sequence.
					if c.enterFast(th, lockNodes[li], positions[li], tryLock(th, lockNodes[li])) {
						continue
					}
					if err := c.Request(th, lockNodes[li], positions[li]); err != nil {
						t.Errorf("request: %v", err)
						return
					}
					lockWord(th, lockNodes[li])
					c.Acquired(th, lockNodes[li])
				}
				// Hand the processor over while holding, so critical
				// sections overlap even when the Ps are busy elsewhere.
				runtime.Gosched()
				for i := k - 1; i >= 0; i-- {
					li := chosen[i]
					exitLock(c, th, lockNodes[li])
				}
				warmOnce.Do(func() {
					close(warm)
					// Hand the processor over, so the installer also gets
					// going on a single P before the traffic is through.
					runtime.Gosched()
				})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	installWG.Wait()

	st := c.Stats()
	if st.DeadlocksDetected != 0 {
		t.Errorf("ordered stress detected %d deadlocks", st.DeadlocksDetected)
	}
	if st.Requests != st.Acquisitions || st.Acquisitions != st.Releases {
		t.Errorf("unbalanced counters: %d requests, %d acquisitions, %d releases",
			st.Requests, st.Acquisitions, st.Releases)
	}
	if st.Misuse != 0 {
		t.Errorf("misuse = %d", st.Misuse)
	}
	if ms := c.MemStats(); ms.QueueEntriesLive != 0 {
		t.Errorf("live queue entries after quiescence: %d", ms.QueueEntriesLive)
	}
	for i, l := range lockNodes {
		if l.word.Holder() != nil || l.acqEntry != nil {
			t.Errorf("lock %d not clean after quiescence", i)
		}
	}
	return c
}

// TestStressShardedEngine runs the plain ordered workload on the sharded
// engine with no signatures: every operation is fast-path eligible.
func TestStressShardedEngine(t *testing.T) {
	c := stressCore(t, false, nil)
	if st := c.Stats(); st.FastRequests == 0 {
		t.Error("sharded engine never took the fast path under stress")
	}
}

// TestStressConcurrentSignatureInstall interleaves the ordered workload
// with an installer that arms the workload's own positions one by one
// (never-instantiable hot+cold pairs, so no yield can block the ordered
// traffic) and re-installs duplicates. Every install flips a hot position
// from fast to slow path and rebuilds its queue from live RAG state.
func TestStressConcurrentSignatureInstall(t *testing.T) {
	installed := 0
	c := stressCore(t, false, func(c *Core, stop <-chan struct{}) {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			li := i % 12
			sig := &Signature{Kind: DeadlockSig, Pairs: []SigPair{
				{
					Outer: CallStack{{Class: "stress.Site", Method: "m", Line: li}},
					Inner: CallStack{{Class: "stress.Site", Method: "m", Line: li}},
				},
				{
					Outer: CallStack{{Class: "stress.Cold", Method: "never", Line: i % 40}},
					Inner: CallStack{{Class: "stress.Cold", Method: "never", Line: i % 40}},
				},
			}}
			if _, _, err := c.AddSignature(sig); err != nil {
				t.Errorf("install: %v", err)
				return
			}
			installed++
		}
	})
	if installed == 0 {
		t.Fatal("installer never ran")
	}
	st := c.Stats()
	if st.Yields != 0 {
		t.Errorf("never-instantiable signatures caused %d yields", st.Yields)
	}
	// Traffic must have used both paths: fast before arming, slow after.
	if st.FastRequests == 0 {
		t.Error("no fast-path traffic before positions were armed")
	}
	if st.AvoidanceChecks == 0 {
		t.Error("no slow-path avoidance traffic after positions were armed")
	}
}

// TestStressArmedSites arms the ordered workload's own sites with
// signatures over pairs of them, installed while the traffic runs. Two
// threads holding or waiting at both sites of a pair instantiate it, so
// each site's signatures keep turning exposed (an exclusive enter, which
// may yield) and unexposed again (a shared armed enter) as queues fill
// and drain under load, and releases go exclusive while someone yields.
// The engine must stay balanced and clean, with the watched-slot index
// equal to a recount at quiescence, and both armed paths must have run.
func TestStressArmedSites(t *testing.T) {
	c := stressCore(t, false, func(c *Core, stop <-chan struct{}) {
		for i := 0; i < 12; i += 2 {
			a := CallStack{{Class: "stress.Site", Method: "m", Line: i}}
			b := CallStack{{Class: "stress.Site", Method: "m", Line: (i + 5) % 12}}
			if _, _, err := c.AddSignature(&Signature{Kind: DeadlockSig, Pairs: []SigPair{
				{Outer: a, Inner: a}, {Outer: b, Inner: b},
			}}); err != nil {
				t.Errorf("install: %v", err)
				return
			}
		}
	})
	if v := engineViolation(c); v != "" {
		t.Error(v)
	}
	st := c.Stats()
	var shared uint64
	c.mu.Lock()
	for _, th := range c.threadNodes {
		shared += th.armedRequests
	}
	c.mu.Unlock()
	if shared == 0 {
		t.Error("no armed enter was approved under the shared lock")
	}
	if st.InstantiationsFound == 0 {
		t.Error("no signature was ever instantiable: the exclusive armed path never decided anything")
	}
	t.Logf("%d requests: %d fast, %d shared armed; %d instantiations, %d yields, %d starvations",
		st.Requests, st.FastRequests, shared, st.InstantiationsFound, st.Yields, st.Starvations)
}

// TestStressSerialReference runs the same workload on the serial engine:
// the reference path must stay invariant-clean and never fast-path.
func TestStressSerialReference(t *testing.T) {
	c := stressCore(t, true, nil)
	if st := c.Stats(); st.FastRequests != 0 {
		t.Errorf("serial engine took %d fast requests", st.FastRequests)
	}
}

// TestStressInternSharding hammers the sharded intern table from many
// goroutines over an overlapping key space: each distinct stack must
// intern to exactly one Position.
func TestStressInternSharding(t *testing.T) {
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const (
		goroutines = 8
		keys       = 300
	)
	results := make([][]*Position, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]*Position, keys)
			rng := rand.New(rand.NewSource(int64(g)))
			for _, k := range rng.Perm(keys) {
				p, err := c.Intern(CallStack{{Class: "intern.C", Method: "m", Line: k}})
				if err != nil {
					t.Errorf("intern: %v", err)
					return
				}
				results[g][k] = p
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		for g := 1; g < goroutines; g++ {
			if results[g][k] != results[0][k] {
				t.Fatalf("key %d interned to different positions in goroutines 0 and %d", k, g)
			}
		}
	}
	if n := c.PositionCount(); n != keys {
		t.Errorf("PositionCount = %d, want %d", n, keys)
	}
}

// TestStressYieldTrafficSharded exercises real yields under the sharded
// engine: two positions armed by an instantiable signature, several
// threads bouncing between them. Yields must eventually resolve (releases
// wake yielders; starvation handling force-resumes cycles) and the engine
// must finish clean.
func TestStressYieldTrafficSharded(t *testing.T) {
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustAdd(t, c, sigOf(DeadlockSig, fr("yield.Site", "m", 0), fr("yield.Site", "m", 1)))

	const threads = 6
	lockNodes := make([]*Node, threads)
	positions := make([]*Position, 2)
	for i := range positions {
		p, err := c.Intern(CallStack{{Class: "yield.Site", Method: "m", Line: i}})
		if err != nil {
			t.Fatal(err)
		}
		positions[i] = p
	}
	for i := range lockNodes {
		lockNodes[i] = newTestLock(c, fmt.Sprintf("L%d", i))
	}

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := c.NewThreadNode(fmt.Sprintf("T%d", w), nil)
			li := w
			for op := 0; op < 150; op++ {
				pos := positions[(w+op)%2]
				if err := c.Request(th, lockNodes[li], pos); err != nil {
					t.Errorf("request: %v", err)
					return
				}
				lockWord(th, lockNodes[li])
				c.Acquired(th, lockNodes[li])
				exitLock(c, th, lockNodes[li])
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Requests != st.Acquisitions || st.Acquisitions != st.Releases {
		t.Errorf("unbalanced counters: %+v", st)
	}
	if st.DeadlocksDetected != 0 {
		t.Errorf("detected %d deadlocks with per-thread private locks", st.DeadlocksDetected)
	}
	if ms := c.MemStats(); ms.QueueEntriesLive != 0 {
		t.Errorf("live entries after quiescence: %d", ms.QueueEntriesLive)
	}
}
