// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5), plus ablations of the engine's design choices. Each
// experiment has one Benchmark* entry:
//
//	E1  BenchmarkE1DeadlockImmunity    — §5 ¶2: avoided reoccurrence of the
//	                                     NotificationManagerService /
//	                                     StatusBarService deadlock
//	F1  BenchmarkFleetE1               — one phone's detection immunizes
//	                                     the fleet: time to immunity
//	E2  BenchmarkTable1                — Table 1: per-app syncs/sec and
//	                                     memory; with E4 and E5, one
//	                                     apps.RunTable1 run
//	E3  BenchmarkMicroSyncThroughput   — §5 ¶4: 2–512 threads × 64–256 sigs,
//	                                     vanilla vs Dimmunix at the
//	                                     calibrated ~1,747 syncs/s
//	    BenchmarkMicroOverheadCurve    — E3 overhead vs per-op busy work
//	E4  BenchmarkTable1                — §5 ¶5: battery share
//	E5  BenchmarkTable1                — §5 ¶6: platform memory overhead
//	E6  BenchmarkSyncSiteCensus        — §3.2 static census
//	A1  BenchmarkAblationOuterDepth    — depth-1 vs deeper outer stacks
//	A2  BenchmarkAblationQueueReuse    — two-queue entry recycling
//	A3  BenchmarkAblationFattening     — thin fast path vs always-fat
//	A4  BenchmarkAblationGlobalLock    — cost of the core's three calls
//	A5  BenchmarkAblationStaticIDs     — stack capture vs compiler ids
//	    BenchmarkLooperRoundTrip       — Handler.Post under interception
//	    BenchmarkEngineThroughput      — serial vs sharded engine, a
//	                                     quarter of the sites armed
//	    BenchmarkAvoidanceMatching     — signature-count scaling
//	    BenchmarkSyncProcs             — one vm thread per P: run with
//	                                     -cpu 1,2 for multi-core scaling
//
// Per-layer rungs (engine fast path, propagation latency, the fleet
// tier) live in bench/ and are read with bash bench/run.sh --trace 1.
//
// Scenario benchmarks (E1–E5, the engine comparison) time one full
// scenario per iteration and attach domain metrics via b.ReportMetric;
// operation benchmarks (the ablations) are conventional per-op loops.
// E1's ns/op is one immunized race: the two threads meet at a vm gate
// that the avoidance yield opens, so it times the yield and the resume
// (tens of µs), with no timeout in it; yields/op reads 1.
package dimmunix_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	dimmunix "github.com/dimmunix/dimmunix"
	"github.com/dimmunix/dimmunix/internal/android"
	"github.com/dimmunix/dimmunix/internal/apps"
	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/vm"
	"github.com/dimmunix/dimmunix/internal/workload"
)

// --- E1: deadlock immunity end to end -----------------------------------

func BenchmarkE1DeadlockImmunity(b *testing.B) {
	cfg := dimmunix.DefaultPhoneConfig()
	cfg.History = dimmunix.NewMemHistory()
	cfg.WatchdogInterval = 20 * time.Millisecond
	cfg.WatchdogThreshold = 25 * time.Millisecond
	ph := dimmunix.NewPhone(cfg)
	if err := ph.Boot(); err != nil {
		b.Fatal(err)
	}
	defer ph.Shutdown()
	// Immunize once (run 1: freeze + detection + reboot), outside the
	// timed region.
	if out, err := ph.RunNotificationScenario(time.Minute); err != nil || out != dimmunix.OutcomeFroze {
		b.Fatalf("immunization run: out=%v err=%v", out, err)
	}
	if err := ph.Reboot(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ph.RunNotificationScenario(time.Minute)
		if err != nil || out != dimmunix.OutcomeCompleted {
			b.Fatalf("iteration %d: out=%v err=%v", i, out, err)
		}
	}
	b.StopTimer()
	st := ph.System().Proc.Dimmunix().Stats()
	b.ReportMetric(float64(st.Yields)/float64(b.N), "yields/op")
	if st.DeadlocksDetected != 0 {
		b.Fatalf("deadlock reoccurred under immunity: %+v", st)
	}
}

// BenchmarkFleetE1 is E1 across the fleet: one iteration runs the
// in-process "fleet immunity threshold 1" row (two phones on one hub)
// with its checks. Phone 0 deadlocks and detects, the hub arms the
// signature, every process on both phones installs it, and phone 1 is
// spared when it drives the same interleaving. It reports
// time-to-immunity-us: phone 0's detection to the last install, the
// timeline the row's own check orders. Both moments are when the row's
// waiter saw them, polling every 200 µs in process, so the number is
// resolved to about one poll: a fleet that armed before the poll that
// saw the detection reads a few µs.
func BenchmarkFleetE1(b *testing.B) {
	row, ok := workload.Row("fleet immunity threshold 1")
	if !ok {
		b.Fatal("no fleet immunity threshold 1 row")
	}
	var total time.Duration
	for i := 0; i < b.N; i++ {
		out, err := row.Run()
		if err != nil {
			b.Fatal(err)
		}
		if out.TimeToImmunity <= 0 {
			b.Fatalf("iteration %d: time to immunity %v", i, out.TimeToImmunity)
		}
		total += out.TimeToImmunity
	}
	b.ReportMetric(float64(total.Microseconds())/float64(b.N), "time-to-immunity-us")
}

// --- E2, E4, E5: Table 1, platform memory and power -----------------------

// benchReplayDuration keeps each replay affordable under the default
// -benchtime: one Table 1 run is 8 apps × 2 builds = 16 replays.
const benchReplayDuration = 250 * time.Millisecond

// BenchmarkTable1 regenerates Table 1 through apps.RunTable1, reports the
// platform-level aggregates and logs the table beside the paper's
// numbers.
func BenchmarkTable1(b *testing.B) {
	var rep apps.Table1Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = apps.RunTable1(nil, benchReplayDuration, 100*time.Millisecond, apps.DefaultReplayConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.MeanPerfOverheadPct(), "throughput-overhead-%")
	b.ReportMetric(rep.Platform.OverallOverheadPct(), "mem-overhead-%")
	b.ReportMetric(rep.PowerVanilla.AppsAndOSPct, "vanilla-apps+os-%")
	b.ReportMetric(rep.PowerDimmunix.AppsAndOSPct, "dimmunix-apps+os-%")
	b.Log("\n" + rep.Format())
}

// --- E3: the §5 microbenchmark -------------------------------------------

// benchMicroDuration is one mode's measurement window in an E3 cell;
// -benchtime Nx averages each cell over N windows per mode.
const benchMicroDuration = 200 * time.Millisecond

// benchMicroCell runs one E3 cell in both modes and reports the paper's
// columns: vanilla and Dimmunix syncs/s (each over all b.N windows) and
// Dimmunix's throughput overhead. work is the busy-wait per op, split
// 1:3 between inside and outside the critical section.
func benchMicroCell(b *testing.B, threads, sigs, work int) {
	cfg := workload.DefaultMicroConfig(threads)
	cfg.Duration = benchMicroDuration
	cfg.Signatures = sigs
	cfg.InsideWork = work / 4
	cfg.OutsideWork = work - work/4
	var ops [2]uint64
	var wall [2]time.Duration
	for i := 0; i < b.N; i++ {
		for m, dim := range []bool{false, true} {
			cfg.Dimmunix = dim
			res, err := workload.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ops[m] += res.Ops
			wall[m] += res.Wall
		}
	}
	van := float64(ops[0]) / wall[0].Seconds()
	dim := float64(ops[1]) / wall[1].Seconds()
	if van == 0 {
		b.Fatal("vanilla run made no progress")
	}
	b.ReportMetric(van, "vanilla-syncs/s")
	b.ReportMetric(dim, "dimmunix-syncs/s")
	b.ReportMetric(100*(van-dim)/van, "overhead-%")
}

// BenchmarkMicroSyncThroughput is the paper's §5 grid: 2–512 threads
// against 64–256 synthetic signatures, at the busy work calibrated to
// the paper's ~1,747 vanilla syncs/s (the paper: 4–5 % overhead).
func BenchmarkMicroSyncThroughput(b *testing.B) {
	work := workload.CalibrateWork(workload.PaperTargetSyncsPerSec)
	b.Logf("calibrated busy work: %d iterations/op", work)
	for _, threads := range []int{2, 8, 32, 128, 512} {
		for _, sigs := range []int{64, 128, 256} {
			b.Run(fmt.Sprintf("threads=%d/sigs=%d", threads, sigs), func(b *testing.B) {
				benchMicroCell(b, threads, sigs, work)
			})
		}
	}
}

// BenchmarkMicroOverheadCurve sweeps the per-op busy work at 2 threads
// and 128 signatures, from zero (pure interception cost, the upper bound
// on overhead) to the calibrated operating point: the paper's 4–5 % is a
// property of the ratio between per-op computation and interception
// cost, so this locates where that regime falls on the host.
func BenchmarkMicroOverheadCurve(b *testing.B) {
	work := workload.CalibrateWork(workload.PaperTargetSyncsPerSec)
	b.Logf("calibrated busy work: %d iterations/op", work)
	for _, w := range []int{0, 200, 1000, 4000, 16000, 64000, -1} {
		name := fmt.Sprintf("work=%d", w)
		if w < 0 {
			w, name = work, "work=calibrated"
		}
		b.Run(name, func(b *testing.B) {
			benchMicroCell(b, 2, 128, w)
		})
	}
}

// --- E6: sync-site census --------------------------------------------------

func BenchmarkSyncSiteCensus(b *testing.B) {
	var counts vm.CensusCounts
	for i := 0; i < b.N; i++ {
		census, err := dimmunix.FrameworkCensus()
		if err != nil {
			b.Fatal(err)
		}
		counts = census.Counts()
	}
	b.ReportMetric(float64(counts.TotalSyncSites), "sync-sites")
	b.ReportMetric(float64(counts.ExplicitLocks), "explicit-sites")
}

// --- per-op helpers ---------------------------------------------------------

// benchProc builds a process (with or without a core) and a worker thread
// executing fn in a bench-controlled loop.
func benchSyncOp(b *testing.B, dim bool, depth int, frames int, op func(t *vm.Thread, o *vm.Object, site *vm.Site)) {
	var c *core.Core
	if dim {
		opts := []core.Option{}
		if depth > 0 {
			opts = append(opts, core.WithOuterDepth(depth))
		}
		var err error
		c, err = core.New(opts...)
		if err != nil {
			b.Fatal(err)
		}
	}
	proc := vm.NewProcess("bench", c)
	defer proc.Kill()
	o := proc.NewObject("lock")
	site := vm.NewSite("com.bench.C", "m", 1)
	done := make(chan struct{})
	_, err := proc.Start("w", func(t *vm.Thread) {
		defer close(done)
		for i := 0; i < frames; i++ {
			t.PushFrame(core.Frame{Class: fmt.Sprintf("com.bench.F%d", i), Method: "call", Line: i})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(t, o, site)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	<-done
}

// --- A1: outer call-stack depth --------------------------------------------

func BenchmarkAblationOuterDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchSyncOp(b, true, depth, 6, func(t *vm.Thread, o *vm.Object, _ *vm.Site) {
				o.Synchronized(t, func() {})
			})
		})
	}
}

// --- A2: queue entry reuse ---------------------------------------------------

func BenchmarkAblationQueueReuse(b *testing.B) {
	for _, reuse := range []bool{true, false} {
		b.Run(fmt.Sprintf("reuse=%v", reuse), func(b *testing.B) {
			c, err := core.New(core.WithQueueReuse(reuse))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			t := c.NewThreadNode("w", nil)
			l := c.NewLockNode("l")
			pos, err := c.Intern(core.CallStack{{Class: "com.bench.C", Method: "m", Line: 1}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Request(t, l, pos); err != nil {
					b.Fatal(err)
				}
				c.Acquired(t, l)
				c.Release(t, l)
			}
		})
	}
}

// --- A3: thin fast path vs always-fat ----------------------------------------

func BenchmarkAblationFattening(b *testing.B) {
	b.Run("vanilla-thin", func(b *testing.B) {
		benchSyncOp(b, false, 0, 1, func(t *vm.Thread, o *vm.Object, _ *vm.Site) {
			if err := o.Enter(t); err != nil {
				b.Fatal(err)
			}
			if err := o.Exit(t); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("dimmunix-fat", func(b *testing.B) {
		benchSyncOp(b, true, 0, 1, func(t *vm.Thread, o *vm.Object, _ *vm.Site) {
			if err := o.Enter(t); err != nil {
				b.Fatal(err)
			}
			if err := o.Exit(t); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// --- A4: core call cost under the global lock --------------------------------

func BenchmarkAblationGlobalLock(b *testing.B) {
	c, err := core.New()
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	t := c.NewThreadNode("w", nil)
	l := c.NewLockNode("l")
	pos, err := c.Intern(core.CallStack{{Class: "com.bench.C", Method: "m", Line: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Request(t, l, pos); err != nil {
			b.Fatal(err)
		}
		c.Acquired(t, l)
		c.Release(t, l)
	}
}

// --- A5: stack capture vs compiler-assigned static ids -----------------------

func BenchmarkAblationStaticIDs(b *testing.B) {
	b.Run("capture", func(b *testing.B) {
		benchSyncOp(b, true, 1, 6, func(t *vm.Thread, o *vm.Object, _ *vm.Site) {
			o.Synchronized(t, func() {})
		})
	})
	b.Run("static-id", func(b *testing.B) {
		benchSyncOp(b, true, 1, 6, func(t *vm.Thread, o *vm.Object, site *vm.Site) {
			o.SynchronizedAt(t, site, func() {})
		})
	})
}

// --- platform message-passing cost under interception -------------------------

// BenchmarkLooperRoundTrip measures one Handler.Post round trip through
// the monitor-backed MessageQueue (enqueue → wait/notify → dispatch),
// vanilla vs Dimmunix — the framework-overhead component of platform-wide
// immunity (every queue operation is an intercepted synchronized block).
func BenchmarkLooperRoundTrip(b *testing.B) {
	for _, mode := range []struct {
		name string
		dim  bool
	}{{"vanilla", false}, {"dimmunix", true}} {
		b.Run(mode.name, func(b *testing.B) {
			z := vm.NewZygote(vm.WithDimmunix(mode.dim))
			proc, err := z.Fork("bench-looper")
			if err != nil {
				b.Fatal(err)
			}
			defer proc.Kill()
			looper, err := android.StartLooper(proc, "bench-looper-thread")
			if err != nil {
				b.Fatal(err)
			}
			h := android.NewHandler(looper, "h", nil)
			done := make(chan struct{})
			poster, err := proc.Start("poster", func(t *vm.Thread) {
				defer close(done)
				ack := make(chan struct{})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.Post(t, func(*vm.Thread) { ack <- struct{}{} })
					<-ack
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
			<-poster.Done()
			<-done
		})
	}
}

// --- engine comparison: serial vs sharded ------------------------------------

// BenchmarkEngineThroughput drives 8 unpaced threads over 32 locks and
// 16 sites with 4 synthetic signatures, which arm a quarter of the
// sites, and reports aggregate throughput per engine. The sharded
// engine serves the unarmed three quarters on its fast path; the serial
// reference engine takes its global lock for every call.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, mode := range []struct {
		name     string
		dimmunix bool
		serial   bool
	}{{"vanilla", false, false}, {"serial", true, true}, {"sharded", true, false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := workload.MicroConfig{
				Threads: 8, Locks: 32, Sites: 16, Signatures: 4,
				InsideWork: 20, OutsideWork: 60,
				Duration: 300 * time.Millisecond,
				Dimmunix: mode.dimmunix, Serial: mode.serial, Seed: 42,
			}
			var ops, requests, fast uint64
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				res, err := workload.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.CoreStats.DeadlocksDetected != 0 {
					b.Fatalf("engine benchmark detected %d deadlocks", res.CoreStats.DeadlocksDetected)
				}
				ops += res.Ops
				wall += res.Wall
				requests += res.CoreStats.Requests
				fast += res.CoreStats.FastRequests
			}
			b.ReportMetric(float64(ops)/wall.Seconds(), "syncs/sec")
			pct := 0.0
			if requests > 0 {
				pct = 100 * float64(fast) / float64(requests)
			}
			b.ReportMetric(pct, "fastpath-%")
		})
	}
}

// --- avoidance matching cost vs history size ---------------------------------

func BenchmarkAvoidanceMatching(b *testing.B) {
	for _, sigs := range []int{0, 64, 128, 256} {
		b.Run(fmt.Sprintf("sigs=%d", sigs), func(b *testing.B) {
			c, err := core.New()
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			hot := core.CallStack{{Class: "com.bench.Hot", Method: "m", Line: 1}}
			for i := 0; i < sigs; i++ {
				cold := core.CallStack{{Class: "com.bench.Cold", Method: "m", Line: 100 + i}}
				sig := &core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
					{Outer: hot, Inner: hot},
					{Outer: cold, Inner: cold},
				}}
				if _, _, err := c.AddSignature(sig); err != nil {
					b.Fatal(err)
				}
			}
			t := c.NewThreadNode("w", nil)
			l := c.NewLockNode("l")
			pos, err := c.Intern(hot)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Request(t, l, pos); err != nil {
					b.Fatal(err)
				}
				c.Acquired(t, l)
				c.Release(t, l)
			}
		})
	}
}

// --- one thread per P ---------------------------------------------------------

// syncProcsBlocks is how many synchronized blocks each thread of a
// BenchmarkSyncProcs iteration runs.
const syncProcsBlocks = 200000

// BenchmarkSyncProcs starts one vm thread per P (GOMAXPROCS, which -cpu
// sets) and has each run syncProcsBlocks uncontended synchronized blocks
// on an object of its own, at a site no signature names (vanilla and
// unarmed) or at one that 32 never-instantiable signatures name (armed,
// phone-sync's ratio); the shared-object row puts every thread on one
// object at the unarmed site, for true contention. It reports the
// aggregate syncs/sec; with -cpu 1,2 the ratio of the two rows is the
// multi-core scaling (1 would be a second core adding nothing).
func BenchmarkSyncProcs(b *testing.B) {
	unarmed := core.Frame{Class: "com.bench.Procs", Method: "unarmed", Line: 1}
	armed := core.Frame{Class: "com.bench.Procs", Method: "armed", Line: 2}
	history := core.NewMemHistory()
	for i := 0; i < 32; i++ {
		cold := core.Frame{Class: "com.bench.Cold", Method: "never", Line: 100 + i}
		if err := history.Append(&core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
			{Outer: core.CallStack{armed}, Inner: core.CallStack{armed}},
			{Outer: core.CallStack{cold}, Inner: core.CallStack{cold}},
		}}); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range []struct {
		name     string
		dimmunix bool
		site     core.Frame
		shared   bool
	}{
		{"vanilla", false, unarmed, false},
		{"unarmed", true, unarmed, false},
		{"armed", true, armed, false},
		{"shared-object", true, unarmed, true},
	} {
		b.Run(row.name, func(b *testing.B) {
			procs := runtime.GOMAXPROCS(0)
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				z := vm.NewZygote(vm.WithDimmunix(row.dimmunix), vm.WithHistory(history))
				p, err := z.Fork("bench-procs")
				if err != nil {
					b.Fatal(err)
				}
				objs := make([]*vm.Object, procs)
				for k := range objs {
					objs[k] = p.NewObject(fmt.Sprintf("lock-%d", k))
					if row.shared {
						objs[k] = objs[0]
					}
				}
				start := make(chan struct{})
				threads := make([]*vm.Thread, procs)
				for k := range threads {
					obj := objs[k]
					threads[k], err = p.Start(fmt.Sprintf("worker-%d", k), func(t *vm.Thread) {
						<-start
						for n := 0; n < syncProcsBlocks; n++ {
							t.Call(row.site.Class, row.site.Method, row.site.Line, func() { obj.Synchronized(t, func() {}) })
						}
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				t0 := time.Now()
				close(start)
				for _, t := range threads {
					<-t.Done()
				}
				wall += time.Since(t0)
				if got, want := p.SyncCount(), uint64(procs*syncProcsBlocks); got != want {
					b.Fatalf("%d syncs, want %d", got, want)
				}
				z.KillAll()
			}
			b.ReportMetric(float64(b.N*procs*syncProcsBlocks)/wall.Seconds(), "syncs/sec")
		})
	}
}
