package main

import (
	"fmt"
	"math"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// phone-sync: what an app pays. One Zygote-forked process, two threads,
// each running syncOps Thread.Call+Object.Synchronized blocks per round
// with no busy work, so the round rate is the interception cost itself
// (the paper's upper bound, not its 4–5 % operating point). A quarter of
// the sites are named by the synthetic history and take the avoidance
// slow path; the rest take the sharded fast path. Every Dimmunix round
// is paired with a vanilla round on the same plan.

// syncSampleEvery is the latency sampling stride: one op in 64 is
// bracketed by clock reads, which adds about a nanosecond per op.
const syncSampleEvery = 64

type phoneSync struct {
	in      *inputs
	history *core.MemHistory
	rounds  int
}

func newPhoneSync(in *inputs) *phoneSync {
	ps := &phoneSync{in: in, history: core.NewMemHistory()}
	for _, sig := range in.history {
		// MemHistory.Append cannot fail.
		_ = ps.history.Append(sig)
	}
	return ps
}

// syncRound is one process's run over the plan.
type syncRound struct {
	wall, cpu time.Duration
	lats      []time.Duration
	heap      uint64
	stats     core.Stats
	syncs     uint64
}

// runProcess forks one process from a fresh Zygote and runs the plan on
// it. Spans wrap the sampled ops only.
func (ps *phoneSync) runProcess(dimmunix bool, tr *tracer) (syncRound, error) {
	z := vm.NewZygote(vm.WithDimmunix(dimmunix), vm.WithHistory(ps.history))
	defer z.KillAll()
	p, err := z.Fork("com.example.app")
	if err != nil {
		return syncRound{}, err
	}
	locks := make([]*vm.Object, syncLocks)
	for i := range locks {
		locks[i] = p.NewObject(fmt.Sprintf("lock-%d", i))
	}
	sites := ps.in.sites
	start := make(chan struct{})
	threads := make([]*vm.Thread, syncThreads)
	lats := make([][]time.Duration, syncThreads)
	for i := range threads {
		plan := ps.in.plan[i]
		mine := make([]time.Duration, 0, len(plan)/syncSampleEvery+1)
		idx := i
		threads[i], err = p.Start(fmt.Sprintf("worker-%d", i), func(t *vm.Thread) {
			<-start
			op := 0
			for k, step := range plan {
				lock, f := locks[step>>4], sites[step&15]
				if k%syncSampleEvery != 0 {
					t.Call(f.Class, f.Method, f.Line, func() { lock.Synchronized(t, func() {}) })
					continue
				}
				if tr != nil {
					op = tr.newOp()
				}
				t0 := time.Now()
				t.Call(f.Class, f.Method, f.Line, func() { lock.Synchronized(t, func() {}) })
				t1 := time.Now()
				mine = append(mine, t1.Sub(t0))
				tr.add(0, op, "sync_block", layerVM, t0, t1)
			}
			lats[idx] = mine
		})
		if err != nil {
			close(start)
			return syncRound{}, err
		}
	}
	cpu0, t0 := cpuTime(), time.Now()
	close(start)
	for _, t := range threads {
		<-t.Done()
	}
	out := syncRound{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	for _, l := range lats {
		out.lats = append(out.lats, l...)
	}
	out.heap = liveHeap()
	out.syncs = p.SyncCount()
	if dimmunix {
		out.stats = p.Dimmunix().Stats()
	}
	return out, nil
}

func (ps *phoneSync) round(tr *tracer, _ bool) (roundResult, error) {
	ps.rounds++
	const ops = syncThreads * syncOps
	res := roundResult{ops: ops}
	// Alternate which side of the pair goes first, so neither always
	// inherits the other's warm caches.
	var dim, vanilla syncRound
	var err error
	run := func(d bool) {
		if err != nil {
			return
		}
		if d {
			dim, err = ps.runProcess(true, tr)
		} else {
			vanilla, err = ps.runProcess(false, nil)
		}
	}
	run(ps.rounds%2 == 0)
	run(ps.rounds%2 != 0)
	if err != nil {
		res.failed = ops
		return res, err
	}
	res.wall, res.cpu, res.lats, res.heap = dim.wall, dim.cpu, dim.lats, dim.heap
	res.baseWall = vanilla.wall

	st := dim.stats
	ratio := float64(st.FastRequests) / float64(st.Requests)
	res.counts = map[string]float64{"core.fast_path_ratio": ratio}
	switch {
	case dim.syncs != ops || vanilla.syncs != ops:
		err = fmt.Errorf("phone-sync: %d Dimmunix and %d vanilla syncs, want %d each", dim.syncs, vanilla.syncs, ops)
	case st.Requests != ops:
		err = fmt.Errorf("phone-sync: core saw %d requests, want %d", st.Requests, ops)
	case st.DeadlocksDetected != 0 || st.Yields != 0:
		err = fmt.Errorf("phone-sync: %d deadlocks and %d yields on an uncontended plan", st.DeadlocksDetected, st.Yields)
	case math.Abs(ratio-0.75) > 0.02:
		err = fmt.Errorf("phone-sync: fast-path ratio %.4f, want 0.75 ± 0.02", ratio)
	}
	if err != nil {
		res.failed = ops
	}
	return res, err
}
