package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Schedules run side by side on the serial engine, the sharded engine and
// the reference model (model_test.go). A schedule is a byte string read
// four bytes per step: an operation and three operands, reduced modulo the
// small world below, so every input is a valid schedule and a failing one
// is its own replay script. Operations whose precondition does not hold
// (a release by a thread that holds nothing, say) are skipped on all
// three. After every step the two engines must count exactly what the
// model decides, and both must keep their position queues equal to a
// recount of the RAG and their watched-slot index equal to a recount of
// the queues.

const (
	schedThreads   = 3
	schedLocks     = 3
	schedPositions = 4
	schedMaxSteps  = 64
)

// schedEngine is one Core under a schedule, with its nodes.
type schedEngine struct {
	name    string
	c       *Core
	threads []*Node
	locks   []*Node
	pos     []*Position
}

func newSchedEngine(t testing.TB, name string, opts ...Option) *schedEngine {
	t.Helper()
	c, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	e := &schedEngine{name: name, c: c}
	for i := 0; i < schedThreads; i++ {
		e.threads = append(e.threads, c.NewThreadNode(fmt.Sprintf("t%d", i), nil))
	}
	for i := 0; i < schedLocks; i++ {
		e.locks = append(e.locks, c.NewLockNode(fmt.Sprintf("l%d", i)))
	}
	for i := 0; i < schedPositions; i++ {
		p, err := c.Intern(CallStack{schedFrame(i)})
		if err != nil {
			t.Fatal(err)
		}
		e.pos = append(e.pos, p)
	}
	return e
}

// enter is a monitorenter as the VM drives it: EnterFast, whose tryLock
// loses while the lock is held, as the runtime's lock would, else Request
// and Acquired. A lock another thread holds leaves the thread approved
// and waiting (Request only), as a blocked monitorenter. It reports
// whether EnterFast took it.
func (e *schedEngine) enter(th, l, p int, held bool) (bool, error) {
	t, lk, pos := e.threads[th], e.locks[l], e.pos[p]
	if e.c.EnterFast(t, lk, pos, func() bool { return lk.owner == nil }) {
		return true, nil
	}
	if err := e.c.Request(t, lk, pos); err != nil {
		return false, err
	}
	if !held {
		e.c.Acquired(t, lk)
	}
	return false, nil
}

// install adds a signature of the given kind over the given positions.
func (e *schedEngine) install(kind SigKind, positions []int) (bool, error) {
	frames := make([]Frame, len(positions))
	for i, p := range positions {
		frames[i] = schedFrame(p)
	}
	_, fresh, err := e.c.AddSignature(sigOf(kind, frames...))
	return fresh, err
}

// guard arms a one-pair starvation signature at each position, which
// suppresses every yield a request there would make (refModel's comment).
func (e *schedEngine) guard(positions []int) error {
	for _, p := range positions {
		if _, err := e.install(StarvationSig, []int{p}); err != nil {
			return err
		}
	}
	return nil
}

// keys returns the engine's deadlock signature keys, sorted.
func (e *schedEngine) keys() string {
	var out []string
	for _, info := range e.c.History() {
		if info.Kind == DeadlockSig {
			out = append(out, (&Signature{Kind: info.Kind, Pairs: info.Pairs}).Key())
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// schedCounts are the decision counters a step is judged by.
type schedCounts struct {
	requests, detected, duplicates, found, suppressed, checks uint64
	yields, starvations, misuse                               uint64
}

func countsOf(s Stats) schedCounts {
	return schedCounts{
		requests: s.Requests, detected: s.DeadlocksDetected, duplicates: s.DuplicateDeadlocks,
		found: s.InstantiationsFound, suppressed: s.SuppressedYields, checks: s.AvoidanceChecks,
		yields: s.Yields, starvations: s.Starvations, misuse: s.Misuse,
	}
}

func (a schedCounts) minus(b schedCounts) schedCounts {
	return schedCounts{
		requests: a.requests - b.requests, detected: a.detected - b.detected,
		duplicates: a.duplicates - b.duplicates, found: a.found - b.found,
		suppressed: a.suppressed - b.suppressed, checks: a.checks - b.checks,
		yields: a.yields - b.yields, starvations: a.starvations - b.starvations,
		misuse: a.misuse - b.misuse,
	}
}

// schedCoverage is what a schedule exercised on the sharded engine.
type schedCoverage struct {
	sharedArmed    uint64 // armed enters EnterFast approved under the shared lock
	exclusiveArmed int    // armed enters at a free lock EnterFast refused
	found          uint64 // instantiations avoidance found
	detected       uint64 // deadlocks recorded
}

// runEngineSchedule replays input on both engines and the model and fails
// t at the first step where they part.
func runEngineSchedule(t testing.TB, input []byte) schedCoverage {
	t.Helper()
	serial := newSchedEngine(t, "serial", WithSerialEngine(true))
	sharded := newSchedEngine(t, "sharded")
	engines := []*schedEngine{serial, sharded}
	m := newRefModel()
	var cov schedCoverage
	var script []string
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("schedule %q, after steps\n\t%s\n%s", input, strings.Join(script, "\n\t"), fmt.Sprintf(format, args...))
	}
	for step := 0; step < schedMaxSteps && 4*step+4 <= len(input); step++ {
		b := input[4*step : 4*step+4]
		op, th, l, p := b[0]%6, int(b[1])%schedThreads, int(b[2])%schedLocks, int(b[3])%schedPositions
		before := make([]schedCounts, len(engines))
		for i, e := range engines {
			before[i] = countsOf(e.c.Stats())
		}
		var (
			want      schedCounts
			installed []int // positions of a deadlock signature this step added
			line      string
		)
		switch op {
		case 0: // enter: th takes l at p, or waits for it
			_, waiting := m.reqLock[th]
			o, held := m.owner[l]
			if waiting || (held && o == th) {
				continue
			}
			armed := sharded.pos[p].inHistory.Load()
			v := m.request(th, l, p)
			if !held {
				m.acquired(th)
			}
			want = schedCounts{requests: 1, checks: v.checks}
			if v.detected {
				want.detected = 1
			}
			if v.duplicate {
				want.duplicates = 1
			}
			if v.found {
				want.found, want.suppressed = 1, 1
			}
			installed = v.cycle
			line = fmt.Sprintf("t%d enters l%d at p%d (held: %v)", th, l, p, held)
			for _, e := range engines {
				fast, err := e.enter(th, l, p, held)
				if err != nil {
					fail("%s: %s: %v", e.name, line, err)
				}
				if e == sharded && armed && !held && !fast {
					cov.exclusiveArmed++
				}
			}
		case 1: // exit: th releases one of its locks, in any order
			var mine []int
			for lk, o := range m.owner {
				if o == th {
					mine = append(mine, lk)
				}
			}
			if len(mine) == 0 {
				continue
			}
			sort.Ints(mine)
			l = mine[int(b[2])%len(mine)]
			m.release(l)
			line = fmt.Sprintf("t%d releases l%d", th, l)
			for _, e := range engines {
				e.c.Release(e.threads[th], e.locks[l])
			}
		case 2: // a waiting thread gets its lock once it is free
			lw, waiting := m.reqLock[th]
			if _, held := m.owner[lw]; !waiting || held {
				continue
			}
			m.acquired(th)
			line = fmt.Sprintf("t%d acquires l%d", th, lw)
			for _, e := range engines {
				e.c.Acquired(e.threads[th], e.locks[lw])
			}
		case 3: // a waiting thread gives up
			lw, waiting := m.reqLock[th]
			if !waiting {
				continue
			}
			m.abort(th)
			line = fmt.Sprintf("t%d aborts l%d", th, lw)
			for _, e := range engines {
				e.c.Abort(e.threads[th], e.locks[lw])
			}
		case 4: // a deadlock signature over two or three positions
			positions := []int{int(b[2]) % schedPositions, p}
			if b[1]&1 != 0 {
				positions = append(positions, int(b[1]/2)%schedPositions)
			}
			fresh := m.addSig(positions)
			installed = positions
			line = fmt.Sprintf("deadlock signature over %v", positions)
			for _, e := range engines {
				got, err := e.install(DeadlockSig, positions)
				if err != nil || got != fresh {
					fail("%s: %s: fresh %v, err %v; the model says fresh %v", e.name, line, got, err, fresh)
				}
			}
		case 5: // a starvation signature alone: p armed, with no candidate
			line = fmt.Sprintf("starvation signature at p%d", p)
			for _, e := range engines {
				if err := e.guard([]int{p}); err != nil {
					fail("%s: %s: %v", e.name, line, err)
				}
			}
		}
		script = append(script, line)
		for i, e := range engines {
			if got := countsOf(e.c.Stats()).minus(before[i]); got != want {
				fail("%s counted %+v, the model %+v", e.name, got, want)
			}
		}
		for _, e := range engines {
			if err := e.guard(installed); err != nil {
				fail("%s: guard %v: %v", e.name, installed, err)
			}
			if keys, want := e.keys(), m.keys(); keys != want {
				fail("%s holds signatures %s, the model %s", e.name, keys, want)
			}
			if v := engineViolation(e.c); v != "" {
				fail("%s: %s", e.name, v)
			}
		}
	}
	st := sharded.c.Stats()
	for _, th := range sharded.threads {
		cov.sharedArmed += th.armedRequests
	}
	cov.found, cov.detected = st.InstantiationsFound, st.DeadlocksDetected+st.DuplicateDeadlocks
	return cov
}

// engineViolation recounts c's position queues from the RAG and its
// watched-slot index from the queues, and describes every difference, or
// returns "".
func engineViolation(c *Core) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(append(queueViolationsLocked(c), indexViolationsLocked(c)...), "; ")
}

// queueViolationsLocked describes where a position queue differs from the
// RAG: one entry per hold and per approved request at an armed position,
// each the holding or requesting node's own, and none elsewhere. Caller
// must hold c.mu exclusively.
func queueViolationsLocked(c *Core) []string {
	c.nodesMu.Lock()
	locks, threads := c.lockNodes, c.threadNodes
	c.nodesMu.Unlock()
	var out []string
	c.positions.forEach(func(key string, p *Position) {
		want := map[*entry]*Node{}
		for _, l := range locks {
			if o := l.owner; o != nil && l.acqPos == p {
				if (l.acqEntry != nil) != p.inHistory.Load() {
					out = append(out, fmt.Sprintf("%s held at %s has entry %v, armed %v", l, key, l.acqEntry, p.inHistory.Load()))
				}
				if l.acqEntry != nil {
					want[l.acqEntry] = o
				}
			}
		}
		for _, t := range threads {
			if t.reqLock != nil && t.reqPos == p && t.reqEntry != nil {
				want[t.reqEntry] = t
			}
		}
		n := 0
		for e := p.queue.head; e != nil; e = e.next {
			n++
			if want[e] != e.thread {
				out = append(out, fmt.Sprintf("%s's queue holds %s, which no hold or request at it owns", key, e.thread))
			}
		}
		if n != len(want) || n != p.queue.len() {
			out = append(out, fmt.Sprintf("%s's queue has %d entries (size %d), the RAG %d", key, n, p.queue.len(), len(want)))
		}
	})
	sort.Strings(out)
	return out
}

// indexViolationsLocked describes where the watched-slot index differs
// from a recount: every watch on an empty queue, each position's watchers
// exactly the signatures watching it, and exposed those plus the ones
// naming it that watch nothing. Caller must hold c.mu exclusively.
func indexViolationsLocked(c *Core) []string {
	var out []string
	c.positions.forEach(func(key string, p *Position) {
		var exposed int32
		watching := 0
		for _, s := range p.sigs {
			if s.Kind != DeadlockSig {
				continue
			}
			if s.watch < 0 || s.slots[s.watch] == p {
				exposed++
			}
			if s.watch >= 0 && s.slots[s.watch] == p {
				watching++
			}
		}
		if got := p.exposed.Load(); got != exposed {
			out = append(out, fmt.Sprintf("%s: exposed %d, recount %d", key, got, exposed))
		}
		listed := 0
		for s := p.watchers; s != nil && listed <= watching; s = s.nextWatcher {
			listed++
			if s.watch < 0 || s.slots[s.watch] != p {
				out = append(out, fmt.Sprintf("%s lists a watcher that watches elsewhere", key))
			}
		}
		if listed != watching {
			out = append(out, fmt.Sprintf("%s: %d watchers listed, %d signatures watch it", key, listed, watching))
		}
	})
	c.histMu.Lock()
	for _, s := range c.history {
		if s.Kind == DeadlockSig && s.watch >= 0 && s.slots[s.watch].queue.len() != 0 {
			out = append(out, fmt.Sprintf("%s watches %s, whose queue is not empty", s.Key(), s.slots[s.watch].key))
		}
	}
	c.histMu.Unlock()
	sort.Strings(out)
	return out
}

// scheduleSeeds is the fuzzer's seed corpus, which TestEngineSchedules
// runs too: a signature over p0 and p1 with enters at both (an
// instantiation), and the ABBA deadlock.
var scheduleSeeds = [][]byte{
	{4, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1},
	{0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 2, 0, 1, 0, 3},
}

// FuzzEngineSchedule checks the serial engine, the sharded engine and the
// reference model against each other on fuzzer-made schedules.
func FuzzEngineSchedule(f *testing.F) {
	for _, s := range scheduleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		runEngineSchedule(t, input)
	})
}

// scheduleBaseSeed numbers TestEngineSchedules' generated schedules:
// schedule i is a pure function of scheduleBaseSeed+i.
const scheduleBaseSeed = 20110627

// TestEngineSchedules runs generated schedules through runEngineSchedule
// in tier-1, and requires them to reach every path the watched-slot index
// and the shared armed enter add: armed enters approved under the shared
// lock and refused to the exclusive path, instantiations found and
// deadlocks detected.
func TestEngineSchedules(t *testing.T) {
	const schedules = 1500
	var total schedCoverage
	for i := int64(0); i < schedules; i++ {
		rng := rand.New(rand.NewSource(scheduleBaseSeed + i))
		input := make([]byte, 4*(8+rng.Intn(schedMaxSteps-8)))
		rng.Read(input)
		// Signatures are one op in six; front-load one so most schedules
		// spend their steps armed.
		input[0] = 4
		cov := runEngineSchedule(t, input)
		total.sharedArmed += cov.sharedArmed
		total.exclusiveArmed += cov.exclusiveArmed
		total.found += cov.found
		total.detected += cov.detected
	}
	t.Logf("%d schedules: %+v", schedules, total)
	for what, n := range map[string]uint64{
		"armed enters approved under the shared lock": total.sharedArmed,
		"armed enters refused to the exclusive path":  uint64(total.exclusiveArmed),
		"instantiations found":                        total.found,
		"deadlocks detected":                          total.detected,
	} {
		if n < schedules/100 {
			t.Errorf("only %d %s over %d schedules: the generator no longer covers it", n, what, schedules)
		}
	}
	for _, s := range scheduleSeeds {
		runEngineSchedule(t, s)
	}
}
