package vm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

// Generated E1: the paper's immunity experiment over a family of
// generated lock inversions instead of one hand-written scenario. A draw
// is a k-cycle (k = 2..4): thread i takes lock i at its outer site, meets
// the others at a gate, then takes lock i+1 (mod k) at its inner site.
// Every site is distinct. Run 1 forces the deadlock; run 2 is a fresh
// process booted from run 1's history and must come through it by
// yielding. A draw is one of three families.

// e1Family is the shape a draw adds to the plain cycle.
type e1Family int

const (
	// e1Plain: each thread leaves its locks in LIFO order.
	e1Plain e1Family = iota
	// e1NonLIFO: each thread releases its outer lock before its inner
	// one, the unstructured locking of Gerakios et al. (PAPERS.md).
	e1NonLIFO
	// e1Decoy: the plain cycle, plus a run in which one decoy thread
	// passes alone through every outer site, holding them all at once. One
	// thread can never fill a signature that needs k distinct threads, so
	// it must never yield.
	e1Decoy
	e1Families
)

func (f e1Family) String() string {
	return [...]string{"plain", "non-LIFO exits", "decoy"}[f]
}

// e1Draw is one generated inversion.
type e1Draw struct {
	seed   int64
	k      int
	family e1Family
	// outer[i] and inner[i] are thread i's two sites' lines.
	outer, inner []int
}

func drawE1(seed int64) e1Draw {
	rng := rand.New(rand.NewSource(seed))
	d := e1Draw{seed: seed, k: 2 + rng.Intn(3), family: e1Family(rng.Intn(int(e1Families)))}
	lines := rng.Perm(1000)
	for i := 0; i < d.k; i++ {
		d.outer = append(d.outer, 1+lines[2*i])
		d.inner = append(d.inner, 1+lines[2*i+1])
	}
	return d
}

func (d e1Draw) String() string {
	return fmt.Sprintf("seed %d: %d-cycle, %s, outer lines %v, inner lines %v", d.seed, d.k, d.family, d.outer, d.inner)
}

// cycle runs the draw's threads on p and returns them.
func (d e1Draw) cycle(t *testing.T, p *Process) []*Thread {
	locks := make([]*Object, d.k)
	for i := range locks {
		locks[i] = p.NewObject(fmt.Sprintf("L%d", i))
	}
	g := p.NewGate(d.k)
	threads := make([]*Thread, d.k)
	for i := 0; i < d.k; i++ {
		outer, inner := locks[i], locks[(i+1)%d.k]
		class := fmt.Sprintf("gen.T%d", i)
		threads[i] = startThread(t, p, class, func(th *Thread) {
			th.Call(class, "outer", d.outer[i], func() {
				if outer.Enter(th) != nil {
					return
				}
				g.Arrive()
				th.Call(class, "inner", d.inner[i], func() {
					if inner.Enter(th) != nil {
						return
					}
					if d.family == e1NonLIFO {
						_ = outer.Exit(th)
						_ = inner.Exit(th)
						return
					}
					_ = inner.Exit(th)
					_ = outer.Exit(th)
				})
			})
		})
	}
	return threads
}

// decoy runs one thread through every outer site, nested, on p.
func (d e1Draw) decoy(t *testing.T, p *Process) *Thread {
	locks := make([]*Object, d.k)
	for i := range locks {
		locks[i] = p.NewObject(fmt.Sprintf("L%d", i))
	}
	var nest func(th *Thread, i int)
	nest = func(th *Thread, i int) {
		if i == d.k {
			return
		}
		th.Call(fmt.Sprintf("gen.T%d", i), "outer", d.outer[i], func() {
			if locks[i].Enter(th) != nil {
				return
			}
			nest(th, i+1)
			_ = locks[i].Exit(th)
		})
	}
	return startThread(t, p, "decoy", func(th *Thread) { nest(th, 0) })
}

// run plays the draw's two runs, and the decoy's, against one history.
func (d e1Draw) run(t *testing.T) {
	t.Helper()
	store := core.NewMemHistory()
	boot := func() *Process {
		c, err := core.New(core.WithStore(store))
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		p := NewProcess("gen", c)
		t.Cleanup(p.Kill)
		return p
	}

	// Run 1: the inversion deadlocks and is detected once.
	p1 := boot()
	detected := make(chan struct{})
	go func() {
		for ev := range p1.Dimmunix().Events() {
			if ev.Kind == core.EventDeadlockDetected {
				close(detected)
				return
			}
		}
	}()
	d.cycle(t, p1)
	select {
	case <-detected:
	case <-time.After(10 * time.Second):
		t.Fatalf("%v: run 1 detected no deadlock", d)
	}
	p1.Kill()
	st := p1.Dimmunix().Stats()
	hist := p1.Dimmunix().History()
	if st.DeadlocksDetected != 1 || st.DuplicateDeadlocks != 0 || len(hist) != 1 || len(hist[0].Pairs) != d.k || store.Len() != 1 {
		t.Fatalf("%v: run 1 detected %d (%d repeats), holds %d signatures (%v), persisted %d; want one %d-pair signature",
			d, st.DeadlocksDetected, st.DuplicateDeadlocks, len(hist), hist, store.Len(), d.k)
	}

	// Run 2: a fresh process from run 1's history yields instead.
	p2 := boot()
	d.cycle(t, p2)
	if !p2.Join(10 * time.Second) {
		t.Fatalf("%v: run 2 did not complete: %+v", d, p2.Dimmunix().Stats())
	}
	if st := p2.Dimmunix().Stats(); st.Yields == 0 || st.DeadlocksDetected != 0 || st.DuplicateDeadlocks != 0 {
		t.Fatalf("%v: run 2 yielded %d times and detected %d (%d repeats); want yields and no deadlock",
			d, st.Yields, st.DeadlocksDetected, st.DuplicateDeadlocks)
	}

	if d.family == e1Decoy {
		p3 := boot()
		d.decoy(t, p3)
		if !p3.Join(10 * time.Second) {
			t.Fatalf("%v: the decoy did not complete", d)
		}
		if st := p3.Dimmunix().Stats(); st.Yields != 0 || st.DeadlocksDetected != 0 {
			t.Fatalf("%v: the decoy alone yielded %d times and detected %d; want 0 and 0", d, st.Yields, st.DeadlocksDetected)
		}
	}
	p2.Kill()
}

// TestGeneratedE1 plays 500 generated inversions and requires every
// family and every cycle length among them.
func TestGeneratedE1(t *testing.T) {
	const draws = 500
	const baseSeed = 20110627
	seen := map[string]int{}
	for i := int64(0); i < draws; i++ {
		d := drawE1(baseSeed + i)
		d.run(t)
		seen[d.family.String()]++
		seen[fmt.Sprintf("k=%d", d.k)]++
	}
	t.Logf("%d draws: %v", draws, seen)
	for f := e1Family(0); f < e1Families; f++ {
		if seen[f.String()] == 0 {
			t.Errorf("no %s draw in %d", f, draws)
		}
	}
	for k := 2; k <= 4; k++ {
		if seen[fmt.Sprintf("k=%d", k)] == 0 {
			t.Errorf("no %d-cycle in %d draws", k, draws)
		}
	}
}
