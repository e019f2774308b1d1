package vm

import (
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

// TestGate pins the gate's rule (package comment, "Gates"), one fresh
// process per row. No row waits on a timer: the bounds in waitDone,
// pollUntil and killWithin only keep a broken gate from hanging the test.
func TestGate(t *testing.T) {
	for _, row := range []struct {
		name string
		proc func(*testing.T) *Process
		run  func(*testing.T, *Process)
	}{
		{"all parties arrive/vanilla", gateProcess(false), allArrive},
		{"all parties arrive/dimmunix", gateProcess(true), allArrive},
		{"armed inversion: the yield opens it", armedProcess, func(t *testing.T, p *Process) {
			t1, t2, met := abbaScenario(t, p)
			waitDone(t, t1)
			waitDone(t, t2)
			for i := 0; i < 2; i++ {
				if <-met {
					t.Error("a party passed the gate as a rendezvous, but its peer was suspended")
				}
			}
			if st := p.Dimmunix().Stats(); st.Yields != 1 || st.DeadlocksDetected != 0 {
				t.Errorf("yields=%d deadlocks=%d, want 1 and 0", st.Yields, st.DeadlocksDetected)
			}
		}},
		{"a yield before NewGate does not open it", armedProcess, func(t *testing.T, p *Process) {
			t1, t2, _ := abbaScenario(t, p)
			waitDone(t, t1)
			waitDone(t, t2)
			if y := p.Dimmunix().Stats().Yields; y != 1 {
				t.Fatalf("setup yielded %d times, want 1", y)
			}
			allArrive(t, p)
		}},
		{"Kill releases a lone waiter", gateProcess(true), func(t *testing.T, p *Process) {
			g := p.NewGate(2)
			met := make(chan bool, 1)
			startThread(t, p, "lone", func(*Thread) { met <- g.Arrive() })
			pollUntil(t, "the lone party at the gate", func() bool { return g.missing.Load() == 1 })
			if killWithin(t, p) && <-met {
				t.Error("a lone party passed a two-party gate")
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := row.proc(t)
			t.Cleanup(func() { killWithin(t, p) })
			row.run(t, p)
		})
	}
}

// allArrive has three threads meet at a fresh gate; each must pass it.
func allArrive(t *testing.T, p *Process) {
	g := p.NewGate(3)
	met := make(chan bool, 3)
	var parties []*Thread
	for _, name := range []string{"a", "b", "c"} {
		parties = append(parties, startThread(t, p, name, func(*Thread) { met <- g.Arrive() }))
	}
	for _, th := range parties {
		waitDone(t, th)
	}
	for i := 0; i < 3; i++ {
		if !<-met {
			t.Error("a party was turned away although every party arrived")
		}
	}
}

// gateProcess returns a constructor for a vanilla or an unarmed Dimmunix
// process.
func gateProcess(dimmunix bool) func(*testing.T) *Process {
	return func(t *testing.T) *Process {
		if !dimmunix {
			return NewProcess("vanilla", nil)
		}
		c, err := core.New()
		if err != nil {
			t.Fatal(err)
		}
		return NewProcess("dim", c)
	}
}

// armedProcess deadlocks abbaScenario once on a fresh core, then returns
// a new process booted from that history: armed against the inversion.
func armedProcess(t *testing.T) *Process {
	store := core.NewMemHistory()
	c1, err := core.New(core.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	run1 := NewProcess("run1", c1)
	abbaScenario(t, run1)
	pollUntil(t, "run 1 deadlock", func() bool { return c1.Stats().DeadlocksDetected == 1 })
	killWithin(t, run1)
	c2, err := core.New(core.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	return NewProcess("armed", c2)
}

// killWithin kills p and reports whether Kill returned within the bound.
func killWithin(t *testing.T, p *Process) bool {
	t.Helper()
	done := make(chan struct{})
	go func() {
		p.Kill()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(10 * time.Second):
		t.Errorf("Kill of %s did not return", p.Name())
		return false
	}
}
