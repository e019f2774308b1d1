package android

import (
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// TestYieldingThreadReadsBlockedInANR: a thread that avoidance suspends
// before a monitorenter reads as blocked (vm.StateBlocked includes
// avoidance yields), so an ANR report taken during the yield lists it
// among BlockedThreads, as it would list a thread blocked on the monitor
// itself. The vm marks the thread blocked from core.Enter's hook, which
// runs before the request that yields.
func TestYieldingThreadReadsBlockedInANR(t *testing.T) {
	first := core.Frame{Class: "com.app.First", Method: "run", Line: 10}
	second := core.Frame{Class: "com.app.Second", Method: "run", Line: 20}
	c, err := core.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AddSignature(&core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
		{Outer: core.CallStack{first}, Inner: core.CallStack{first}},
		{Outer: core.CallStack{second}, Inner: core.CallStack{second}},
	}}); err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess("app", c)
	defer p.Kill()
	a, b := p.NewObject("A"), p.NewObject("B")

	// The holder occupies the signature's first slot and keeps it until
	// the report is taken.
	held, leave := make(chan struct{}), make(chan struct{})
	if _, err := p.Start("holder", func(th *vm.Thread) {
		th.Call(first.Class, first.Method, first.Line, func() {
			a.Synchronized(th, func() {
				close(held)
				<-leave
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	<-held
	_, yielded := c.Yielded()
	yielder, err := p.Start("yielder", func(th *vm.Thread) {
		th.Call(second.Class, second.Method, second.Line, func() {
			b.Synchronized(th, func() {})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-yielded:
	case <-time.After(10 * time.Second):
		t.Fatal("the second thread never yielded")
	}

	state := yielder.State()
	report := &ANRReport{Looper: "main", Process: p.Name(), When: time.Now(), Threads: p.DumpThreads()}
	close(leave)
	if state != vm.StateBlocked {
		t.Errorf("a thread yielding in avoidance reads %v, want %v", state, vm.StateBlocked)
	}
	var listed bool
	for _, d := range report.BlockedThreads() {
		listed = listed || d.Name == "yielder"
	}
	if !listed {
		t.Errorf("the ANR report's blocked threads omit the yielding thread:\n%s", report)
	}
	if !p.Join(10 * time.Second) {
		t.Fatal("the yielder did not resume once the holder left")
	}
}
