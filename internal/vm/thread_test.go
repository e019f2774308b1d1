package vm

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

// startThread launches a thread on p and fails the test on error.
func startThread(t *testing.T, p *Process, name string, fn func(*Thread)) *Thread {
	t.Helper()
	th, err := p.Start(name, fn)
	if err != nil {
		t.Fatalf("Start(%s): %v", name, err)
	}
	return th
}

// waitDone waits for a thread to terminate.
func waitDone(t *testing.T, th *Thread) {
	t.Helper()
	select {
	case <-th.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("thread %s did not terminate", th.Name())
	}
}

// pollUntil polls cond until true or the deadline passes. Main test
// goroutine only (it may call Fatalf).
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !pollSoft(cond) {
		t.Fatalf("timeout waiting for %s", what)
	}
}

// pollSoft polls cond from any goroutine, returning whether it held within
// the deadline.
func pollSoft(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func TestThreadLifecycle(t *testing.T) {
	p := NewProcess("test", nil)
	defer p.Kill()
	ran := make(chan struct{})
	th := startThread(t, p, "worker", func(*Thread) { close(ran) })
	<-ran
	waitDone(t, th)
	if th.Err() != nil {
		t.Errorf("Err = %v, want nil", th.Err())
	}
	if th.State() != StateTerminated {
		t.Errorf("State = %v, want terminated", th.State())
	}
}

// parkInWait announces a park on parked, then parks th in o.Wait until a
// notify: a window in which other goroutines may read th's frames.
func parkInWait(th *Thread, o *Object, parked chan<- struct{}) {
	o.Synchronized(th, func() {
		parked <- struct{}{}
		if _, err := o.Wait(th, 0); err != nil {
			unwind(err)
		}
	})
}

// readWhileWaiting waits for th's next park on parked, runs read while th
// is waiting, then wakes th with a notify from a fresh thread.
func readWhileWaiting(t *testing.T, th *Thread, o *Object, parked <-chan struct{}, read func()) {
	t.Helper()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatalf("thread %s never parked", th.Name())
	}
	pollUntil(t, th.Name()+" waiting", func() bool { return th.State() == StateWaiting })
	read()
	waitDone(t, startThread(t, th.Process(), "notifier", func(nt *Thread) {
		o.Synchronized(nt, func() {
			if err := o.Notify(nt); err != nil {
				t.Error(err)
			}
		})
	}))
}

func TestThreadFrames(t *testing.T) {
	p := NewProcess("test", nil)
	defer p.Kill()
	o := p.NewObject("o")
	parked := make(chan struct{})
	var stack core.CallStack
	var depthInside, depthAfter int
	th := startThread(t, p, "worker", func(th *Thread) {
		th.Call("com.example.A", "outer", 10, func() {
			th.Call("com.example.B", "inner", 20, func() {
				parkInWait(th, o, parked)
			})
		})
		parkInWait(th, o, parked)
	})
	readWhileWaiting(t, th, o, parked, func() {
		depthInside = th.FrameDepth()
		stack = th.CurrentStack()
	})
	readWhileWaiting(t, th, o, parked, func() { depthAfter = th.FrameDepth() })
	waitDone(t, th)
	if depthInside != 2 || depthAfter != 0 {
		t.Errorf("depths = %d/%d, want 2/0", depthInside, depthAfter)
	}
	if len(stack) != 2 {
		t.Fatalf("stack length = %d, want 2", len(stack))
	}
	// Innermost first.
	if stack[0].Class != "com.example.B" || stack[1].Class != "com.example.A" {
		t.Errorf("stack order wrong: %v", stack)
	}
}

// TestFramesReadWhileParked: a reader loops on CurrentStack and
// DumpThreads while the owner pushes, pops, parks in Wait and unparks.
// Every stack read while the owner is parked must equal the frames it
// parked with, and a dump carries a stack exactly when its thread is not
// runnable. Under -race it also checks the readers/state pair: a reader
// still copying when the owner unparks races with the owner's next pop.
func TestFramesReadWhileParked(t *testing.T) {
	const parks = 300
	p := dimProcess(t)
	o := p.NewObject("o")
	framesAt := func(i int) []core.Frame {
		fs := make([]core.Frame, i%4+1)
		for k := range fs {
			fs[k] = core.Frame{Class: "com.app.Park", Method: fmt.Sprintf("m%d", k), Line: i*10 + k}
		}
		return fs
	}
	var cur atomic.Int64 // the owner's park number, once its frames are pushed
	var seen atomic.Int64
	cur.Store(-1)
	seen.Store(-1)
	owner := startThread(t, p, "owner", func(th *Thread) {
		for i := 0; i < parks; i++ {
			for _, f := range framesAt(i) {
				th.PushFrame(f)
			}
			cur.Store(int64(i))
			o.Synchronized(th, func() {
				if _, err := o.Wait(th, 0); err != nil {
					unwind(err)
				}
			})
			for range framesAt(i) {
				th.PopFrame()
			}
			th.Call("com.app.Busy", "run", i, func() {})
		}
		cur.Store(parks)
	})
	// The notifier wakes park i once the reader has seen it parked.
	notifier := startThread(t, p, "notifier", func(th *Thread) {
		for i := int64(0); i < parks; i++ {
			for seen.Load() < i || owner.State() != StateWaiting {
				if p.Killed() {
					return
				}
				runtime.Gosched()
			}
			o.Synchronized(th, func() {
				if err := o.Notify(th); err != nil {
					t.Error(err)
				}
			})
		}
	})

	check := func(what string, i int64, stack core.CallStack) {
		want := framesAt(int(i))
		ok := len(stack) == len(want)
		for k := 0; ok && k < len(want); k++ {
			ok = stack[k] == want[len(want)-1-k]
		}
		if !ok {
			t.Fatalf("%s at park %d = %v, want %v innermost first", what, i, stack, want)
		}
	}
	bound := time.After(20 * time.Second)
	for parkedReads := 0; ; {
		select {
		case <-owner.Done():
			waitDone(t, notifier)
			if parkedReads < parks {
				t.Errorf("%d parked reads, want at least one per park (%d)", parkedReads, parks)
			}
			return
		case <-bound:
			t.Fatalf("owner stuck at park %d", cur.Load())
		default:
		}
		i := cur.Load()
		stack := owner.CurrentStack()
		var dumped ThreadDump
		for _, d := range p.DumpThreads() {
			if (d.Stack == nil) != (d.State == StateRunnable) {
				t.Fatalf("dump of %s: state %v with stack %v", d.Name, d.State, d.Stack)
			}
			if d.ID == owner.ID() {
				dumped = d
			}
		}
		if i < 0 || i >= parks || cur.Load() != i {
			continue
		}
		if stack != nil {
			check("CurrentStack", i, stack)
			parkedReads++
			if seen.Load() < i {
				seen.Store(i)
			}
		}
		if dumped.Stack != nil {
			check("DumpThreads", i, dumped.Stack)
		}
	}
}

func TestThreadCaptureTop(t *testing.T) {
	p := NewProcess("test", nil)
	defer p.Kill()
	th := startThread(t, p, "worker", func(th *Thread) {
		th.PushFrame(core.Frame{Class: "a.A", Method: "m", Line: 1})
		th.PushFrame(core.Frame{Class: "b.B", Method: "n", Line: 2})
		th.PushFrame(core.Frame{Class: "c.C", Method: "o", Line: 3})

		top1 := th.captureTop(1)
		if len(top1) != 1 || top1[0].Class != "c.C" {
			t.Errorf("captureTop(1) = %v, want [c.C]", top1)
		}
		top2 := th.captureTop(2)
		if len(top2) != 2 || top2[0].Class != "c.C" || top2[1].Class != "b.B" {
			t.Errorf("captureTop(2) = %v", top2)
		}
		// Depth beyond the stack clamps.
		top9 := th.captureTop(9)
		if len(top9) != 3 {
			t.Errorf("captureTop(9) length = %d, want 3", len(top9))
		}
	})
	waitDone(t, th)
}

func TestThreadCaptureBufferReuse(t *testing.T) {
	p := NewProcess("test", nil)
	defer p.Kill()
	th := startThread(t, p, "worker", func(th *Thread) {
		th.PushFrame(core.Frame{Class: "a.A", Method: "m", Line: 1})
		first := th.captureTop(1)
		second := th.captureTop(1)
		if &first[0] != &second[0] {
			t.Error("captureTop must reuse the stack buffer (paper's Thread.stackBuffer)")
		}
	})
	waitDone(t, th)
}

func TestThreadSyntheticFrameWhenEmpty(t *testing.T) {
	p := NewProcess("test", nil)
	defer p.Kill()
	o := p.NewObject("o")
	parked := make(chan struct{})
	th := startThread(t, p, "bare", func(th *Thread) {
		cs := th.captureTop(1)
		if len(cs) != 1 || cs[0].Class != "vm.ThreadEntry" {
			t.Errorf("empty-stack capture = %v, want synthetic frame", cs)
		}
		parkInWait(th, o, parked)
	})
	readWhileWaiting(t, th, o, parked, func() {
		full := th.CurrentStack()
		if len(full) != 1 || full[0].Method != "bare" {
			t.Errorf("CurrentStack on empty frames = %v", full)
		}
	})
	waitDone(t, th)
}

func TestThreadInterruptFlag(t *testing.T) {
	p := NewProcess("test", nil)
	defer p.Kill()
	th := startThread(t, p, "w", func(th *Thread) {
		pollUntil(t, "interrupt flag", func() bool { return th.interrupted.Load() })
		if !th.Interrupted() {
			t.Error("Interrupted must report true once")
		}
		if th.Interrupted() {
			t.Error("Interrupted must clear the flag")
		}
	})
	th.Interrupt()
	waitDone(t, th)
}

func TestStartOnDeadProcess(t *testing.T) {
	p := NewProcess("test", nil)
	p.Kill()
	if _, err := p.Start("w", func(*Thread) {}); !errors.Is(err, ErrProcessDead) {
		t.Errorf("Start after Kill = %v, want ErrProcessDead", err)
	}
	if _, err := p.Start("w", nil); err == nil {
		t.Error("Start with nil function must fail")
	}
}

func TestThreadUnwindRecordsError(t *testing.T) {
	p := NewProcess("test", nil)
	defer p.Kill()
	sentinel := errors.New("boom")
	th := startThread(t, p, "w", func(*Thread) { unwind(sentinel) })
	waitDone(t, th)
	if !errors.Is(th.Err(), sentinel) {
		t.Errorf("Err = %v, want sentinel", th.Err())
	}
}
