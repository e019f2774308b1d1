package android

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/vm"
)

// testProc forks a Dimmunix-enabled process for platform tests.
func testProc(t *testing.T) *vm.Process {
	t.Helper()
	z := vm.NewZygote(vm.WithDimmunix(true))
	p, err := z.Fork("test-proc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Kill)
	return p
}

func TestLooperDispatchesInOrder(t *testing.T) {
	p := testProc(t)
	l, err := StartLooper(p, "test-looper")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	var order []int
	done := make(chan struct{})
	h := NewHandler(l, "h", func(_ *vm.Thread, msg Message) {
		order = append(order, msg.What) // only the looper thread touches it
		if msg.What == n-1 {
			close(done)
		}
	})
	sender, err := p.Start("sender", func(t *vm.Thread) {
		for i := 0; i < n; i++ {
			h.Send(t, Message{What: i})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-sender.Done()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("messages not dispatched")
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("message %d dispatched out of order: %v", i, order)
		}
	}
	if l.Dispatched() < n {
		t.Errorf("Dispatched = %d, want >= %d", l.Dispatched(), n)
	}
}

func TestHandlerPostCallback(t *testing.T) {
	p := testProc(t)
	l, err := StartLooper(p, "cb-looper")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(l, "h", nil)
	ran := make(chan string, 1)
	poster, err := p.Start("poster", func(t *vm.Thread) {
		h.Post(t, func(lt *vm.Thread) { ran <- lt.Name() })
	})
	if err != nil {
		t.Fatal(err)
	}
	<-poster.Done()
	select {
	case name := <-ran:
		if name != "cb-looper" {
			t.Errorf("callback ran on %q, want looper thread", name)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("callback never ran")
	}
}

func TestLooperQuitDrainsPending(t *testing.T) {
	p := testProc(t)
	l, err := StartLooper(p, "quit-looper")
	if err != nil {
		t.Fatal(err)
	}
	var processed atomic.Int32
	h := NewHandler(l, "h", func(*vm.Thread, Message) {
		processed.Add(1)
	})
	const n = 5
	ctl, err := p.Start("ctl", func(t *vm.Thread) {
		for i := 0; i < n; i++ {
			h.Send(t, Message{What: i})
		}
		l.Quit(t)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ctl.Done()
	select {
	case <-l.Thread().Done():
	case <-time.After(10 * time.Second):
		t.Fatal("looper did not quit")
	}
	if got := processed.Load(); got != n {
		t.Errorf("processed %d of %d pending messages before quitting", got, n)
	}
}

func TestMessageQueueBlocksUntilMessage(t *testing.T) {
	p := testProc(t)
	q := newMessageQueue(p, "q")
	got := make(chan Message, 1)
	consumer, err := p.Start("consumer", func(t *vm.Thread) {
		if m, ok := q.Next(t); ok {
			got <- m
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("Next returned before any message was queued")
	case <-time.After(20 * time.Millisecond):
	}
	producer, err := p.Start("producer", func(t *vm.Thread) {
		q.Enqueue(t, Message{What: 7})
	})
	if err != nil {
		t.Fatal(err)
	}
	<-producer.Done()
	select {
	case m := <-got:
		if m.What != 7 {
			t.Errorf("got What=%d, want 7", m.What)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer never woke")
	}
	<-consumer.Done()
}

// TestWatchdogQuietOnHealthyHandler: however long passes between steps,
// a looper whose heartbeats land is never reported.
func TestWatchdogQuietOnHealthyHandler(t *testing.T) {
	p := testProc(t)
	l, err := StartLooper(p, "healthy")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(l, "healthy-h", func(*vm.Thread, Message) {})
	var frozen []string
	w, err := newWatchdog(p, []*Handler{h}, 10*time.Millisecond, 30*time.Millisecond, func(name string) {
		frozen = append(frozen, name)
	})
	if err != nil {
		t.Fatal(err)
	}
	driveWatchdog(t, p, func(th *vm.Thread) {
		now := time.Unix(0, 0)
		for i := 0; i < 5; i++ {
			w.step(th, now)
			runOnLooper(th, h, func(*vm.Thread) {})
			now = now.Add(time.Hour)
		}
	})
	if len(frozen) != 0 {
		t.Errorf("watchdog reported freezes %v on a healthy handler", frozen)
	}
}

// TestWatchdogDetectsFrozenHandler: a heartbeat stuck behind a frozen
// message is reported at the threshold, not before, and once per episode.
func TestWatchdogDetectsFrozenHandler(t *testing.T) {
	p := testProc(t)
	l, err := StartLooper(p, "freezing")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	h := NewHandler(l, "frozen-h", func(*vm.Thread, Message) {
		<-block // freeze the looper on the first message
	})
	const threshold = 40 * time.Millisecond
	var reports []string
	w, err := newWatchdog(p, []*Handler{h}, 10*time.Millisecond, threshold, func(name string) {
		reports = append(reports, name)
	})
	if err != nil {
		t.Fatal(err)
	}
	driveWatchdog(t, p, func(th *vm.Thread) {
		h.Send(th, Message{What: 1}) // every later message queues behind it
		t0 := time.Unix(0, 0)
		w.step(th, t0) // posts the heartbeat
		w.step(th, t0.Add(threshold-time.Nanosecond))
		if len(reports) != 0 {
			t.Errorf("reported %v before the threshold", reports)
		}
		w.step(th, t0.Add(threshold))
		w.step(th, t0.Add(time.Hour))
	})
	if len(reports) != 1 || reports[0] != "freezing" {
		t.Errorf("reports = %v, want one for looper freezing", reports)
	}
}

// driveWatchdog runs steps on a VM thread of p (a step posts heartbeats,
// which takes a VM thread) and waits for it to finish.
func driveWatchdog(t *testing.T, p *vm.Process, steps func(*vm.Thread)) {
	t.Helper()
	th, err := p.Start("watchdog-driver", steps)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-th.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog steps hung")
	}
}

// runOnLooper posts fn to h's looper and waits until it has run; the
// looper dispatches in FIFO order, so every message posted before it has
// run too.
func runOnLooper(t *vm.Thread, h *Handler, fn func(*vm.Thread)) {
	ran := make(chan struct{})
	h.Post(t, func(lt *vm.Thread) {
		fn(lt)
		close(ran)
	})
	<-ran
}

func TestServiceManagerRegistry(t *testing.T) {
	p := testProc(t)
	sm := NewServiceManager(p)
	nms := NewNotificationManagerService(p)
	th, err := p.Start("registrar", func(vt *vm.Thread) {
		sm.AddService(vt, nms)
		if got := sm.GetService(vt, "notification"); got != Service(nms) {
			t.Error("GetService returned wrong service")
		}
		if got := sm.GetService(vt, "missing"); got != nil {
			t.Error("GetService for unknown name must return nil")
		}
		if names := sm.ListServices(vt); len(names) != 1 || names[0] != "notification" {
			t.Errorf("ListServices = %v", names)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-th.Done()
	if th.Err() != nil {
		t.Fatal(th.Err())
	}
}

func TestFrameworkCensusMatchesPaperCounts(t *testing.T) {
	census, err := FrameworkCensus()
	if err != nil {
		t.Fatal(err)
	}
	counts := census.Counts()
	if counts.TotalSyncSites != TargetSyncSites {
		t.Errorf("synchronized sites = %d, want %d", counts.TotalSyncSites, TargetSyncSites)
	}
	if counts.ExplicitLocks != TargetExplicitSites {
		t.Errorf("explicit lock sites = %d, want %d", counts.ExplicitLocks, TargetExplicitSites)
	}
	if counts.ClassesDeclared < 40 {
		t.Errorf("classes = %d, want a realistic platform spread (>= 40)", counts.ClassesDeclared)
	}
	// The live-service sites must also fit under the same total.
	p := testProc(t)
	nms := NewNotificationManagerService(p)
	l, err := StartLooper(p, "ui")
	if err != nil {
		t.Fatal(err)
	}
	sbs := NewStatusBarService(p, l)
	census2, err := FrameworkCensus(nms.censusSites(), sbs.censusSites())
	if err != nil {
		t.Fatal(err)
	}
	if got := census2.Counts().TotalSyncSites; got != TargetSyncSites {
		t.Errorf("census with service sites = %d, want %d", got, TargetSyncSites)
	}
}
