package immunity

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/clock"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
)

// The step table drives queues on a mock clock it never runs: the test
// calls step itself, so every row runs on the test goroutine in one
// order, with no timer. A row is a queue configuration
// and a script of actions; the actions and the queue's callbacks append
// to one log, which must read as the row's want.
//
// Actions: +N enqueues N; s steps (logging "stop" when step reports the
// queue ended); c closes; r resumes; p logs "pN", N = Pending(); g logs
// the Depth/InFlight gauges; h logs the BatchSizes count and sum and the
// CoalesceRatio sum; d logs "done" or "open" for Done. A delivery call
// logs its batch ("[1 2]") or item ("1") as it starts, "!" first when the
// row fails that call, then runs the row's actions for that call. OnDrop
// logs "dropN" and OnExit "exit".
type queueRow struct {
	group, name         string // group: the test that runs the row, less "TestQueue"
	batch, retry, merge bool   // DeliverBatch; RetryOnError; Merge sums
	cap                 int
	script              string
	during              map[int]string // delivery call (from 1) → actions run inside it
	fail                []int          // delivery calls that fail
	want                string
}

var queueSteps = []queueRow{
	{group: "DeliverBatch", name: "each step hands the queue over in one call, in order", batch: true,
		script: "+1 +2 +3 s +4 +5 s s", want: "[1 2 3] [4 5]"},
	{group: "DeliverBatch", name: "Deliver hands it over item by item", script: "+1 +2 s +3 s", want: "1 2 3"},
	{group: "DeliverBatch", name: "Merge folds into the queued tail, not into the batch in flight", batch: true, merge: true,
		during: map[int]string{1: "+2 +3"}, script: "+1 s s", want: "[1] [5]"},

	{group: "DeliverBatchDropOnError", name: "a failed batch ends the queue and drops what is pending", batch: true,
		fail: []int{1}, script: "+1 +2 s p +3 p d s", want: "![1 2] exit stop p0 p0 done stop"},

	{group: "DeliverBatchRetryParks", name: "a failed batch is re-queued whole and parks until Resume", batch: true, retry: true,
		fail: []int{1}, script: "+1 +2 s p +3 s p r s p", want: "![1 2] p2 p3 [1 2 3] p0"},
	{group: "DeliverBatchRetryParks", name: "Deliver re-queues from the failed item; the delivered prefix leaves", retry: true,
		fail: []int{2}, script: "+1 +2 +3 s p r s p", want: "1 !2 p2 2 3 p0"},

	{group: "ResumeDuringFailingDelivery", name: "a Resume during the failing delivery retries at once", retry: true,
		fail: []int{1}, during: map[int]string{1: "r"}, script: "+1 s s p", want: "!1 1 p0"},
	{group: "ResumeDuringFailingDelivery", name: "a Resume before the failing delivery does not spare the park", retry: true,
		fail: []int{1}, script: "r +1 s s p r s p", want: "!1 p1 1 p0"},
	{group: "ResumeDuringFailingDelivery", name: "a Resume during a delivery that succeeds is forgotten", retry: true,
		fail: []int{2}, during: map[int]string{1: "r"}, script: "+1 s +2 s s p", want: "1 !2 p1"},

	{group: "PendingSeesInFlightBatch", name: "Pending counts the batch in flight", batch: true,
		during: map[int]string{1: "+2 +3 p"}, script: "+1 p s p s p", want: "p1 [1] p3 p2 [2 3] p0"},

	{group: "CapCountsInFlight", name: "Cap counts the batch in flight and spills the oldest queued item", batch: true, cap: 2,
		during: map[int]string{1: "+2 +3 p"}, script: "+1 s s", want: "[1] drop2 p2 [3]"},
	{group: "CapCountsInFlight", name: "the newest item is never spilled", batch: true, cap: 1,
		during: map[int]string{1: "+2 p +3 p"}, script: "+1 s s", want: "[1] p2 drop2 p2 [3]"},

	{group: "ExitHookRunsOnce", name: "close first", during: map[int]string{1: "+2 +3 c"},
		script: "+1 s s +4 p d s", want: "1 2 3 exit stop p0 done stop"},
	{group: "ExitHookRunsOnce", name: "failure first", fail: []int{2}, during: map[int]string{1: "+2 +3"},
		script: "+1 s s c s d", want: "1 !2 exit stop stop done"},
	{group: "ExitHookRunsOnce", name: "racing", fail: []int{1}, during: map[int]string{1: "+2 +3 c"},
		script: "+1 s d s", want: "!1 exit stop done stop"},
	{group: "ExitHookRunsOnce", name: "nothing queued", script: "d c d s d s", want: "open open exit stop done stop"},
	{group: "ExitHookRunsOnce", name: "parked at close", retry: true, fail: []int{1},
		script: "+1 s p d c s p d", want: "!1 p1 open exit stop p0 done"},

	{group: "DeliverFailureWithoutCloseStillDies", name: "a failed delivery ends the queue by itself", fail: []int{1},
		script: "+1 s d", want: "!1 exit stop done"},

	{group: "RetryBatchRedeliversSentPrefix", name: "a failed batch comes back whole, then what was enqueued behind it",
		batch: true, retry: true, fail: []int{2}, during: map[int]string{1: "+1 +2 +3"},
		script: "+0 s s p +4 r s p", want: "[0] ![1 2 3] p3 [1 2 3 4] p0"},
	{group: "RetryBatchRedeliversSentPrefix", name: "a Resume during the failing batch redelivers it at the next step",
		batch: true, retry: true, fail: []int{1}, during: map[int]string{1: "+2 r"},
		script: "+1 s s p", want: "![1] [1 2] p0"},

	{group: "GaugeInstrumentation", name: "the gauges follow queued and in-flight items, the histograms each batch", batch: true, merge: true,
		during: map[int]string{1: "+2 +3 g", 2: "g"}, script: "g +1 g s s g h",
		want: "g0/0 g1/0 [1] g2/1 [5] g1/1 g0/0 h2/2/3"},
}

func TestQueueDeliverBatch(t *testing.T)                        { runQueueSteps(t) }
func TestQueueDeliverBatchDropOnError(t *testing.T)             { runQueueSteps(t) }
func TestQueueDeliverBatchRetryParks(t *testing.T)              { runQueueSteps(t) }
func TestQueueResumeDuringFailingDelivery(t *testing.T)         { runQueueSteps(t) }
func TestQueuePendingSeesInFlightBatch(t *testing.T)            { runQueueSteps(t) }
func TestQueueCapCountsInFlight(t *testing.T)                   { runQueueSteps(t) }
func TestQueueExitHookRunsOnce(t *testing.T)                    { runQueueSteps(t) }
func TestQueueDeliverFailureWithoutCloseStillDies(t *testing.T) { runQueueSteps(t) }
func TestQueueRetryBatchRedeliversSentPrefix(t *testing.T)      { runQueueSteps(t) }
func TestQueueGaugeInstrumentation(t *testing.T)                { runQueueSteps(t) }

// runQueueSteps runs the rows of the test's group, each as a subtest.
func runQueueSteps(t *testing.T) {
	group := strings.TrimPrefix(t.Name(), "TestQueue")
	ran := 0
	for _, row := range queueSteps {
		if row.group != group {
			continue
		}
		ran++
		t.Run(row.name, func(t *testing.T) {
			if got := row.run(); got != row.want {
				t.Errorf("log %q\nwant %q", got, row.want)
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no step rows in group %q", group)
	}
}

// run steps the row's queue through its script and returns the log.
func (row queueRow) run() string {
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	reg := metrics.NewRegistry()
	depth, inFlight := reg.Gauge("depth", ""), reg.Gauge("in_flight", "")
	sizes := reg.Histogram("batch_size", "", metrics.SizeBuckets())
	ratio := reg.Histogram("coalesce_ratio", "", metrics.RatioBuckets())
	var do func(actions string)
	calls := 0
	deliver := func(shown any) error {
		calls++
		call, failed := calls, slices.Contains(row.fail, calls)
		if failed {
			logf("!%v", shown)
		} else {
			logf("%v", shown)
		}
		do(row.during[call])
		if failed {
			return errors.New("send failed")
		}
		return nil
	}
	cfg := QueueConfig[int]{
		RetryOnError: row.retry,
		Cap:          row.cap,
		OnDrop:       func(v int) { logf("drop%d", v) },
		OnExit:       func() { logf("exit") },
		Depth:        depth, InFlight: inFlight,
		BatchSizes: sizes, CoalesceRatio: ratio,
	}
	if row.batch {
		cfg.DeliverBatch = func(b []int) error { return deliver(b) }
	} else {
		cfg.Deliver = func(v int) error { return deliver(v) }
	}
	if row.merge {
		cfg.Merge = func(prev, next int) (int, bool) { return prev + next, true }
	}
	q := NewQueueOn(clock.NewMock(time.Time{}), cfg)
	do = func(actions string) {
		for _, a := range strings.Fields(actions) {
			switch a {
			case "s":
				if !q.step() {
					logf("stop")
				}
			case "c":
				q.Close()
			case "r":
				q.Resume()
			case "p":
				logf("p%d", q.Pending())
			case "g":
				logf("g%d/%d", depth.Value(), inFlight.Value())
			case "h":
				logf("h%d/%g/%g", sizes.Count(), sizes.Sum(), ratio.Sum())
			case "d":
				select {
				case <-q.Done():
					logf("done")
				default:
					logf("open")
				}
			default:
				v, err := strconv.Atoi(strings.TrimPrefix(a, "+"))
				if err != nil || a[0] != '+' {
					panic("unknown queue action " + a)
				}
				q.Enqueue(v)
			}
		}
	}
	do(row.script)
	return strings.Join(log, " ")
}

// TestQueueCloseRacesDeliverFailure: on the drain goroutine, when Close
// has already marked the queue closed and then the in-flight drop-mode
// delivery fails, the two endings are one: OnExit runs exactly once, so
// the owner's teardown is not run twice, and Done closes after it.
func TestQueueCloseRacesDeliverFailure(t *testing.T) {
	for i := 0; i < 50; i++ {
		inDeliver := make(chan struct{})
		release := make(chan struct{})
		exits := make(chan struct{}, 2)
		q := NewQueue(QueueConfig[int]{
			Deliver: func(int) error {
				close(inDeliver)
				<-release
				return errors.New("send failed")
			},
			OnExit: func() { exits <- struct{}{} },
		})
		q.Enqueue(1)
		<-inDeliver // delivery in flight, queue lock free
		q.Close()
		q.mu.Lock()
		closed := q.closed
		q.mu.Unlock()
		if !closed {
			t.Fatal("Close returned without marking the queue closed")
		}
		close(release)
		select {
		case <-q.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("the drain never exited")
		}
		if n := len(exits); n != 1 {
			t.Fatalf("OnExit ran %d times, want 1", n)
		}
	}
}

// TestQueueDoneClosesAfterExit: the drain goroutine delivers what was
// enqueued before Close, runs OnExit, and only then closes Done. Run
// with -race: the log is written on the drain and read after Done with
// no lock.
func TestQueueDoneClosesAfterExit(t *testing.T) {
	var log []int
	q := NewQueue(QueueConfig[int]{
		Deliver: func(v int) error { log = append(log, v); return nil },
		OnExit:  func() { log = append(log, 0) },
	})
	for v := 1; v <= 3; v++ {
		q.Enqueue(v)
	}
	q.Close()
	select {
	case <-q.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the drain never exited")
	}
	if fmt.Sprint(log) != "[1 2 3 0]" {
		t.Fatalf("deliveries then exit = %v, want [1 2 3 0]", log)
	}
}
