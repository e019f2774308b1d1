package immunity

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
)

// TestQueueDeliverBatch: batch mode hands each drain's (coalesced)
// items over in one call, in order, and still fires OnDeliver per item.
func TestQueueDeliverBatch(t *testing.T) {
	var mu sync.Mutex
	var batches [][]int
	var delivered []int
	ready := make(chan struct{}, 16)
	q := NewQueue(QueueConfig[int]{
		DeliverBatch: func(b []int) error {
			mu.Lock()
			batches = append(batches, append([]int(nil), b...))
			mu.Unlock()
			return nil
		},
		OnDeliver: func(v int) {
			mu.Lock()
			delivered = append(delivered, v)
			mu.Unlock()
			ready <- struct{}{}
		},
	})
	for i := 1; i <= 5; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 5; i++ {
		<-ready
	}
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	var flat []int
	for _, b := range batches {
		flat = append(flat, b...)
	}
	for i, v := range flat {
		if v != i+1 {
			t.Fatalf("out-of-order batch delivery: %v", batches)
		}
	}
	if len(delivered) != 5 {
		t.Fatalf("OnDeliver fired %d times, want 5", len(delivered))
	}
}

// TestQueueDeliverBatchDropOnError: a batch error in drop mode ends
// the queue, discards pending items, and runs OnExit exactly once —
// the same contract the per-item path has.
func TestQueueDeliverBatchDropOnError(t *testing.T) {
	dead := make(chan struct{})
	q := NewQueue(QueueConfig[int]{
		DeliverBatch: func([]int) error { return errors.New("session died") },
		OnExit:       func() { close(dead) },
	})
	q.Enqueue(1)
	select {
	case <-dead:
	case <-time.After(5 * time.Second):
		t.Fatal("a failed batch never ended the queue")
	}
	q.Enqueue(2) // no-op after death
	if n := q.Pending(); n != 0 {
		t.Fatalf("dead queue holds %d items", n)
	}
	q.Close()
}

// TestQueueDeliverBatchRetryParks: in retry mode a failed batch is
// re-queued whole and the drain parks until Resume, after which the
// entire batch (plus anything enqueued meanwhile) is redelivered — the
// at-least-once contract the peer outboxes rely on.
func TestQueueDeliverBatchRetryParks(t *testing.T) {
	var mu sync.Mutex
	fail := true
	var got []int
	done := make(chan struct{}, 16)
	q := NewQueue(QueueConfig[int]{
		DeliverBatch: func(b []int) error {
			mu.Lock()
			defer mu.Unlock()
			if fail {
				return errors.New("link down")
			}
			got = append(got, b...)
			for range b {
				done <- struct{}{}
			}
			return nil
		},
		RetryOnError: true,
	})
	q.Enqueue(1)
	q.Enqueue(2)
	waitFor(t, "failed batch parked, items held", func() bool { return q.Pending() == 2 })
	q.Enqueue(3) // lands behind the parked batch
	mu.Lock()
	fail = false
	mu.Unlock()
	q.Resume()
	for i := 0; i < 3; i++ {
		<-done
	}
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("retry redelivered out of order: %v", got)
		}
	}
}

// TestQueueResumeDuringFailingDelivery: a Resume that lands while the
// drain is still delivering on the old session, before that delivery's
// failure parks it, is not lost — the drain retries at once instead of
// parking until a Resume that already happened (a peer outbox would
// otherwise hold its forwards until the next reconnect).
func TestQueueResumeDuringFailingDelivery(t *testing.T) {
	inDeliver := make(chan struct{})
	release := make(chan struct{})
	delivered := make(chan int, 1)
	calls := 0 // the drain goroutine's own
	q := NewQueue(QueueConfig[int]{
		Deliver: func(v int) error {
			if calls++; calls == 1 {
				close(inDeliver)
				<-release
				return errors.New("old session died")
			}
			delivered <- v
			return nil
		},
		RetryOnError: true,
	})
	defer q.Close()
	q.Enqueue(1)
	<-inDeliver
	q.Resume() // the new session is up; the old one's failure is still in flight
	close(release)
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("the drain parked after the Resume that announced its next session")
	}
}

// TestQueuePendingSeesInFlightBatch: the batch the drain has taken but
// not yet delivered still counts toward Pending — depth gauges must not
// under-report by a full drain batch while a slow consumer holds it.
func TestQueuePendingSeesInFlightBatch(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	q := NewQueue(QueueConfig[int]{
		DeliverBatch: func(b []int) error {
			started <- struct{}{}
			<-release
			return nil
		},
	})
	q.Enqueue(1)
	<-started // the drain took [1]; delivery is parked
	q.Enqueue(2)
	q.Enqueue(3)
	if n := q.Pending(); n != 3 {
		t.Fatalf("Pending = %d during slow delivery, want 3 (1 in flight + 2 queued)", n)
	}
	close(release)
	<-started // second drain: [2 3] taken
	waitFor(t, "in-flight batch settled", func() bool { return q.Pending() == 0 })
	q.Close()
}

// TestQueueExitHookRunsOnce: however a drop-mode queue ends — Close
// first, a delivery failure first, or the two racing — OnExit runs
// exactly once, on the drain, after every item delivered, and Done
// closes after it. Close first still delivers what was enqueued before
// it. Run with -race: OnExit's effects are read after Done with no lock.
func TestQueueExitHookRunsOnce(t *testing.T) {
	rows := []struct {
		name   string
		failAt int // the item whose delivery fails; 0: none does
		// end runs while item 1's delivery is held and 2, 3 are queued.
		end  func(q *Queue[int], release chan struct{})
		want []int // delivered, then 0 for the exit
	}{
		{"close first", 0, func(q *Queue[int], release chan struct{}) { q.Close(); close(release) }, []int{1, 2, 3, 0}},
		{"failure first", 2, func(q *Queue[int], release chan struct{}) { close(release) }, []int{1, 0}},
		{"racing", 1, func(q *Queue[int], release chan struct{}) { go q.Close(); close(release) }, []int{0}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for i := 0; i < 20; i++ {
				var log []int // the drain's own; read after Done
				inDeliver, release := make(chan struct{}), make(chan struct{})
				q := NewQueue(QueueConfig[int]{
					Deliver: func(v int) error {
						if v == 1 {
							close(inDeliver)
							<-release
						}
						if v == row.failAt {
							return errors.New("send failed")
						}
						log = append(log, v)
						return nil
					},
					OnExit: func() { log = append(log, 0) },
				})
				q.Enqueue(1)
				<-inDeliver
				q.Enqueue(2)
				q.Enqueue(3)
				row.end(q, release)
				select {
				case <-q.Done():
				case <-time.After(5 * time.Second):
					t.Fatal("the drain never exited")
				}
				q.Close()
				q.Enqueue(4) // no-op once ended
				if n := q.Pending(); n != 0 {
					t.Fatalf("ended queue holds %d items", n)
				}
				if fmt.Sprint(log) != fmt.Sprint(row.want) {
					t.Fatalf("deliveries then exit = %v, want %v", log, row.want)
				}
			}
		})
	}
}

// TestQueueCloseRacesDeliverFailure: when Close has already marked the
// queue closed and then the in-flight drop-mode delivery fails, the two
// endings are one: OnExit runs exactly once, so the owner's teardown is
// not run twice, and Done closes after it.
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

// TestQueueDeliverFailureWithoutCloseStillDies: a delivery failure with
// no Close at all ends a drop-mode queue by itself — OnExit runs once
// and Done closes.
func TestQueueDeliverFailureWithoutCloseStillDies(t *testing.T) {
	exits := make(chan struct{}, 2)
	q := NewQueue(QueueConfig[int]{
		Deliver: func(int) error { return errors.New("send failed") },
		OnExit:  func() { exits <- struct{}{} },
	})
	q.Enqueue(1)
	select {
	case <-q.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a genuine delivery failure never ended the queue")
	}
	if n := len(exits); n != 1 {
		t.Fatalf("OnExit ran %d times, want 1", n)
	}
}

// TestQueueRetryBatchRedeliversSentPrefix: the documented at-least-once
// contract of DeliverBatch in retry mode — a batch error re-queues the
// WHOLE coalesced batch, so after Resume the receiver sees the
// already-sent prefix again, in order, with nothing lost.
func TestQueueRetryBatchRedeliversSentPrefix(t *testing.T) {
	var mu sync.Mutex
	var calls [][]int
	gate := make(chan struct{})
	started := make(chan struct{})
	failing := make(chan struct{}) // closed by the failing call itself
	fail := false
	delivered := make(chan int, 16)
	q := NewQueue(QueueConfig[int]{
		DeliverBatch: func(b []int) error {
			mu.Lock()
			calls = append(calls, append([]int(nil), b...))
			n := len(calls)
			shouldFail := fail
			mu.Unlock()
			if n == 1 {
				started <- struct{}{}
				<-gate // hold the drain so 1,2,3 queue up as one batch
				return nil
			}
			if shouldFail {
				// The transport wrote a prefix of b before erroring out —
				// the queue must still re-queue the whole batch.
				close(failing)
				return errors.New("link down mid-write")
			}
			for _, v := range b {
				delivered <- v
			}
			return nil
		},
		RetryOnError: true,
	})
	q.Enqueue(0)
	<-started
	q.Enqueue(1)
	q.Enqueue(2)
	q.Enqueue(3)
	mu.Lock()
	fail = true
	mu.Unlock()
	close(gate) // call 1 ([0]) succeeds; call 2 gets [1 2 3] and fails
	// Wait on the failing call, not on Pending() == 3: that also holds
	// while [1 2 3] is in flight before the call has read fail, and
	// clearing fail then would let the batch succeed. Whether the drain
	// has re-queued the batch yet does not matter: a failed batch goes
	// back to the queue front, and a Resume that lands while it is still
	// in flight retries it at once.
	select {
	case <-failing:
	case <-time.After(5 * time.Second):
		t.Fatal("the second DeliverBatch call never failed")
	}
	q.Enqueue(4) // lands behind the re-queued batch
	mu.Lock()
	fail = false
	mu.Unlock()
	q.Resume()
	var got []int
	for i := 0; i < 4; i++ {
		got = append(got, <-delivered)
	}
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 3 {
		t.Fatalf("expected 3 DeliverBatch calls, got %v", calls)
	}
	failed, redelivered := calls[1], calls[2]
	if len(failed) != 3 || failed[0] != 1 || failed[1] != 2 || failed[2] != 3 {
		t.Fatalf("failed batch = %v, want [1 2 3]", failed)
	}
	// The already-sent prefix (all of [1 2 3]) comes back, in order,
	// followed by the item enqueued while parked.
	want := []int{1, 2, 3, 4}
	if len(redelivered) != len(want) {
		t.Fatalf("redelivered = %v, want %v", redelivered, want)
	}
	for i, v := range want {
		if redelivered[i] != v || got[i] != v {
			t.Fatalf("redelivery order/loss: calls=%v got=%v", calls, got)
		}
	}
}

// TestQueueGaugeInstrumentation: shared Depth/InFlight gauges track the
// live counts as deltas and settle to zero once the queue drains, and
// the batch-size/coalesce histograms observe each drain.
func TestQueueGaugeInstrumentation(t *testing.T) {
	reg := metrics.NewRegistry()
	depth := reg.Gauge("depth", "")
	inFlight := reg.Gauge("in_flight", "")
	sizes := reg.Histogram("batch_size", "", metrics.SizeBuckets())
	ratio := reg.Histogram("coalesce_ratio", "", metrics.RatioBuckets())
	started := make(chan struct{})
	release := make(chan struct{})
	q := NewQueue(QueueConfig[int]{
		DeliverBatch: func(b []int) error {
			started <- struct{}{}
			<-release
			return nil
		},
		// Sum-merge everything: 3 folds into the queued 2 at Enqueue.
		Merge: func(prev, next int) (int, bool) { return prev + next, true },
		Depth: depth, InFlight: inFlight,
		BatchSizes: sizes, CoalesceRatio: ratio,
	})
	q.Enqueue(1)
	<-started // [1] in flight
	q.Enqueue(2)
	q.Enqueue(3)
	if d, f := depth.Value(), inFlight.Value(); d != 2 || f != 1 {
		t.Fatalf("depth=%d inFlight=%d during slow delivery, want 2/1 (1 in flight + [5] queued)", d, f)
	}
	release <- struct{}{}
	<-started // [5] in flight
	if d, f := depth.Value(), inFlight.Value(); d != 1 || f != 1 {
		t.Fatalf("depth=%d inFlight=%d during coalesced delivery, want 1/1", d, f)
	}
	release <- struct{}{}
	waitFor(t, "gauges settle to zero", func() bool {
		return depth.Value() == 0 && inFlight.Value() == 0
	})
	q.Close()
	if n := sizes.Count(); n != 2 {
		t.Fatalf("batch-size observations = %d, want 2", n)
	}
	if n := ratio.Count(); n != 2 {
		t.Fatalf("coalesce-ratio observations = %d, want 2", n)
	}
	// Second drain folded 2 raw items into 1 delivery: ratio 2 lands in
	// a bucket above 1.5.
	if q := ratio.Quantile(1); q < 2 {
		t.Fatalf("max coalesce ratio %v, want >= 2", q)
	}
}
