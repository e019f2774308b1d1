package immunity

import (
	"errors"
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

// TestQueueDeliverBatchDropOnError: a batch error in drop mode kills
// the queue, discards pending items, and fires OnDead exactly once —
// the same contract the per-item path has.
func TestQueueDeliverBatchDropOnError(t *testing.T) {
	dead := make(chan struct{})
	q := NewQueue(QueueConfig[int]{
		DeliverBatch: func([]int) error { return errors.New("session died") },
		OnDead:       func() { close(dead) },
	})
	q.Enqueue(1)
	<-dead
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

// TestQueueCloseRacesDeliverFailure: when Close has already initiated
// teardown, a concurrent drop-mode delivery failure must NOT fire
// OnDead — the owner is tearing the session down and must not be told
// to do it again. Run with -race: the original code fired OnDead from
// the drain while Close's caller was mid-teardown.
func TestQueueCloseRacesDeliverFailure(t *testing.T) {
	for i := 0; i < 50; i++ {
		inDeliver := make(chan struct{})
		release := make(chan struct{})
		dead := make(chan struct{}, 1)
		q := NewQueue(QueueConfig[int]{
			Deliver: func(int) error {
				close(inDeliver)
				<-release
				return errors.New("send failed")
			},
			OnDead: func() { dead <- struct{}{} },
		})
		q.Enqueue(1)
		<-inDeliver // delivery in flight, queue lock free
		closed := make(chan struct{})
		go func() {
			q.Close()
			close(closed)
		}()
		// Wait until Close has marked the queue closed, then let the
		// in-flight delivery fail.
		waitFor(t, "Close set closed", func() bool {
			q.mu.Lock()
			defer q.mu.Unlock()
			return q.closed
		})
		close(release)
		<-closed
		select {
		case <-dead:
			t.Fatal("OnDead fired even though Close initiated teardown")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestQueueDeliverFailureWithoutCloseStillDies: the suppression above
// must not eat the legitimate case — a delivery failure with no Close
// in flight still fires OnDead exactly once.
func TestQueueDeliverFailureWithoutCloseStillDies(t *testing.T) {
	dead := make(chan struct{})
	q := NewQueue(QueueConfig[int]{
		Deliver: func(int) error { return errors.New("send failed") },
		OnDead:  func() { close(dead) },
	})
	q.Enqueue(1)
	select {
	case <-dead:
	case <-time.After(2 * time.Second):
		t.Fatal("OnDead did not fire for a genuine delivery failure")
	}
	q.Close()
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
	waitFor(t, "failed batch parked whole", func() bool { return q.Pending() == 3 })
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
