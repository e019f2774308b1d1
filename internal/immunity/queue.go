package immunity

import (
	"sync"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
)

// Queue is the one ordered-coalescing delivery queue behind every
// asynchronous push path in the immunity tier: the Service's
// per-subscriber delta queues, the Exchange's per-session wire push
// queues, and the cluster's hub-to-hub forward outboxes. It owns a
// dedicated drain goroutine, so producers never block on a slow
// consumer, and it delivers strictly in enqueue order with optional
// coalescing: an item the Merge hook accepts folds into the queued tail
// at Enqueue, so a consumer that fell behind a publish storm holds one
// pending delivery and catches up in a single callback instead of
// chewing through a backlog of stale ones.
//
// A Deliver error ends the queue in one of two ways, chosen at
// construction:
//
//   - drop (default): the queue closes, pending items are discarded,
//     and OnDead fires once on a fresh goroutine — the session is
//     unusable and its owner must tear it down (the Exchange push
//     queues: a send failure means the wire session died).
//   - retry (RetryOnError): the failed item and everything behind it
//     stay queued and the drain parks until Resume — the cluster's
//     forward outboxes: a peer link redial replaces the session and
//     resumes the drain, so a forwarded confirmation is never silently
//     dropped by a transient partition (the receiving hub deduplicates,
//     making redelivery safe).
//
// Close stops the queue after delivering what is already enqueued (in
// retry mode: unless parked on a dead session) and waits for the drain
// goroutine to exit. Enqueue after Close is a no-op.
type Queue[T any] struct {
	cfg QueueConfig[T]
	// deliver hands one drained batch over and reports how many of its
	// items were delivered: all or none through DeliverBatch, a prefix
	// through Deliver, which stops at the first error.
	deliver func([]T) (delivered int, err error)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []T
	raw      int // items enqueued into queue, before folding
	inFlight int // items taken by the drain, not yet delivered or re-queued
	closed   bool
	paused   bool
	// resumed records a Resume that found the drain delivering, not
	// parked: the session it announces replaced the one a failure of
	// that delivery would come from, so the failure retries at once
	// instead of parking until a Resume that already happened.
	resumed bool
	done    chan struct{}

	// Last values pushed to the shared Depth/InFlight gauges, so gauge
	// updates are deltas and several queues can share one instrument.
	repDepth    int
	repInFlight int
}

// QueueConfig configures a Queue.
type QueueConfig[T any] struct {
	// Deliver sends one (possibly merged) item, in order, on the drain
	// goroutine with no queue lock held. Required unless DeliverBatch is
	// set.
	Deliver func(T) error
	// DeliverBatch, when set, replaces Deliver: each drained (coalesced)
	// batch is handed over in one call, letting a stream transport write
	// every queued frame in a single syscall. An error applies to the
	// whole batch — drop mode kills the queue, retry mode re-queues the
	// entire batch and parks (redelivery of its already-sent prefix must
	// be safe for the receiver, as it is for every wire message).
	DeliverBatch func([]T) error
	// Merge, when set, coalesces an enqueued item into the queued tail:
	// it returns the combined item and true to merge, or false to keep
	// them as separate deliveries. It runs under the queue lock on every
	// Enqueue that finds a queued tail, so it must be cheap, and it must
	// not mutate prev or next in place — queued items may be shared with
	// other queues.
	Merge func(prev, next T) (T, bool)
	// OnDeliver, when set, observes each successful delivery (after
	// coalescing) — batching counters.
	OnDeliver func(T)
	// OnDead, when set, fires exactly once, on a fresh goroutine, when a
	// Deliver error kills a drop-mode queue — unless Close already
	// initiated teardown, in which case the error is the expected
	// consequence of the owner's shutdown and OnDead is suppressed (the
	// owner must not be told to tear down a session it is already
	// tearing down).
	OnDead func()
	// RetryOnError selects retry mode: a Deliver error re-queues the
	// failed item at the front and parks the drain until Resume.
	RetryOnError bool

	// Cap, when positive, bounds the queue: an Enqueue that would grow
	// the depth (queued + in-flight) past Cap first spills the oldest
	// queued items, handing each to OnDrop. Retry-mode outboxes use it
	// so a long partition costs bounded memory instead of an unbounded
	// backlog; receiver-side dedup plus the device tier's full-history
	// re-report on reconnect restore at-least-once delivery for what
	// was spilled. The newest item is never spilled.
	Cap int
	// OnDrop, when set, observes each item spilled by Cap, outside the
	// queue lock.
	OnDrop func(T)

	// Depth and InFlight, when set, track this queue's item counts live
	// as gauge deltas: Depth counts queued + in-flight items (what
	// Pending reports), InFlight counts only the batch the drain has
	// taken. Both instruments may be shared across queues — the gauge
	// then aggregates the fleet of sessions.
	Depth    *metrics.Gauge
	InFlight *metrics.Gauge
	// BatchSizes, when set, observes the length of every drained batch
	// after coalescing; CoalesceRatio observes raw/coalesced items per
	// drain (1 = nothing merged).
	BatchSizes    *metrics.Histogram
	CoalesceRatio *metrics.Histogram
}

// NewQueue starts a queue and its drain goroutine.
func NewQueue[T any](cfg QueueConfig[T]) *Queue[T] {
	q := &Queue[T]{cfg: cfg, done: make(chan struct{})}
	if cfg.DeliverBatch != nil {
		q.deliver = func(batch []T) (int, error) {
			if err := cfg.DeliverBatch(batch); err != nil {
				return 0, err
			}
			return len(batch), nil
		}
	} else {
		q.deliver = func(batch []T) (int, error) {
			for i, v := range batch {
				if err := cfg.Deliver(v); err != nil {
					return i, err
				}
			}
			return len(batch), nil
		}
	}
	q.cond = sync.NewCond(&q.mu)
	go q.drain()
	return q
}

// Enqueue folds an item into the queued tail when Merge accepts, and
// appends it otherwise, spilling the oldest queued items when a Cap is
// set and the depth would exceed it. Never blocks.
func (q *Queue[T]) Enqueue(v T) {
	var dropped []T
	q.mu.Lock()
	if !q.closed {
		q.raw++
		if n := len(q.queue); n > 0 && q.cfg.Merge != nil {
			if merged, ok := q.cfg.Merge(q.queue[n-1], v); ok {
				q.queue[n-1] = merged
				q.mu.Unlock()
				return
			}
		}
		q.queue = append(q.queue, v)
		if q.cfg.Cap > 0 {
			for len(q.queue)+q.inFlight > q.cfg.Cap && len(q.queue) > 1 {
				dropped = append(dropped, q.queue[0])
				q.queue = q.queue[1:]
			}
		}
		q.syncGaugesLocked()
		q.cond.Signal()
	}
	q.mu.Unlock()
	if q.cfg.OnDrop != nil {
		for _, d := range dropped {
			q.cfg.OnDrop(d)
		}
	}
}

// Resume un-parks a retry-mode drain after its session was replaced;
// the failed item is redelivered first. A drain still delivering is
// not parked yet, so a failure of that delivery retries at once.
func (q *Queue[T]) Resume() {
	q.mu.Lock()
	if q.paused {
		q.paused = false
		q.cond.Broadcast()
	} else {
		q.resumed = q.inFlight > 0
	}
	q.mu.Unlock()
}

// Pending returns how many items are queued plus how many the drain
// has taken but not yet delivered, so depth never under-reports by an
// in-flight batch; parked retry queues report their held-back items.
func (q *Queue[T]) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue) + q.inFlight
}

// syncGaugesLocked pushes the current depth/in-flight counts to the
// shared gauges as deltas. Callers hold q.mu; the gauge ops are
// atomics, so this is safe under the queue lock.
func (q *Queue[T]) syncGaugesLocked() {
	if q.cfg.Depth != nil {
		d := len(q.queue) + q.inFlight
		q.cfg.Depth.Add(int64(d - q.repDepth))
		q.repDepth = d
	}
	if q.cfg.InFlight != nil {
		q.cfg.InFlight.Add(int64(q.inFlight - q.repInFlight))
		q.repInFlight = q.inFlight
	}
}

// kill ends the queue after a drop-mode delivery error. It fires
// OnDead only when the owner had not already initiated teardown via
// Close — a delivery error racing Close is the expected consequence of
// the owner's own shutdown, and firing OnDead then would run the
// owner's teardown path a second time, concurrently.
func (q *Queue[T]) kill() {
	q.mu.Lock()
	ownerClosed := q.closed
	q.closed = true
	q.queue = nil
	q.inFlight = 0
	q.syncGaugesLocked()
	q.cond.Broadcast()
	q.mu.Unlock()
	if !ownerClosed && q.cfg.OnDead != nil {
		go q.cfg.OnDead()
	}
}

// drain delivers queued items in order until closed. One pass settles
// the previous batch and takes the next under one lock: a delivered
// prefix leaves the in-flight count, and in retry mode the failed rest
// goes back to the queue front.
func (q *Queue[T]) drain() {
	defer close(q.done)
	var batch []T // the batch the previous pass took
	var n int     // how many of it were delivered
	var err error // why the rest were not (retry mode only here)
	for {
		q.mu.Lock()
		q.inFlight -= n
		if err != nil {
			// Re-queue the failed item and everything behind it
			// (including anything enqueued since) intact, and park
			// unless a Resume already announced the next session.
			q.queue = append(batch[n:], q.queue...)
			q.raw += len(batch) - n
			q.inFlight = 0
			q.paused = !q.resumed
		}
		q.resumed = false
		q.syncGaugesLocked()
		for (len(q.queue) == 0 || q.paused) && !q.closed {
			q.cond.Wait()
		}
		if q.closed && (len(q.queue) == 0 || q.paused) {
			// Parked on a dead session at close: the leftovers cannot be
			// delivered — the peer-side state (resubscribe-from-seq,
			// receiver dedup) makes dropping them safe.
			q.queue = nil
			q.syncGaugesLocked()
			q.mu.Unlock()
			return
		}
		raw := q.raw
		batch, q.queue, q.raw = q.queue, nil, 0
		q.inFlight = len(batch)
		q.syncGaugesLocked()
		q.mu.Unlock()
		if q.cfg.BatchSizes != nil {
			q.cfg.BatchSizes.Observe(float64(len(batch)))
		}
		if q.cfg.CoalesceRatio != nil && len(batch) > 0 {
			q.cfg.CoalesceRatio.Observe(float64(raw) / float64(len(batch)))
		}
		n, err = q.deliver(batch)
		if q.cfg.OnDeliver != nil {
			for _, v := range batch[:n] {
				q.cfg.OnDeliver(v)
			}
		}
		if err != nil && !q.cfg.RetryOnError {
			q.kill()
			return
		}
	}
}

// Close stops the queue after delivering what is already enqueued, and
// waits for the drain goroutine to exit. Idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return
	}
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	<-q.done
}
