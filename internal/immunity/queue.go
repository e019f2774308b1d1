package immunity

import (
	"sync"
	"time"

	"github.com/dimmunix/dimmunix/internal/clock"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
)

// Queue is the one ordered-coalescing delivery queue behind every
// asynchronous push path in the immunity tier: the Service's
// per-subscriber delta queues, the Exchange's per-session wire push
// queues, and the cluster's hub-to-hub forward outboxes. Its drain is a
// step its clock runs (a goroutine on the real one), so producers never
// block on a slow consumer, and it delivers strictly in enqueue order
// with optional coalescing: an item the Merge hook accepts folds into
// the queued tail at Enqueue, so a consumer that fell behind a publish
// storm holds one pending delivery and catches up in a single callback
// instead of chewing through a backlog of stale ones.
//
// A Deliver error ends the queue in one of two ways, chosen at
// construction:
//
//   - drop (default): the queue closes and pending items are discarded
//     — the session is unusable (the Exchange push queues: a send
//     failure means the wire session died).
//   - retry (RetryOnError): the failed item and everything behind it
//     stay queued and the drain parks until Resume — the cluster's
//     forward outboxes: a peer link redial replaces the session and
//     resumes the drain, so a forwarded confirmation is never silently
//     dropped by a transient partition (the receiving hub deduplicates,
//     making redelivery safe).
//
// Close returns at once; the drain still delivers what is already
// enqueued (in retry mode: unless parked on a dead session), then runs
// OnExit, and Done closes. Enqueue after Close is a no-op.
type Queue[T any] struct {
	cfg  QueueConfig[T]
	clk  clock.Clock   // the clock stepping the drain
	wake chan struct{} // capacity 1: Enqueue, Resume and Close wake the drain

	mu       sync.Mutex
	queue    []T
	raw      int // items enqueued into queue, before folding
	inFlight int // items taken by the drain, not yet delivered or re-queued
	closed   bool
	paused   bool
	exited   bool // step has run OnExit
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
	// OnExit, when set, runs exactly once, on the drain goroutine, as
	// its last act — after Close and the delivery of what was enqueued
	// before it, or after a drop-mode Deliver error — so an owner can
	// tear its session down there without waiting for the drain.
	OnExit func()
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
func NewQueue[T any](cfg QueueConfig[T]) *Queue[T] { return NewQueueOn(clock.Real(), cfg) }

// NewQueueOn starts a queue whose drain is a machine of clk: the test
// and simulator entry point for a queue built outside this package (a
// cluster's forward outbox).
func NewQueueOn[T any](clk clock.Clock, cfg QueueConfig[T]) *Queue[T] {
	q := &Queue[T]{cfg: cfg, clk: clk, wake: make(chan struct{}, 1), done: make(chan struct{})}
	clk.Start(func(time.Time) (time.Time, bool) { return time.Time{}, q.step() }, q.wake)
	return q
}

// poke wakes a machine; wakes that arrive while it runs coalesce.
func poke(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
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
	}
	q.mu.Unlock()
	poke(q.wake)
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
	} else {
		q.resumed = q.inFlight > 0
	}
	q.mu.Unlock()
	poke(q.wake)
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
// shared gauges as deltas (a nil gauge ignores them). Callers hold
// q.mu; the gauge ops are atomics, so this is safe under the queue lock.
func (q *Queue[T]) syncGaugesLocked() {
	d := len(q.queue) + q.inFlight
	q.cfg.Depth.Add(int64(d - q.repDepth))
	q.cfg.InFlight.Add(int64(q.inFlight - q.repInFlight))
	q.repDepth, q.repInFlight = d, q.inFlight
}

// step delivers the queued batch, unless there is none or the queue is
// parked, and settles that batch: the delivered prefix leaves the
// in-flight count, and after a failure the rest goes back to the queue
// front and the queue parks (retry) or the queue ends (drop). A queue
// that is closed with nothing it can deliver ends too: step runs OnExit,
// closes Done and reports false, as it does on every later call. One
// caller steps a queue at a time: its clock (a goroutine on the real
// one), or a test that never runs its mock clock.
func (q *Queue[T]) step() bool {
	q.mu.Lock()
	if q.exited {
		q.mu.Unlock()
		return false
	}
	if len(q.queue) > 0 && !q.paused {
		batch, raw := q.queue, q.raw
		q.queue, q.raw, q.inFlight = nil, 0, len(batch)
		q.syncGaugesLocked()
		q.mu.Unlock()
		q.cfg.BatchSizes.Observe(float64(len(batch)))
		q.cfg.CoalesceRatio.Observe(float64(raw) / float64(len(batch)))
		n, err := q.deliver(batch)
		q.mu.Lock()
		q.inFlight = 0
		if err != nil && q.cfg.RetryOnError {
			// Re-queue the failed item and everything behind it
			// (including anything enqueued since) intact, and park
			// unless a Resume already announced the next session.
			q.queue = append(batch[n:], q.queue...)
			q.raw += len(batch) - n
			q.paused = !q.resumed
		} else if err != nil {
			q.queue, q.closed = nil, true
		}
		q.resumed = false
	}
	if !q.closed || (len(q.queue) > 0 && !q.paused) {
		q.syncGaugesLocked()
		q.mu.Unlock()
		return true
	}
	// Closed with nothing deliverable: the queue ends. What a retry
	// queue parked on a dead session still holds cannot be delivered;
	// the peer-side state (resubscribe-from-seq, receiver dedup) makes
	// dropping it safe.
	q.queue, q.exited = nil, true
	q.syncGaugesLocked()
	q.mu.Unlock()
	if q.cfg.OnExit != nil {
		q.cfg.OnExit()
	}
	close(q.done)
	return false
}

// deliver hands one batch over and reports how many of its items were
// delivered: all or none through DeliverBatch, a prefix through
// Deliver, which stops at the first error.
func (q *Queue[T]) deliver(batch []T) (int, error) {
	if q.cfg.DeliverBatch != nil {
		if err := q.cfg.DeliverBatch(batch); err != nil {
			return 0, err
		}
		return len(batch), nil
	}
	for i, v := range batch {
		if err := q.cfg.Deliver(v); err != nil {
			return i, err
		}
	}
	return len(batch), nil
}

// Close stops the queue once what is already enqueued is delivered, and
// returns at once; Done reports the drain's exit. Idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	poke(q.wake)
}

// Done is closed when the queue has ended, after OnExit returned.
func (q *Queue[T]) Done() <-chan struct{} { return q.done }
