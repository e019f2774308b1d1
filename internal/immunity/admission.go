package immunity

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
)

// admissionPermits is the report-ingest pool's fixed size.
const admissionPermits = 8

// admission is the bounded permit pool WithAdmission puts in front of
// report ingest: a buffered channel used as a semaphore. A report takes
// a permit before it is handled and returns it after; when all permits
// are out the caller waits up to maxWait and is shed if the wait
// expires (maxWait <= 0 sheds at once). Blocked senders on a channel
// queue FIFO and a receive from a full buffer hands the freed slot to
// the oldest of them, so waiters are admitted in arrival order and a
// late caller never overtakes a queued one. Every verdict is counted on
// the hub's registry:
//
//	immunity_hub_admission_admitted_total   permits granted without waiting
//	immunity_hub_admission_delayed_total    permits granted after a bounded wait
//	immunity_hub_admission_shed_total       acquisitions abandoned at max wait
//	immunity_hub_admission_in_use           permits currently held
//	immunity_hub_admission_capacity         the pool size (8)
//
// A nil *admission admits everything at once and counts nothing.
type admission struct {
	permits chan struct{}
	maxWait time.Duration
	// waiting counts callers queued for a permit, so a test can hand a
	// permit over exactly when a waiter is queued.
	waiting atomic.Int64

	admitted, delayed, shed *metrics.Counter
	inUse                   *metrics.Gauge
}

func newAdmission(maxWait time.Duration) *admission {
	return &admission{permits: make(chan struct{}, admissionPermits), maxWait: maxWait}
}

// meter registers the pool's instruments on the hub's registry.
func (p *admission) meter(reg *metrics.Registry) {
	const name = "immunity_hub_admission"
	p.admitted = reg.Counter(name+"_admitted_total", "Permits granted without waiting.")
	p.delayed = reg.Counter(name+"_delayed_total", "Permits granted after a bounded wait.")
	p.shed = reg.Counter(name+"_shed_total", "Acquisitions abandoned at the max wait.")
	p.inUse = reg.Gauge(name+"_in_use", "Permits currently held.")
	reg.Gauge(name+"_capacity", "Size of the permit pool.").Set(admissionPermits)
}

// acquire takes a permit, waiting up to the pool's max wait, and
// reports whether it got one; the caller then owes one release.
//
// A successful acquire yields the processor once before returning, with
// the permit held. A session that re-acquires in a tight loop — one hot
// device flooding reports — would otherwise keep the permits for a
// whole preemption slice on a saturated box and starve every other
// session: the yield lets concurrent callers reach the pool and queue
// behind the holder.
func (p *admission) acquire() bool {
	if p == nil {
		return true
	}
	select {
	case p.permits <- struct{}{}:
		p.admitted.Inc()
	default:
		if !p.wait() {
			p.shed.Inc()
			return false
		}
		p.delayed.Inc()
	}
	p.inUse.Add(1)
	runtime.Gosched()
	return true
}

// wait queues for a permit until the max wait runs out.
func (p *admission) wait() bool {
	if p.maxWait <= 0 {
		return false
	}
	p.waiting.Add(1)
	defer p.waiting.Add(-1)
	t := time.NewTimer(p.maxWait)
	defer t.Stop()
	select {
	case p.permits <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

func (p *admission) release() {
	if p == nil {
		return
	}
	p.inUse.Add(-1)
	<-p.permits
}

// counts returns the admitted, delayed and shed totals.
func (p *admission) counts() (admitted, delayed, shed uint64) {
	if p == nil {
		return 0, 0, 0
	}
	return p.admitted.Value(), p.delayed.Value(), p.shed.Value()
}
