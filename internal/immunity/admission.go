package immunity

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
)

const (
	// admissionPermits is the report-ingest pool's fixed size.
	admissionPermits = 8
	// admitWait is how long an over-capacity report waits for a permit
	// before it is shed: well under the 30s wire write timeout, so a
	// delayed session's unread pushes cannot kill it first.
	admitWait = 5 * time.Second
)

// admission is the bounded permit pool every Exchange puts in front of
// report ingest: a buffered channel used as a semaphore. A report run —
// the report frames a TCP session read together, a single report over
// the loopback, or one peer forward-report — takes one permit before it
// is handled and returns it after, so a verdict below covers a run, not
// a frame; when all permits are out the caller waits up to maxWait and
// the whole run is shed if the wait expires (maxWait <= 0 sheds at
// once). Blocked senders on a channel
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
type admission struct {
	permits chan struct{}
	// maxWait is admitWait; the package tests shorten it.
	maxWait time.Duration
	// waiting counts callers queued for a permit.
	waiting atomic.Int64

	admitted, delayed, shed *metrics.Counter
	inUse                   *metrics.Gauge
}

// newAdmission builds the pool with its instruments on the hub's
// registry.
func newAdmission(reg *metrics.Registry) *admission {
	const name = "immunity_hub_admission"
	p := &admission{
		permits:  make(chan struct{}, admissionPermits),
		maxWait:  admitWait,
		admitted: reg.Counter(name+"_admitted_total", "Permits granted without waiting."),
		delayed:  reg.Counter(name+"_delayed_total", "Permits granted after a bounded wait."),
		shed:     reg.Counter(name+"_shed_total", "Acquisitions abandoned at the max wait."),
		inUse:    reg.Gauge(name+"_in_use", "Permits currently held."),
	}
	reg.Gauge(name+"_capacity", "Size of the permit pool.").Set(admissionPermits)
	return p
}

// acquire takes a permit, waiting up to the pool's max wait, and
// reports whether it got one; the caller then owes one release.
//
// While a caller is queued, a successful acquire yields the processor
// once before returning, with the permit held. A session that
// re-acquires in a tight loop — one hot device flooding reports — would
// otherwise keep the permits for a whole preemption slice on a
// saturated box and starve the queued sessions. With no one queued
// there is no one to yield to.
func (p *admission) acquire() bool {
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
	if p.waiting.Load() > 0 {
		runtime.Gosched()
	}
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
	p.inUse.Add(-1)
	<-p.permits
}
