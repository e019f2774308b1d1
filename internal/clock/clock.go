// Package clock runs the fleet's machines: steps that take the time and
// return when next due (zero: only when wake is sent or closed), or end.
package clock

import (
	"math/rand/v2"
	"slices"
	"time"
)

// Clock reads the time, runs machines until they end, and seeds them.
type Clock interface {
	Now() time.Time
	Start(step func(now time.Time) (next time.Time, ok bool), wake <-chan struct{})
	Wait(done <-chan struct{})
	Seed() uint64
}

type realClock struct{}

// Real is the wall clock: each machine gets a goroutine of its own.
func Real() Clock                           { return realClock{} }
func (realClock) Now() time.Time            { return time.Now() }
func (realClock) Wait(done <-chan struct{}) { <-done }
func (realClock) Seed() uint64              { return rand.Uint64() }

func (realClock) Start(step func(time.Time) (time.Time, bool), wake <-chan struct{}) {
	go func() {
		for next, ok := step(time.Now()); ok; next, ok = step(time.Now()) {
			if next.IsZero() {
				<-wake
				continue
			}
			timer := time.NewTimer(time.Until(next))
			select {
			case <-wake:
			case <-timer.C:
			}
			timer.Stop()
		}
	}()
}

// Mock is virtual time for one goroutine: machines run only inside Run,
// Add and Wait, in start order, and time moves only when none has work.
type Mock struct {
	now      time.Time
	seeds    uint64
	machines []*machine // a stepping machine is out of the list
}

type machine struct {
	step func(time.Time) (time.Time, bool)
	wake <-chan struct{}
	due  time.Time
}

// NewMock returns a mock clock reading start.
func NewMock(start time.Time) *Mock { return &Mock{now: start} }
func (m *Mock) Now() time.Time      { return m.now }
func (m *Mock) Seed() uint64        { m.seeds++; return m.seeds } // the same seeds every run
func (m *Mock) Start(step func(time.Time) (time.Time, bool), wake <-chan struct{}) {
	m.machines = append(m.machines, &machine{step: step, wake: wake, due: m.now})
}

// Run steps the machines with work now, in start order, until none has.
func (m *Mock) Run() bool {
	for n := 0; n < 1<<16; n++ {
		i := slices.IndexFunc(m.machines, func(mc *machine) bool {
			return ready(mc.wake) || !mc.due.IsZero() && !mc.due.After(m.now)
		})
		if i < 0 {
			return n > 0
		}
		mc := m.machines[i]
		m.machines = slices.Delete(m.machines, i, i+1)
		if next, ok := mc.step(m.now); ok {
			mc.due = next
			m.machines = slices.Insert(m.machines, min(i, len(m.machines)), mc)
		}
	}
	panic("clock: the machines never settle at " + m.now.String())
}

// advance moves the time to the next deadline, or limit (zero: none).
func (m *Mock) advance(limit time.Time) (moved bool) {
	for _, mc := range m.machines {
		if mc.due.After(m.now) && (limit.IsZero() || mc.due.Before(limit)) {
			limit = mc.due
		}
	}
	if moved = limit.After(m.now); moved {
		m.now = limit
	}
	return moved
}

// Add moves the time on by d, stopping at each deadline on the way.
func (m *Mock) Add(d time.Duration) {
	for end := m.now.Add(d); m.Run() || m.advance(end); {
	}
}

// Wait runs the machines, moving the time on, until done is closed.
func (m *Mock) Wait(done <-chan struct{}) {
	for !ready(done) {
		if !m.Run() && !m.advance(time.Time{}) {
			panic("clock: Wait on a mock with no machine left to run")
		}
	}
}

func ready(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
