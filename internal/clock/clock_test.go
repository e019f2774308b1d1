package clock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestMockRunsDueMachinesInOrder: two timers and a woken machine on a
// mock. Add stops at every deadline on the way, in deadline order; a
// wake runs its machine at the current time; Wait moves the time only
// when nothing has work; an ended machine is never stepped again.
func TestMockRunsDueMachinesInOrder(t *testing.T) {
	t0 := time.Unix(0, 0)
	m := NewMock(t0)
	var log []string
	timer := func(name string, every time.Duration, times int) {
		n := 0
		m.Start(func(now time.Time) (time.Time, bool) {
			log = append(log, fmt.Sprintf("%s@%v", name, now.Sub(t0)))
			n++
			return now.Add(every), n <= times
		}, nil)
	}
	timer("a", 30*time.Millisecond, 2)
	timer("b", 20*time.Millisecond, 10)
	wake := make(chan struct{}, 1)
	done := make(chan struct{})
	m.Start(func(now time.Time) (time.Time, bool) {
		select {
		case <-done:
			log = append(log, fmt.Sprintf("w@%v", now.Sub(t0)))
			return time.Time{}, false
		default:
			return time.Time{}, true
		}
	}, wake)
	m.Add(50 * time.Millisecond)
	close(done)
	wake <- struct{}{}
	m.Run()
	m.Wait(done)
	m.Add(40 * time.Millisecond)
	want := "a@0s b@0s b@20ms a@30ms b@40ms w@50ms a@60ms b@60ms b@80ms"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("steps %q, want %q", got, want)
	}
	if now := m.Now(); !now.Equal(t0.Add(90 * time.Millisecond)) {
		t.Fatalf("time %v, want 90ms", now.Sub(t0))
	}
}
