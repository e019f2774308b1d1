package vm

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

// The CAS-acquired monitor under contention: mutual exclusion, no lost
// wake-up, and teardown of a process whose threads are parked on it. The
// package comment's "Ownership" section has the argument these check.

// bothModes runs f against a Dimmunix process and a vanilla one.
func bothModes(t *testing.T, f func(t *testing.T, p *Process)) {
	t.Run("dimmunix", func(t *testing.T) { f(t, dimProcess(t)) })
	t.Run("vanilla", func(t *testing.T) { f(t, vanillaProcess(t)) })
}

// TestMonitorContentionStress: N threads × M enters on one monitor, with
// recursive enters and Wait/Notify re-acquisitions mixed in. A plain
// counter guarded only by the monitor proves mutual exclusion (exactly,
// under -race), every thread finishes, and no acquirer is left counted as
// blocked.
func TestMonitorContentionStress(t *testing.T) {
	bothModes(t, func(t *testing.T, p *Process) {
		const threads, enters = 6, 300
		o := p.NewObject("hot")
		var inside atomic.Int32
		counter := 0 // guarded by o alone
		enterCS := func() {
			if n := inside.Add(1); n != 1 {
				t.Errorf("%d threads inside the monitor", n)
			}
			counter++
		}
		ws := make([]*Thread, threads)
		for i := range ws {
			ws[i] = startThread(t, p, fmt.Sprintf("w%d", i), func(th *Thread) {
				for k := 0; k < enters; k++ {
					o.Synchronized(th, func() {
						enterCS()
						switch k % 8 {
						case 2: // recursion
							o.Synchronized(th, func() { counter++ })
						case 5: // a recursive Wait: releases both levels, re-acquires both
							o.Synchronized(th, func() {
								inside.Add(-1)
								if _, err := o.Wait(th, 50*time.Microsecond); err != nil {
									t.Error(err)
								}
								enterCS()
							})
						case 7:
							if err := o.Notify(th); err != nil {
								t.Error(err)
							}
						}
						inside.Add(-1)
					})
				}
			})
		}
		for _, th := range ws {
			waitDone(t, th)
		}
		// Per thread: one count per block, plus one for the recursive block
		// at each k ≡ 2 and the re-acquisition at each k ≡ 5 (mod 8).
		want := 0
		for k := 0; k < enters; k++ {
			want++
			if k%8 == 2 || k%8 == 5 {
				want++
			}
		}
		want *= threads
		if counter != want {
			t.Errorf("counter = %d, want %d", counter, want)
		}
		m := o.Monitor()
		if m == nil {
			t.Fatal("a contended, waited-on object must be fat")
		}
		if b := m.Blocked(); b != 0 {
			t.Errorf("Blocked() = %d after every thread finished, want 0", b)
		}
		if own := m.Owner(); own != nil {
			t.Errorf("Owner() = %s after every thread finished, want nil", own.Name())
		}
	})
}

// TestMonitorHandoff bounces one monitor between two threads: each takes
// it while the other still holds it and is about to release, with the
// holder's release swept across the taker's arrival. A release that lost
// the taker's wake-up leaves the taker parked and the holder waiting for
// a round that never comes, so the test hangs to its bound.
func TestMonitorHandoff(t *testing.T) {
	const rounds = 20000
	p := dimProcess(t)
	o := p.NewObject("baton")
	var turn atomic.Int64 // round r is thread r%2's to take
	held := 0             // guarded by o alone
	bounce := func(first int64) func(*Thread) {
		return func(th *Thread) {
			for r := first; r < rounds; r += 2 {
				for turn.Load() != r {
					if p.Killed() {
						return
					}
					runtime.Gosched()
				}
				o.Synchronized(th, func() {
					held++
					turn.Store(r + 1) // the other thread starts entering now
					for i := r % 97; i > 0; i-- {
						turn.Load()
					}
				})
			}
		}
	}
	a := startThread(t, p, "a", bounce(0))
	b := startThread(t, p, "b", bounce(1))
	waitDone(t, a)
	waitDone(t, b)
	if held != rounds {
		t.Errorf("held %d times, want %d", held, rounds)
	}
	if m := o.Monitor(); m.Blocked() != 0 || m.Owner() != nil {
		t.Errorf("after the last hand-off: Blocked() = %d, Owner() = %v", m.Blocked(), m.Owner())
	}
}

// TestMonitorKillMidContention tears a process down while its threads
// contend for one monitor and wait on it: Kill returns, every thread
// unwinds with the teardown error, and the monitor ends free with no
// acquirer counted.
func TestMonitorKillMidContention(t *testing.T) {
	bothModes(t, func(t *testing.T, p *Process) {
		const threads = 6
		o := p.NewObject("contended")
		var enters atomic.Int64
		ws := make([]*Thread, threads)
		for i := range ws {
			ws[i] = startThread(t, p, fmt.Sprintf("w%d", i), func(th *Thread) {
				for k := 0; ; k++ {
					o.Synchronized(th, func() {
						enters.Add(1)
						if k%4 == 3 {
							_, _ = o.Wait(th, 0) // woken by a notify or the kill
						} else {
							_ = o.Notify(th)
						}
					})
				}
			})
		}
		pollUntil(t, "contention", func() bool {
			m := o.Monitor()
			return enters.Load() > 1000 && m != nil && m.Blocked() > 0
		})
		killed := make(chan struct{})
		go func() {
			p.Kill()
			close(killed)
		}()
		select {
		case <-killed:
		case <-time.After(20 * time.Second):
			t.Fatal("Kill did not return")
		}
		for _, th := range ws {
			waitDone(t, th)
		}
		for _, th := range ws {
			if err := th.Err(); !errors.Is(err, ErrProcessKilled) && !errors.Is(err, core.ErrCoreClosed) {
				t.Errorf("%s ended with %v, want the teardown error", th.Name(), err)
			}
		}
		m := o.Monitor()
		if b := m.Blocked(); b != 0 {
			t.Errorf("Blocked() = %d after Kill, want 0", b)
		}
		if own := m.Owner(); own != nil {
			t.Errorf("Owner() = %s after Kill, want nil", own.Name())
		}
	})
}
