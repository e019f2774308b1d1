package vm

import "sync/atomic"

// Gate is a rendezvous that forces a thread interleaving: each party
// calls Arrive inside the race window, typically holding its first lock.
// The package comment ("Gates") has the rule and why a yield opens it.
type Gate struct {
	proc    *Process
	base    uint64 // the core's yield count at NewGate
	missing atomic.Int32
	opened  chan struct{}
}

// NewGate creates a gate for the given number of parties.
func (p *Process) NewGate(parties int) *Gate {
	g := &Gate{proc: p, opened: make(chan struct{})}
	g.missing.Store(int32(parties))
	if p.dim != nil {
		g.base, _ = p.dim.Yielded()
	}
	return g
}

// Arrive registers one party and blocks until every party has arrived
// (true), or until the process's core has yielded a thread since NewGate
// or the process is dying (false). The yield state is read before the
// arrival is registered, so a yield after a party counts as arrived
// always reaches it.
func (g *Gate) Arrive() bool {
	var yielded <-chan struct{} // nil on a vanilla process: never ready
	if g.proc.dim != nil {
		n, next := g.proc.dim.Yielded()
		if n != g.base {
			return false
		}
		yielded = next
	}
	if g.missing.Add(-1) == 0 {
		close(g.opened)
	}
	select {
	case <-g.opened:
		return true
	case <-yielded:
		return false
	case <-g.proc.Dying():
		return false
	}
}
