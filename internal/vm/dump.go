package vm

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dimmunix/dimmunix/internal/core"
)

// Thread dumps — the VM equivalent of the traces Android writes to
// /data/anr/traces.txt when the watchdog or ANR machinery fires. A dump
// snapshots every thread's name, state and, for a thread that is not
// running, simulated call stack; the platform attaches one to each freeze
// report so a recorded deadlock is diagnosable after the fact.

// ThreadDump is one thread's snapshot.
type ThreadDump struct {
	// ID is the thread id within its process.
	ID uint32
	// Name is the thread name.
	Name string
	// State is the thread state at snapshot time.
	State ThreadState
	// Stack is the thread's simulated call stack, innermost frame first,
	// taken while the thread was parked or terminated; nil for a thread
	// that was running, whose frames belong to its own goroutine.
	Stack core.CallStack
}

// String renders one thread like a traces.txt entry.
func (d ThreadDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\"%s\" tid=%d %s\n", d.Name, d.ID, d.State)
	for _, f := range d.Stack {
		fmt.Fprintf(&b, "    at %s\n", f)
	}
	return b.String()
}

// DumpThreads snapshots all threads of the process, sorted by id. The
// snapshot is taken thread by thread, each state with the stack it
// describes. Every parked thread — blocked entering a monitor or waiting
// — keeps its stack, so a frozen process, the case that matters for
// freeze diagnosis, is dumped whole; a running thread is dumped with its
// state and no frames.
func (p *Process) DumpThreads() []ThreadDump {
	p.mu.Lock()
	threads := make([]*Thread, 0, len(p.threads))
	for _, t := range p.threads {
		threads = append(threads, t)
	}
	p.mu.Unlock()

	dumps := make([]ThreadDump, 0, len(threads))
	for _, t := range threads {
		state, stack := t.snapshot()
		dumps = append(dumps, ThreadDump{ID: t.id, Name: t.name, State: state, Stack: stack})
	}
	sort.Slice(dumps, func(i, j int) bool { return dumps[i].ID < dumps[j].ID })
	return dumps
}

// FormatDump renders a full process dump.
func FormatDump(procName string, dumps []ThreadDump) string {
	var b strings.Builder
	fmt.Fprintf(&b, "----- thread dump of process %q (%d threads) -----\n", procName, len(dumps))
	for _, d := range dumps {
		b.WriteString(d.String())
	}
	b.WriteString("----- end dump -----\n")
	return b.String()
}
