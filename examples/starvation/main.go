// Starvation: an avoidance-induced deadlock and its antibody.
//
// Avoidance suspends a thread whose acquisition would re-create a
// recorded deadlock pattern. If the suspended thread's witnesses are
// themselves blocked on the suspended thread, nothing can progress — an
// avoidance-induced deadlock (§2.2). Dimmunix detects the cycle through
// the yield edge, saves a *starvation* signature, and resumes the
// suspended thread; on later runs the same yield is suppressed outright.
//
//	go run ./examples/starvation
package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	dimmunix "github.com/dimmunix/dimmunix"
)

func main() {
	history := dimmunix.NewMemHistory()
	if err := seed(history); err != nil {
		fmt.Fprintln(os.Stderr, "starvation:", err)
		os.Exit(1)
	}
	for _, title := range []string{
		"== run 1: avoidance starves, Dimmunix records the starvation ==",
		"\n== run 2: the starving yield is suppressed from the start ==",
	} {
		fmt.Println(title)
		out, err := runOnce(history)
		if err != nil {
			fmt.Fprintln(os.Stderr, "starvation:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	}
}

// seed pre-loads the deadlock antibody whose avoidance will starve.
func seed(history dimmunix.HistoryStore) error {
	return history.Append(&dimmunix.Signature{
		Kind: dimmunix.DeadlockSig,
		Pairs: []dimmunix.SigPair{
			{Outer: stack("app.Producer", "fill", 10), Inner: stack("app.Producer", "fill", 10)},
			{Outer: stack("app.Consumer", "drain", 20), Inner: stack("app.Consumer", "drain", 20)},
		},
	})
}

func stack(class, method string, line int) dimmunix.CallStack {
	return dimmunix.CallStack{{Class: class, Method: method, Line: line}}
}

// outcome is what one run of the pipeline observed once both threads
// finished: the process's immunity counters and its starvation
// antibodies.
type outcome struct {
	Stats      dimmunix.CoreStats
	Starvation []dimmunix.SignatureInfo
}

func (o outcome) String() string {
	s := fmt.Sprintf("  finished  yields=%d  starvations=%d  suppressed-yields=%d\n",
		o.Stats.Yields, o.Stats.Starvations, o.Stats.SuppressedYields)
	for _, sig := range o.Starvation {
		s += fmt.Sprintf("  starvation antibody: %s\n", sig)
	}
	return s
}

// runOnce runs the pipeline on a fresh runtime over history.
func runOnce(history dimmunix.HistoryStore) (outcome, error) {
	rt := dimmunix.New(dimmunix.WithHistory(history))
	defer rt.Shutdown()
	proc, err := rt.Fork("pipeline")
	if err != nil {
		return outcome{}, err
	}

	buffer := proc.NewObject("buffer") // held by consumer, wanted by producer
	lockX := proc.NewObject("x")       // producer's position-10 hold
	lockY := proc.NewObject("y")       // consumer's position-20 request

	consumerInBuffer := make(chan struct{})
	producerHolding := make(chan struct{})

	// Consumer: holds buffer, then engages the signature at drain:20 —
	// avoidance wants to suspend it (producer occupies fill:10).
	if _, err := proc.Start("consumer", func(t *dimmunix.Thread) {
		buffer.Synchronized(t, func() {
			close(consumerInBuffer)
			<-producerHolding
			t.Call("app.Consumer", "drain", 20, func() {
				lockY.Synchronized(t, func() {})
			})
		})
	}); err != nil {
		return outcome{}, err
	}
	// Producer: occupies fill:10, then blocks on the buffer (held by the
	// consumer) — closing the would-be yield cycle.
	if _, err := proc.Start("producer", func(t *dimmunix.Thread) {
		<-consumerInBuffer
		t.Call("app.Producer", "fill", 10, func() {
			lockX.Synchronized(t, func() {
				close(producerHolding)
				buffer.Synchronized(t, func() {})
			})
		})
	}); err != nil {
		return outcome{}, err
	}

	if !proc.Join(10 * time.Second) {
		return outcome{}, errors.New("the pipeline hung")
	}
	out := outcome{Stats: proc.Dimmunix().Stats()}
	for _, sig := range proc.Dimmunix().History() {
		if sig.Kind == dimmunix.StarvationSig {
			out.Starvation = append(out.Starvation, sig)
		}
	}
	return out, nil
}
