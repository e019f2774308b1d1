// Custom wrapper: the §3.2 MyLock pitfall of depth-1 outer call stacks.
//
//	public class MyLock {
//	  private ReentrantLock l;
//	  public void lock() { l.lock(); }
//	  public void unlock() { l.unlock(); }
//	}
//
// If every lock in the program is taken through one wrapper method, every
// acquisition shares the same depth-1 position. After the first deadlock,
// that single position lands in the history and avoidance starts yielding
// on *unrelated* wrapper users: false positives that serialize the whole
// program. This is exactly why the paper argues depth-1 stacks are safe
// only for synchronized blocks (which cannot live inside wrappers) and
// why Android Dimmunix handles only synchronized blocks/methods.
//
// The demo runs two independent wrapper users for a fixed number of
// operations after a deadlock signature is recorded, at outer depth 1
// (false-positive yields serialize them) and at outer depth 2 (the
// wrapper's *callers* disambiguate the positions, so they never yield).
//
//	go run ./examples/custom-wrapper
package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	dimmunix "github.com/dimmunix/dimmunix"
)

// wrapperFrame is MyLock.lock's program location — the one frame every
// acquisition shares when going through the wrapper.
var wrapperFrame = dimmunix.Frame{Class: "demo.MyLock", Method: "lock", Line: 7}

// opsPerWorker is how many critical sections each wrapper user runs.
const opsPerWorker = 20000

func main() {
	for _, depth := range []int{1, 2} {
		out, err := run(depth)
		if err != nil {
			fmt.Fprintln(os.Stderr, "custom-wrapper:", err)
			os.Exit(1)
		}
		fmt.Printf("outer depth %d: %d ops in %v, %5d avoidance yields\n",
			depth, 2*opsPerWorker, out.Elapsed.Round(time.Millisecond), out.Yields)
	}
	fmt.Println("\ndepth 1 treats every MyLock.lock() call as the same position — the")
	fmt.Println("recorded deadlock's antibody then serializes unrelated wrapper users.")
	fmt.Println("depth 2 sees the callers, so only the genuinely matching flows yield.")
}

// outcome is what one depth's run observed: the wall time both workers
// took, and the avoidance yields (suppressed ones included), every one
// of them a false positive.
type outcome struct {
	Elapsed time.Duration
	Yields  uint64
}

// run executes the wrapper workload at the given outer depth.
func run(depth int) (outcome, error) {
	rt := dimmunix.New(dimmunix.WithCoreOptions(dimmunix.WithOuterDepth(depth)))
	defer rt.Shutdown()
	proc, err := rt.Fork("wrapper-app")
	if err != nil {
		return outcome{}, err
	}

	// Seed the history as if a deadlock had already happened between two
	// threads that both acquired through the wrapper (from two different
	// call sites — callerA and callerB).
	if err := seedSignature(proc, depth); err != nil {
		return outcome{}, err
	}

	// Two independent workers, each with its own lock, both acquiring
	// through the wrapper from their own call sites. They can never
	// deadlock with each other — any yield is a false positive.
	lockA := proc.NewObject("resourceA")
	lockB := proc.NewObject("resourceB")
	worker := func(name string, caller string, line int, lock *dimmunix.Object) error {
		_, err := proc.Start(name, func(t *dimmunix.Thread) {
			for i := 0; i < opsPerWorker && !proc.Killed(); i++ {
				t.Call(caller, "work", line, func() {
					myLockLock(t, lock, func() {
						// A realistic critical section: while it runs, the
						// worker occupies the wrapper position, which is
						// what triggers false-positive yields at depth 1.
						// Gosched lets the other worker run inside it on
						// any number of CPUs.
						busy(400)
						runtime.Gosched()
					})
				})
			}
		})
		return err
	}
	start := time.Now()
	if err := worker("workerA", "demo.CacheRefresher", 21, lockA); err != nil {
		return outcome{}, err
	}
	if err := worker("workerB", "demo.LogFlusher", 63, lockB); err != nil {
		return outcome{}, err
	}
	if !proc.Join(10 * time.Second) {
		return outcome{}, errors.New("the workers hung")
	}
	st := proc.Dimmunix().Stats()
	return outcome{Elapsed: time.Since(start), Yields: st.Yields + st.SuppressedYields}, nil
}

// busySink defeats dead-code elimination.
var busySink atomic.Uint64

// busy simulates computation.
func busy(iters int) {
	var acc uint64
	for i := 0; i < iters; i++ {
		acc = acc*1664525 + 1013904223
	}
	busySink.Add(acc)
}

// myLockLock simulates MyLock.lock(): the acquisition happens inside the
// wrapper's frame, so a depth-1 capture sees only demo.MyLock.lock:7.
func myLockLock(t *dimmunix.Thread, lock *dimmunix.Object, body func()) {
	t.Call(wrapperFrame.Class, wrapperFrame.Method, wrapperFrame.Line, func() {
		lock.Synchronized(t, body)
	})
}

// seedSignature installs the antibody a previous wrapper deadlock would
// have left: at depth 1 both outers collapse to the wrapper frame; at
// depth 2 they keep the distinct caller frames.
func seedSignature(proc *dimmunix.Process, depth int) error {
	callerA := dimmunix.Frame{Class: "demo.TransferJob", Method: "run", Line: 88}
	callerB := dimmunix.Frame{Class: "demo.ReportJob", Method: "run", Line: 99}
	outerA := dimmunix.CallStack{wrapperFrame, callerA}
	outerB := dimmunix.CallStack{wrapperFrame, callerB}
	if depth == 1 {
		outerA = outerA[:1]
		outerB = outerB[:1]
	}
	sig := &dimmunix.Signature{
		Kind: dimmunix.DeadlockSig,
		Pairs: []dimmunix.SigPair{
			{Outer: outerA, Inner: outerA},
			{Outer: outerB, Inner: outerB},
		},
	}
	_, _, err := proc.Dimmunix().AddSignature(sig)
	return err
}
