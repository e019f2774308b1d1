package main

import (
	"testing"

	dimmunix "github.com/dimmunix/dimmunix"
)

// TestWaitInversion: run 1 deadlocks on the wait's re-acquisition of x
// and records one antibody; run 2 over the same history completes
// because avoidance suspended the taker at least once.
func TestWaitInversion(t *testing.T) {
	history := dimmunix.NewMemHistory()

	first, err := runOnce(history)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Deadlocked || first.Stats.DeadlocksDetected != 1 || len(first.Antibodies) != 1 {
		t.Fatalf("run 1: deadlocked=%v detected=%d antibodies=%d, want a deadlock leaving one antibody",
			first.Deadlocked, first.Stats.DeadlocksDetected, len(first.Antibodies))
	}

	second, err := runOnce(history)
	if err != nil {
		t.Fatal(err)
	}
	if second.Deadlocked || second.Stats.DeadlocksDetected != 0 || second.Stats.Yields < 1 {
		t.Fatalf("run 2: deadlocked=%v detected=%d yields=%d, want completion through at least one yield",
			second.Deadlocked, second.Stats.DeadlocksDetected, second.Stats.Yields)
	}
}
