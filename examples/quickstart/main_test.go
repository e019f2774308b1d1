package main

import (
	"path/filepath"
	"testing"
)

// TestQuickstart: run 1 freezes on a detected deadlock and leaves one
// antibody in the history file; run 2, a fresh runtime over that file,
// completes because avoidance suspended a thread at least once.
func TestQuickstart(t *testing.T) {
	histPath := filepath.Join(t.TempDir(), "quickstart.hist")

	first, err := runOnce(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Deadlocked || first.Stats.DeadlocksDetected != 1 || len(first.Antibodies) != 1 {
		t.Fatalf("run 1: deadlocked=%v detected=%d antibodies=%d, want a deadlock leaving one antibody",
			first.Deadlocked, first.Stats.DeadlocksDetected, len(first.Antibodies))
	}

	second, err := runOnce(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if second.Deadlocked || second.Stats.DeadlocksDetected != 0 || second.Stats.Yields < 1 {
		t.Fatalf("run 2: deadlocked=%v detected=%d yields=%d, want completion through at least one yield",
			second.Deadlocked, second.Stats.DeadlocksDetected, second.Stats.Yields)
	}
}
