package main

import (
	"testing"

	dimmunix "github.com/dimmunix/dimmunix"
)

// TestStarvation: over the seeded deadlock antibody, run 1's avoidance
// would starve; Dimmunix detects it once and records one starvation
// antibody, and both threads finish. Run 2 suppresses the yield instead.
func TestStarvation(t *testing.T) {
	history := dimmunix.NewMemHistory()
	if err := seed(history); err != nil {
		t.Fatal(err)
	}

	first, err := runOnce(history)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Starvations != 1 || len(first.Starvation) != 1 {
		t.Fatalf("run 1: starvations=%d antibodies=%d, want one starvation recorded",
			first.Stats.Starvations, len(first.Starvation))
	}

	second, err := runOnce(history)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Starvations != 0 || second.Stats.SuppressedYields < 1 || second.Stats.Yields != 0 {
		t.Fatalf("run 2: starvations=%d suppressed=%d yields=%d, want the yield suppressed outright",
			second.Stats.Starvations, second.Stats.SuppressedYields, second.Stats.Yields)
	}
}
