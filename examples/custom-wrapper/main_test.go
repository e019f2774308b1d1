package main

import "testing"

// TestCustomWrapper: after a wrapper deadlock's antibody is recorded, two
// independent wrapper users yield to each other at outer depth 1 (false
// positives) and never at depth 2.
func TestCustomWrapper(t *testing.T) {
	for _, depth := range []int{1, 2} {
		out, err := run(depth)
		if err != nil {
			t.Fatal(err)
		}
		if depth == 1 && out.Yields == 0 {
			t.Error("depth 1: no false-positive yields; the shared wrapper position should serialize the workers")
		}
		if depth == 2 && out.Yields != 0 {
			t.Errorf("depth 2: %d yields, want 0: the callers tell the workers apart", out.Yields)
		}
	}
}
