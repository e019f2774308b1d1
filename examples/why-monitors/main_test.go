package main

import "testing"

// TestWhyMonitors: the inversion on VM monitors is detected exactly once;
// the same inversion on native locks really forms (a timed acquire gives
// up) and Dimmunix sees nothing.
func TestWhyMonitors(t *testing.T) {
	detected, err := monitorRun()
	if err != nil {
		t.Fatal(err)
	}
	if detected != 1 {
		t.Fatalf("monitor run detected %d deadlocks, want 1", detected)
	}

	out, err := nativeRun()
	if err != nil {
		t.Fatal(err)
	}
	if out.Victim == "" || out.Detected != 0 {
		t.Fatalf("native run: victim=%q detected=%d, want a timed-out thread and no detection", out.Victim, out.Detected)
	}
}
