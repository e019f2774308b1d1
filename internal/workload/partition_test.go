package workload

import "testing"

// TestRunPartitionStormSymmetric is the quorum-lease acceptance test: a
// symmetric split cuts the minority hub off mid-storm, its lease dies,
// every threshold crossing on it parks (zero arms on the minority while
// the majority promotes its keys), and after the heal every hub
// converges to the twin with parked decisions drained.
func TestRunPartitionStormSymmetric(t *testing.T) { runRows(t, "partition symmetric") }

// TestRunPartitionStormAsymmetric: only the minority's outbound word is
// cut — it still hears its peers, but its lease renewals, acks, and
// broadcasts vanish. The same contract must hold.
func TestRunPartitionStormAsymmetric(t *testing.T) { runRows(t, "partition asymmetric") }

// TestRunPartitionStormFlap: a link blinking faster than the suspicion
// window must not condemn anyone, and the storm arms as if the link
// were clean.
func TestRunPartitionStormFlap(t *testing.T) { runRows(t, "partition flap") }
