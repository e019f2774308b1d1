package workload

import "testing"

// TestRunChaosStorm is the federation-equivalence proof under failure:
// the victim hub is killed mid-confirmation (its pending sets one short
// of threshold, replicated to deputies), the remaining confirmations
// arm its slice on the deputies, and the restarted victim resyncs —
// every hub converges to the 1-hub twin's armed set with no double-arm.
func TestRunChaosStorm(t *testing.T) { runRows(t, "chaos") }

// TestRunChaosStormRepeatedKills: extra kill/restart cycles after the
// set armed prove the restart resync path converges from an
// already-armed state too.
func TestRunChaosStormRepeatedKills(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated kill cycles in -short mode")
	}
	runRows(t, "chaos repeated kills")
}
