package workload

import "testing"

// TestRunFleetImmunity is the acceptance scenario: 4 phones, live
// processes armed without restart, threshold gating demonstrated, the
// propagation timeline in order, and every phone after the first spared
// the deadlock when it drives the same interleaving.
func TestRunFleetImmunity(t *testing.T) { runRows(t, "fleet immunity") }

// TestRunFleetImmunityThresholdOne: with threshold 1 a single detection
// immunizes the whole fleet: the second phone yields where the first
// deadlocked.
func TestRunFleetImmunityThresholdOne(t *testing.T) { runRows(t, "fleet immunity threshold 1") }

// TestFleetImmunityTransportEquivalence: the scenario over real TCP
// sockets must make its 1-hub loopback twin's arming decisions — same
// gating, same provenance. Only the latencies may differ.
func TestFleetImmunityTransportEquivalence(t *testing.T) {
	runRows(t, "transport/default threshold 2", "transport/threshold 1", "transport/threshold 3 of 3")
}

// TestFleetImmunityFederationEquivalence: a 3-hub federated cluster,
// phones split across hubs, over loopback and TCP, must make its 1-hub
// twin's decisions at thresholds 1, 2 and 3: the same gating, armed
// signature, confirmation count and confirming devices (a confirmation
// forwarded through a non-owner hub is counted exactly once). Only
// latencies and the owner attribution may differ.
func TestFleetImmunityFederationEquivalence(t *testing.T) {
	runRows(t, "federation/threshold1_loopback", "federation/threshold1_tcp",
		"federation/threshold2_loopback", "federation/threshold2_tcp",
		"federation/threshold3_loopback", "federation/threshold3_tcp")
}
