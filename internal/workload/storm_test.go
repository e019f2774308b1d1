package workload

import "testing"

// TestRunReportStorm floods one hub (with a short ramp) and a 2-hub
// cluster (one burst): every signature must still arm on every hub.
// These hubs run the admission pool as every hub does; its flood row
// is cmd/immunityd's TestImmunitydAdmissionFlood, against the daemon.
func TestRunReportStorm(t *testing.T) { runRows(t, "storm/hubs=1", "storm/hubs=2") }
