package workload

import "testing"

// TestRunReportStorm floods one hub (with a short ramp) and a 2-hub
// cluster (one burst): every signature must still arm on every hub.
// These hubs admit every report at once; the admission pool's row is
// cmd/immunityd's TestImmunitydAdmissionFlood, against the daemon that
// turns the pool on.
func TestRunReportStorm(t *testing.T) { runRows(t, "storm/hubs=1", "storm/hubs=2") }
