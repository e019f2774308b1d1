package workload

import "testing"

// TestRunReportStorm floods one hub (with a short ramp) and a 2-hub
// cluster (one burst): every signature must still arm on every hub.
// What a hub's admission pool does under it is the daemon tests'
// business (cmd/immunityd), where the pool is built.
func TestRunReportStorm(t *testing.T) { runRows(t, "storm/hubs=1", "storm/hubs=2") }
