package workload

import (
	"fmt"
	"testing"
	"time"
)

// TestRunReportStorm floods one hub (with a short ramp) and a 2-hub
// cluster (one burst) with the default storm: every signature must
// still arm on every hub. What a hub's admission pool does under it is
// the daemon tests' business (cmd/immunityd), where the pool is built.
func TestRunReportStorm(t *testing.T) {
	for _, tc := range []struct {
		hubs int
		ramp *StormRamp
	}{
		{1, &StormRamp{Warmup: 100 * time.Millisecond, Flood: 100 * time.Millisecond}},
		{2, nil},
	} {
		t.Run(fmt.Sprintf("hubs=%d", tc.hubs), func(t *testing.T) {
			cfg := DefaultStormConfig()
			cfg.Hubs, cfg.Ramp = tc.hubs, tc.ramp
			res, err := RunReportStorm(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Armed < cfg.Sigs {
				t.Fatalf("armed %d/%d cluster-wide — the storm lost signatures", res.Armed, cfg.Sigs)
			}
		})
	}
}

func TestStormConfigValidate(t *testing.T) {
	cfg := DefaultStormConfig()
	cfg.Devices = 1
	if _, err := RunReportStorm(cfg); err == nil {
		t.Fatal("1-device storm must be rejected")
	}
	cfg = DefaultStormConfig()
	cfg.ConfirmThreshold = cfg.Devices + 1
	if _, err := RunReportStorm(cfg); err == nil {
		t.Fatal("threshold above device count must be rejected")
	}
	cfg = DefaultStormConfig()
	cfg.Timeout = -time.Second
	if _, err := RunReportStorm(cfg); err == nil {
		t.Fatal("negative timeout must be rejected")
	}
	cfg = DefaultStormConfig()
	cfg.Hubs = -1
	if _, err := RunReportStorm(cfg); err == nil {
		t.Fatal("a negative hub count must be rejected")
	}
	cfg = DefaultStormConfig()
	cfg.Ramp = &StormRamp{}
	if _, err := RunReportStorm(cfg); err == nil {
		t.Fatal("an empty ramp must be rejected")
	}
}
