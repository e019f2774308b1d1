package workload

import (
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
)

// TestRunReportStorm is the bounded-degradation proof: a burst far
// wider than the permit pool is delayed (backpressure visible in the
// counters) but never shed under the generous default wait, and every
// signature still arms.
func TestRunReportStorm(t *testing.T) {
	cfg := DefaultStormConfig()
	cfg.AdmitCapacity = 1 // maximize contention so delay is deterministic
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	res, err := RunReportStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Armed < cfg.Sigs {
		t.Fatalf("armed %d/%d — the storm lost signatures", res.Armed, cfg.Sigs)
	}
	if res.Admitted == 0 {
		t.Fatal("no report was admitted")
	}
	if res.Delayed == 0 {
		t.Fatal("a 1-permit pool under an 8-device burst delayed nothing — admission is not engaging")
	}
	if res.Shed != 0 {
		t.Fatalf("shed %d reports under a %s wait — arming completeness was luck", res.Shed, cfg.AdmitWait)
	}
	// The verdicts are also live on the shared registry.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "immunity_hub_admission_delayed_total") {
		t.Fatalf("registry render missing admission series:\n%s", b.String())
	}
	out := FormatStorm(res)
	if !strings.Contains(out, "delayed=") {
		t.Fatalf("FormatStorm missing admission line:\n%s", out)
	}
}

// TestRunReportStormFederated runs the same burst against a 2-hub
// cluster without admission: arming must still complete cluster-wide
// and the counters must stay zero (the control for TestRunReportStorm).
func TestRunReportStormFederated(t *testing.T) {
	cfg := DefaultStormConfig()
	cfg.Devices = 4
	cfg.Sigs = 8
	cfg.Hubs = 2
	cfg.AdmitCapacity = 0 // disabled
	res, err := RunReportStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Armed < cfg.Sigs {
		t.Fatalf("armed %d/%d cluster-wide", res.Armed, cfg.Sigs)
	}
	if res.Admitted != 0 || res.Delayed != 0 || res.Shed != 0 {
		t.Fatalf("admission counters moved while disabled: %+v", res)
	}
	if !strings.Contains(res.Transport, "cluster(2)") {
		t.Fatalf("transport = %q, want cluster(2)", res.Transport)
	}
}

// TestRunReportStormAdaptive is the AIMD convergence proof: a ramped
// storm against an adaptive pool grows capacity during the paced
// warmup (SLO ok + demand), collapses it multiplicatively when the
// full-batch flood breaches the latency SLO, never sheds (the wait is
// generous), still arms everything, and ends with the SLO recovered to
// ok once the flood drains out of the evaluation window.
func TestRunReportStormAdaptive(t *testing.T) {
	cfg := StormConfig{
		Devices:          16,
		Sigs:             64,
		ConfirmThreshold: 2,
		AdmitAuto:        true,
		SLOTarget:        500 * time.Microsecond,
		SLOInterval:      50 * time.Millisecond,
		Timeout:          60 * time.Second,
		Ramp:             &StormRamp{Warmup: 600 * time.Millisecond, Flood: 600 * time.Millisecond},
	}
	res, err := RunReportStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Armed < cfg.Sigs {
		t.Fatalf("armed %d/%d — the ramped storm lost signatures", res.Armed, cfg.Sigs)
	}
	if res.Shed != 0 {
		t.Fatalf("shed %d reports under a generous wait", res.Shed)
	}
	if res.InitialCapacity != 8 {
		t.Fatalf("initial capacity = %d, want the AIMD default 8", res.InitialCapacity)
	}
	if res.AIMDIncreases == 0 {
		t.Fatal("warmup produced no additive increase — the controller never grew on ok+demand")
	}
	if res.AIMDDecreases == 0 {
		t.Fatal("flood produced no multiplicative decrease — the latency SLO never drove a retreat")
	}
	if res.FinalCapacity >= res.InitialCapacity {
		t.Fatalf("final capacity %d did not converge below initial %d", res.FinalCapacity, res.InitialCapacity)
	}
	var lat *metrics.SLOStatus
	for i := range res.SLO {
		if res.SLO[i].Name == "report-latency" {
			lat = &res.SLO[i]
		}
	}
	if lat == nil {
		t.Fatalf("result carries no report-latency SLO: %+v", res.SLO)
	}
	if lat.State != "ok" {
		t.Fatalf("report-latency state = %q, want ok after recovery", lat.State)
	}
	if lat.Breaches == 0 {
		t.Fatal("the flood never breached the latency SLO")
	}
	if lat.LastTransition == nil || lat.LastTransition.To != "ok" {
		t.Fatalf("last transition = %+v, want →ok (the storm-drain recovery)", lat.LastTransition)
	}
	out := FormatStorm(res)
	for _, want := range []string{"adaptive capacity", "ramp", "slo report-latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatStorm missing %q:\n%s", want, out)
		}
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
	cfg.AdmitAuto = true
	if _, err := RunReportStorm(cfg); err == nil {
		t.Fatal("AdmitAuto with a fixed capacity must be rejected")
	}
	cfg = DefaultStormConfig()
	cfg.AdmitCapacity = 0
	cfg.AdmitAuto = true
	cfg.Hubs = 2
	cfg.Metrics = metrics.NewRegistry()
	if _, err := RunReportStorm(cfg); err == nil {
		t.Fatal("AdmitAuto over multiple hubs with a shared registry must be rejected")
	}
	cfg = DefaultStormConfig()
	cfg.AdmitAuto = true
	cfg.AdmitCapacity = 0
	cfg.Dial = "localhost:1"
	if _, err := RunReportStorm(cfg); err == nil {
		t.Fatal("AdmitAuto in client mode must be rejected")
	}
	cfg = DefaultStormConfig()
	cfg.Ramp = &StormRamp{}
	if _, err := RunReportStorm(cfg); err == nil {
		t.Fatal("an empty ramp must be rejected")
	}
}
