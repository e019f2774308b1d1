package immunity

import (
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
)

// TestAdmissionShedsAtCapacity: with the permit pool saturated, an
// over-capacity report waits its bounded delay and is then shed —
// dropped without error, session intact — and every verdict shows up
// in Stats and on the registry.
func TestAdmissionShedsAtCapacity(t *testing.T) {
	reg := metrics.NewRegistry()
	pool := metrics.NewPool(reg, "immunity_hub_admission", 30*time.Millisecond)
	pool.Resize(1)
	hub := newTestHub(t, 1, WithMetricsRegistry(reg), WithAdmission(pool))
	block := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- hub.admitReport(func() error {
			close(entered)
			<-block
			return nil
		})
	}()
	<-entered // permit held

	ran := false
	if err := hub.admitReport(func() error { ran = true; return nil }); err != nil {
		t.Fatalf("shed batch must not error the session: %v", err)
	}
	if ran {
		t.Fatal("shed batch must not be processed")
	}
	st := hub.Stats()
	if st.AdmissionAdmitted != 1 || st.AdmissionShed != 1 {
		t.Fatalf("admitted=%d shed=%d, want 1/1", st.AdmissionAdmitted, st.AdmissionShed)
	}

	// A waiter that outlasts a short hold is delayed, not shed.
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(block)
	}()
	delayedRan := false
	if err := hub.admitReport(func() error { delayedRan = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !delayedRan {
		t.Fatal("delayed batch must still be processed")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := hub.Stats(); st.AdmissionDelayed != 1 {
		t.Fatalf("delayed=%d, want 1", st.AdmissionDelayed)
	}

	var b strings.Builder
	if err := hub.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"immunity_hub_admission_admitted_total 1",
		"immunity_hub_admission_delayed_total 1",
		"immunity_hub_admission_shed_total 1",
		"immunity_hub_admission_capacity 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAdmissionDisabledByDefault: without WithAdmission (or with a nil
// pool) every report admits immediately, the counters stay zero and no
// admission series is registered.
func TestAdmissionDisabledByDefault(t *testing.T) {
	for _, opts := range [][]ExchangeOption{nil, {WithAdmission(nil)}} {
		hub := newTestHub(t, 1, opts...)
		ran := false
		if err := hub.admitReport(func() error { ran = true; return nil }); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("report not processed with admission disabled")
		}
		st := hub.Stats()
		if st.AdmissionAdmitted != 0 || st.AdmissionDelayed != 0 || st.AdmissionShed != 0 {
			t.Fatalf("admission counters moved while disabled: %+v", st)
		}
		var b strings.Builder
		if err := hub.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(b.String(), "immunity_hub_admission") {
			t.Fatalf("a hub without a pool renders admission series:\n%s", b.String())
		}
	}
}

// TestExchangeMetricsRegistry: hub traffic lands on the registry — the
// report/confirmation/armed counters move with reportFrom and the
// whole thing renders in Prometheus text format.
func TestExchangeMetricsRegistry(t *testing.T) {
	hub := newTestHub(t, 2)
	sig := testSig(1)
	hub.report("devA", sig)
	hub.report("devA", sig) // echo
	hub.report("devB", sig) // arms at threshold 2
	var b strings.Builder
	if err := hub.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"immunity_hub_reports_total 3",
		"immunity_hub_confirmations_total 2",
		"immunity_hub_echoes_total 1",
		"immunity_hub_armed_total 1",
		"# TYPE immunity_hub_push_batch_size histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
