package immunity

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// newPoolHub is a hub whose pool sheds after maxWait instead of
// admitWait.
func newPoolHub(t *testing.T, maxWait time.Duration) *Exchange {
	hub := newTestHub(t, 1)
	hub.admit.maxWait = maxWait
	return hub
}

// saturate takes every permit of hub's pool with report batches that
// block until release is called once per permit.
func saturate(t *testing.T, hub *Exchange) (release func(), done <-chan error) {
	t.Helper()
	block := make(chan struct{})
	entered := make(chan struct{})
	errs := make(chan error, admissionPermits)
	for i := 0; i < admissionPermits; i++ {
		go func() {
			errs <- hub.admitReport(func() error {
				entered <- struct{}{}
				<-block
				return nil
			})
		}()
	}
	for i := 0; i < admissionPermits; i++ {
		<-entered
	}
	return func() { block <- struct{}{} }, errs
}

// awaitWaiting reports whether n acquirers queue on hub's pool within a
// few seconds. It spins on Gosched: the acquirers it waits for only
// need the processor.
func awaitWaiting(hub *Exchange, n int64) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if hub.admit.waiting.Load() == n {
			return true
		}
	}
	return false
}

// drain returns every permit saturate took and checks the batches ran
// without error.
func drain(t *testing.T, release func(), done <-chan error, held int) {
	t.Helper()
	for i := 0; i < held; i++ {
		release()
	}
	for i := 0; i < admissionPermits; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmissionShedsAtCapacity: with all 8 permits held, an
// over-capacity report waits its bounded delay and is then shed —
// dropped without error, session intact — and every verdict shows up
// in Stats and on the registry.
func TestAdmissionShedsAtCapacity(t *testing.T) {
	hub := newPoolHub(t, 30*time.Millisecond)
	release, done := saturate(t, hub)

	ran := false
	if err := hub.admitReport(func() error { ran = true; return nil }); err != nil {
		t.Fatalf("shed batch must not error the session: %v", err)
	}
	if ran {
		t.Fatal("shed batch must not be processed")
	}
	st := hub.Stats()
	if st.AdmissionAdmitted != admissionPermits || st.AdmissionShed != 1 {
		t.Fatalf("admitted=%d shed=%d, want %d/1", st.AdmissionAdmitted, st.AdmissionShed, admissionPermits)
	}
	drain(t, release, done, admissionPermits)

	var b strings.Builder
	if err := hub.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"immunity_hub_admission_admitted_total 8",
		"immunity_hub_admission_delayed_total 0",
		"immunity_hub_admission_shed_total 1",
		"immunity_hub_admission_in_use 0",
		"immunity_hub_admission_capacity 8",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAdmissionDelaysUntilRelease: a report that queues behind a full
// pool is admitted, as delayed, once a holder releases — the permit is
// handed to the waiter, not lost.
func TestAdmissionDelaysUntilRelease(t *testing.T) {
	hub := newTestHub(t, 1)
	release, done := saturate(t, hub)

	delayed := make(chan error, 1)
	ran := false
	go func() { delayed <- hub.admitReport(func() error { ran = true; return nil }) }()
	if !awaitWaiting(hub, 1) {
		t.Fatal("the over-capacity report never queued")
	}
	release()
	if err := <-delayed; err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("delayed batch must still be processed")
	}
	drain(t, release, done, admissionPermits-1)
	if st := hub.Stats(); st.AdmissionAdmitted != admissionPermits || st.AdmissionDelayed != 1 || st.AdmissionShed != 0 {
		t.Fatalf("admitted=%d delayed=%d shed=%d, want %d/1/0",
			st.AdmissionAdmitted, st.AdmissionDelayed, st.AdmissionShed, admissionPermits)
	}
}

// TestAdmissionZeroWaitShedsImmediately: a max wait of zero sheds an
// over-capacity report at once, without queueing it.
func TestAdmissionZeroWaitShedsImmediately(t *testing.T) {
	hub := newPoolHub(t, 0)
	release, done := saturate(t, hub)
	start := time.Now()
	if err := hub.admitReport(func() error { t.Error("shed batch ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("zero-wait shed took %v, want immediate", d)
	}
	drain(t, release, done, admissionPermits)
	if st := hub.Stats(); st.AdmissionShed != 1 || st.AdmissionDelayed != 0 {
		t.Fatalf("shed=%d delayed=%d, want 1/0", st.AdmissionShed, st.AdmissionDelayed)
	}
}

// TestAdmissionReleasesAfterAFailingHandler: a batch whose handling
// fails (a refused report) returns its permit like any other. More
// failing batches than permits, on a pool that sheds at once, each
// reach their handler.
func TestAdmissionReleasesAfterAFailingHandler(t *testing.T) {
	hub := newPoolHub(t, 0)
	refused := errors.New("refused")
	for i := 0; i <= admissionPermits; i++ {
		if err := hub.admitReport(func() error { return refused }); err != refused {
			t.Fatalf("batch %d: admitReport = %v, want the handler's error", i, err)
		}
	}
	if st := hub.Stats(); st.AdmissionAdmitted != admissionPermits+1 || st.AdmissionShed != 0 {
		t.Fatalf("admitted=%d shed=%d, want %d/0: a failing batch kept its permit",
			st.AdmissionAdmitted, st.AdmissionShed, admissionPermits+1)
	}
}

// TestAdmissionConcurrentAcquire: sessions admit reports concurrently,
// more of them than there are permits. Run it with -race: no more than
// 8 batches are ever handled at once, every verdict is counted once and
// no permit leaks.
func TestAdmissionConcurrentAcquire(t *testing.T) {
	hub := newTestHub(t, 1)
	const sessions, each = 16, 200
	var inside, over atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := hub.admitReport(func() error {
					if inside.Add(1) > admissionPermits {
						over.Add(1)
					}
					inside.Add(-1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := hub.Stats()
	if got := st.AdmissionAdmitted + st.AdmissionDelayed; got != sessions*each || st.AdmissionShed != 0 {
		t.Fatalf("admitted+delayed = %d shed = %d, want %d/0", got, st.AdmissionShed, sessions*each)
	}
	if n := over.Load(); n != 0 {
		t.Fatalf("%d batches ran with more than %d handled at once", n, admissionPermits)
	}
	var b strings.Builder
	if err := hub.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "immunity_hub_admission_in_use 0") {
		t.Fatalf("permits leaked:\n%s", b.String())
	}
}

// TestAdmissionOnEveryHub: a plain NewExchange runs the pool — its
// series render, and a device's report over a session takes a permit.
func TestAdmissionOnEveryHub(t *testing.T) {
	hub := newTestHub(t, 1)
	conn, err := hub.Accept(func(wire.Message) error { return nil }, func() {})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	report := wire.Message{V: wire.Version, Type: wire.TypeReport,
		Report: &wire.Report{Sigs: []wire.Signature{wire.FromCore(testSig(1))}}}
	for _, m := range []wire.Message{helloMsg("phoneA"), report} {
		if err := conn.Handle(m); err != nil {
			t.Fatal(err)
		}
	}
	if st := hub.Stats(); st.AdmissionAdmitted != 1 || st.AdmissionDelayed != 0 || st.AdmissionShed != 0 {
		t.Fatalf("admitted=%d delayed=%d shed=%d after one report, want 1/0/0",
			st.AdmissionAdmitted, st.AdmissionDelayed, st.AdmissionShed)
	}
	var b strings.Builder
	if err := hub.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"immunity_hub_admission_capacity 8",
		"immunity_hub_admission_admitted_total 1",
		"immunity_hub_admission_in_use 0",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, b.String())
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
