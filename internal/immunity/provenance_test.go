package immunity

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// TestFileProvenanceUpsert: the JSON-lines log replays last-wins, in
// first-seen order, and skips a torn tail without losing the prefix.
func TestFileProvenanceUpsert(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prov")
	store := NewFileProvenance(path)
	recA := ProvenanceRecord{Seq: 1, Key: "a", Sig: wire.FromCore(testSig(0)),
		FirstSeen: "phone0", ConfirmedBy: []string{"phone0"}}
	recB := ProvenanceRecord{Seq: 2, Key: "b", Sig: wire.FromCore(testSig(1)),
		FirstSeen: "phone1", ConfirmedBy: []string{"phone1"}}
	for _, rec := range []ProvenanceRecord{recA, recB} {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Upsert: "a" arms.
	recA.ConfirmedBy = []string{"phone0", "phone1"}
	recA.Armed = true
	recA.ArmEpoch = 1
	if err := store.Append(recA); err != nil {
		t.Fatal(err)
	}
	// Torn tail from a crashed write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"key":"c","first_`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "a" || recs[1].Key != "b" {
		t.Fatalf("load = %+v, want [a b]", recs)
	}
	if !recs[0].Armed || recs[0].ArmEpoch != 1 || len(recs[0].ConfirmedBy) != 2 {
		t.Fatalf("upsert lost: %+v", recs[0])
	}
	// Missing file is an empty store.
	empty, err := NewFileProvenance(filepath.Join(t.TempDir(), "absent")).Load()
	if err != nil || len(empty) != 0 {
		t.Fatalf("missing file: recs=%v err=%v", empty, err)
	}
}

// TestExchangeRestartPreservesProvenance is the durable-gating scenario:
// a hub restart mid-scenario must neither arm below threshold (the
// restarted hub still refuses echoes of its own pushes and remembers
// which device already confirmed) nor lose the first confirmation (one
// more distinct device arms the fleet).
func TestExchangeRestartPreservesProvenance(t *testing.T) {
	store := NewFileProvenance(filepath.Join(t.TempDir(), "fleet.prov"))
	key := testSig(0).Key()

	// Life 1: phone0 confirms; at threshold 2 the signature stays
	// unarmed, but the confirmation is persisted.
	hub1, err := NewExchange(2, WithProvenanceStore(store))
	if err != nil {
		t.Fatal(err)
	}
	phones := fleetSim(t, hub1, 2)
	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first confirmation persisted", func() bool {
		recs := loadSigs(t, store)
		return len(recs) == 1 && len(recs[0].ConfirmedBy) == 1
	})
	phones[0].client.Close()
	phones[1].client.Close()
	hub1.Close()

	// Life 2: the restarted hub reloads provenance before serving.
	hub2, err := NewExchange(2, WithProvenanceStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer hub2.Close()
	prov := hub2.Provenance()
	if len(prov) != 1 || prov[0].Armed || prov[0].Confirmations != 1 || prov[0].FirstSeen != "phone0" {
		t.Fatalf("restarted hub provenance = %+v, want phone0's single unarmed confirmation", prov)
	}

	// The phones reconnect (fresh clients, as after any hub outage);
	// phone0's epoch-0 re-report of its own detection must not double
	// count. It is the one signature either phone holds, so it is the
	// one echo.
	lb := NewLoopback(hub2)
	for i, ph := range phones {
		client, err := Connect(lb, fmt.Sprintf("phone%d", i), ph.svc)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		ph.client = client
	}
	waitFor(t, "phone0's re-report answered as an echo", func() bool { return hub2.Stats().Echoes == 1 })
	if prov := hub2.Provenance()[0]; prov.Armed || prov.Confirmations != 1 {
		t.Fatalf("restart inflated provenance: %+v", prov)
	}
	if phones[1].armedOn(key) {
		t.Fatal("phone1 armed below threshold after hub restart")
	}

	// The preserved confirmation still counts: phone1's independent
	// detection is the second confirmation and arms the fleet.
	if _, _, err := phones[1].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fleet armed after restart", func() bool {
		prov := hub2.Provenance()[0]
		return prov.Armed && prov.Confirmations == 2
	})
	for i, p := range phones {
		ph := p
		waitFor(t, fmt.Sprintf("phone%d armed", i), func() bool { return ph.armedOn(key) })
	}

	// Life 3: a third boot sees the armed state and catches a new phone
	// up from it.
	hub2.Close()
	hub3, err := NewExchange(2, WithProvenanceStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer hub3.Close()
	if got := hub3.ArmedCount(); got != 1 {
		t.Fatalf("third boot armed count = %d, want 1", got)
	}
	svc, err := NewService("phone-new", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	proc, _ := attach(t, svc, "app")
	client, err := Connect(NewLoopback(hub3), "phone-new", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	newcomer := &phoneSim{svc: svc, proc: proc}
	waitFor(t, "newcomer caught up from persisted arming", func() bool { return newcomer.armedOn(key) })
}

// loadSigs loads a store's signature records, without the devices'
// delivery-cursor records.
func loadSigs(t *testing.T, store ProvenanceStore) []ProvenanceRecord {
	t.Helper()
	recs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	sigs := recs[:0]
	for _, rec := range recs {
		if rec.Device == "" {
			sigs = append(sigs, rec)
		}
	}
	return sigs
}

// TestCatchupRecordsMatchSignatures: when arming order differs from
// first-report order, every signature record — a catch-up itself writes
// none — must carry its own signature: a record whose Key names one bug
// but whose Sig is another would corrupt a restarted hub's view.
func TestCatchupRecordsMatchSignatures(t *testing.T) {
	store := NewMemProvenance()
	hub := newTestHub(t, 2, WithProvenanceStore(store))
	phones := fleetSim(t, hub, 2)

	// sig 0 is reported first but arms second; sig 1 arms first.
	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sig0 reported", func() bool { return len(hub.Provenance()) == 1 })
	for i := range phones {
		if _, _, err := phones[i].svc.Publish("local", testSig(1)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "sig1 armed", func() bool { return hub.ArmedCount() == 1 })
	if _, _, err := phones[1].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sig0 armed", func() bool { return hub.ArmedCount() == 2 })

	// A new device's hello takes the catch-up path for both signatures.
	svc, err := NewService("phone-new", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	client, err := Connect(NewLoopback(hub), "phone-new", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, "newcomer caught up", func() bool { return svc.Epoch() == 2 })

	recs := loadSigs(t, store)
	if len(recs) != 2 {
		t.Fatalf("store has %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		sig, err := rec.Sig.ToCore()
		if err != nil {
			t.Fatal(err)
		}
		if sig.Key() != rec.Key {
			t.Fatalf("record key %q carries the signature of %q", rec.Key, sig.Key())
		}
	}
}

// TestExchangeRestartOverTCP: the same durability property across the
// real transport — clients that keep redialing a bounced daemon resume
// against the reloaded provenance with no state loss.
func TestExchangeRestartOverTCP(t *testing.T) {
	store := NewFileProvenance(filepath.Join(t.TempDir(), "fleet.prov"))
	key := testSig(0).Key()

	hub1, err := NewExchange(2, WithProvenanceStore(store))
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := ServeTCP(hub1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()
	phones := tcpFleet(t, hub1, addr, 2)

	if _, _, err := phones[0].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "confirmation persisted", func() bool {
		recs := loadSigs(t, store)
		return len(recs) == 1 && len(recs[0].ConfirmedBy) == 1
	})

	// Hub process "reboots": server and hub die, a new hub over the same
	// store comes back on the same port; the clients redial on their own.
	srv1.Close()
	hub1.Close()
	hub2, err := NewExchange(2, WithProvenanceStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer hub2.Close()
	srv2, err := ServeTCP(hub2, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "clients redialed after reboot", func() bool {
		return phones[0].client.Reconnects() >= 1 && phones[1].client.Reconnects() >= 1
	})
	if prov := hub2.Provenance()[0]; prov.Armed || prov.Confirmations != 1 {
		t.Fatalf("rebooted hub lost or inflated provenance: %+v", prov)
	}

	if _, _, err := phones[1].svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fleet armed after reboot", func() bool {
		prov := hub2.Provenance()[0]
		return prov.Armed && prov.Confirmations == 2
	})
	for i, p := range phones {
		ph := p
		waitFor(t, fmt.Sprintf("phone%d armed", i), func() bool { return ph.armedOn(key) })
	}
}

// countLines returns the number of newline-terminated records in the log.
func countLines(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}

// TestFileProvenanceCompaction: once dead upsert lines exceed the
// threshold the log rewrites itself to a snapshot — one line per live
// key — and a store reopened over the snapshot loads the same state.
func TestFileProvenanceCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prov")
	store := NewFileProvenance(path, WithCompactThreshold(10))
	// 3 keys × 20 upserts each: plenty of dead weight.
	for round := 0; round < 20; round++ {
		for k := 0; k < 3; k++ {
			rec := ProvenanceRecord{Seq: k + 1, Key: fmt.Sprintf("key%d", k),
				Sig: wire.FromCore(testSig(k)), FirstSeen: "phone0",
				ConfirmedBy: []string{"phone0"}, RemoteConfirms: round}
			if err := store.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if store.Compactions() == 0 {
		t.Fatal("no compaction despite 57 dead lines over threshold 10")
	}
	if lines := countLines(t, path); lines > 3+10+1 {
		t.Fatalf("log still holds %d lines after compaction (3 live keys, threshold 10)", lines)
	}
	// A fresh store over the compacted log sees the latest records.
	recs, err := NewFileProvenance(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("loaded %d records, want 3", len(recs))
	}
	for _, rec := range recs {
		if rec.RemoteConfirms != 19 {
			t.Fatalf("record %s lost its last upsert: %+v", rec.Key, rec)
		}
	}
}

// TestFileProvenanceCompactionCrashSafe: a stale temp file from a
// crashed compaction is ignored by Load and overwritten by the next
// one; the log itself is never the torn artifact.
func TestFileProvenanceCompactionCrashSafe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.prov")
	// Simulate a compaction that died before rename.
	if err := os.WriteFile(path+".compact", []byte("{torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := NewFileProvenance(path, WithCompactThreshold(5))
	for i := 0; i < 20; i++ {
		rec := ProvenanceRecord{Seq: 1, Key: "only", Sig: wire.FromCore(testSig(0)), RemoteConfirms: i}
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if store.Compactions() == 0 {
		t.Fatal("no compaction")
	}
	recs, err := NewFileProvenance(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].RemoteConfirms != 19 {
		t.Fatalf("post-crash compacted log loads %+v", recs)
	}
}

// TestExchangeRestartAfterCompaction: a hub whose provenance log
// compacted under heavy upserting restarts with confirmations intact —
// the snapshot is as good as the full log.
func TestExchangeRestartAfterCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prov")
	store := NewFileProvenance(path, WithCompactThreshold(4))
	hub := newTestHub(t, 4, WithProvenanceStore(store))
	// Many distinct devices confirm many signatures below threshold:
	// every report upserts existing keys, breeding dead lines.
	for round := 0; round < 3; round++ {
		for s := 0; s < 4; s++ {
			hub.report(fmt.Sprintf("phone%d", round), testSig(s))
		}
	}
	if store.Compactions() == 0 {
		t.Fatal("no compaction during the upsert storm")
	}
	hub.Close()

	hub2, err := NewExchange(4, WithProvenanceStore(NewFileProvenance(path)))
	if err != nil {
		t.Fatal(err)
	}
	defer hub2.Close()
	provs := hub2.Provenance()
	if len(provs) != 4 {
		t.Fatalf("restarted hub resumed %d signatures, want 4", len(provs))
	}
	for _, p := range provs {
		if p.Confirmations != 3 || p.Armed {
			t.Fatalf("restarted provenance wrong: %+v", p)
		}
	}
	// The fourth confirmation still arms: nothing was lost to compaction.
	if confirms, armed := hub2.report("phone9", testSig(0)); confirms != 4 || !armed {
		t.Fatalf("post-restart report: confirms=%d armed=%v, want 4/true", confirms, armed)
	}
}

// countingStore counts the appends reaching a store.
type countingStore struct {
	ProvenanceStore
	batches, records atomic.Int64
}

func (c *countingStore) Append(rec ProvenanceRecord) error {
	return c.AppendBatch([]ProvenanceRecord{rec})
}

func (c *countingStore) AppendBatch(recs []ProvenanceRecord) error {
	c.batches.Add(1)
	c.records.Add(int64(len(recs)))
	return c.ProvenanceStore.AppendBatch(recs)
}

// armSigs arms testSig(0..n-1) on a threshold-1 hub in one report batch.
func armSigs(t *testing.T, hub *Exchange, n int) {
	t.Helper()
	sigs := make([]*core.Signature, n)
	for i := range sigs {
		sigs[i] = testSig(i)
	}
	hub.reportFrom("", "reporter", sigs, 0)
	if got := hub.ArmedCount(); got != n {
		t.Fatalf("armed %d, want %d", got, n)
	}
}

// helloFrom attaches device from epoch 0 over a bare session — the
// hello's persistence is done when it returns — and reports how many
// signatures its catch-up has delivered so far.
func helloFrom(t *testing.T, hub *Exchange, device string) (conn *Conn, caughtUp func() int) {
	t.Helper()
	var n atomic.Int64
	conn, err := hub.Accept(func(m wire.Message) error {
		if m.Type == wire.TypeDelta {
			n.Add(int64(len(m.Delta.Sigs)))
		}
		return nil
	}, func() {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(conn.Close)
	hello := wire.Message{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: device, MinV: wire.Version, MaxV: wire.Version}}
	if err := conn.Handle(hello); err != nil {
		t.Fatal(err)
	}
	return conn, func() int { return int(n.Load()) }
}

// TestHelloAppendsOneRecord: an epoch-0 hello persists the device's
// delivery cursor and nothing per signature, however large the armed
// set it catches up.
func TestHelloAppendsOneRecord(t *testing.T) {
	for _, n := range []int{1, 1000} {
		store := &countingStore{ProvenanceStore: NewMemProvenance()}
		hub := newTestHub(t, 1, WithProvenanceStore(store))
		armSigs(t, hub, n)
		batches, records := store.batches.Load(), store.records.Load()
		_, caughtUp := helloFrom(t, hub, "late")
		if b, r := store.batches.Load()-batches, store.records.Load()-records; b != 1 || r != 1 {
			t.Fatalf("hello over %d armed signatures appended %d batches of %d records, want 1 of 1", n, b, r)
		}
		waitFor(t, "catch-up delivered", func() bool { return caughtUp() == n })
	}
}

// TestResumedHubHellosDoNotCompact: a FileProvenance hub resumed over
// 1 000 armed signatures gains one log line per epoch-0 hello, and its
// hellos never force a compaction.
func TestResumedHubHellosDoNotCompact(t *testing.T) {
	const sigs, devices = 1000, 8
	path := filepath.Join(t.TempDir(), "fleet.prov")
	first := newTestHub(t, 1, WithProvenanceStore(NewFileProvenance(path)))
	armSigs(t, first, sigs)
	first.Close()

	store := NewFileProvenance(path)
	hub := newTestHub(t, 1, WithProvenanceStore(store))
	if got := hub.ArmedCount(); got != sigs {
		t.Fatalf("resumed %d armed signatures, want %d", got, sigs)
	}
	before := countLines(t, path)
	for i := 0; i < devices; i++ {
		_, caughtUp := helloFrom(t, hub, fmt.Sprintf("device-%d", i))
		waitFor(t, "catch-up delivered", func() bool { return caughtUp() == sigs })
	}
	if gained, compactions := countLines(t, path)-before, store.Compactions(); gained != devices || compactions != 0 {
		t.Fatalf("%d hellos: log gained %d lines with %d compactions, want %d and 0", devices, gained, compactions, devices)
	}
}
