package immunity

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// TestFileProvenanceUpsert: the log replays last-wins, in first-seen
// order, and skips a torn tail without losing the prefix.
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
	recC := ProvenanceRecord{Seq: 3, Key: "c", Sig: wire.FromCore(testSig(2)), FirstSeen: "phone2"}
	if _, err := f.Write(wire.AppendRecord(nil, recC)[:20]); err != nil {
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

// provRec is one version of key's record; versions differ in
// RemoteConfirms, so a stale one never compares equal to the newest.
func provRec(key string, seq, version int) ProvenanceRecord {
	return ProvenanceRecord{Seq: seq, Key: key, Sig: wire.FromCore(testSig(seq)),
		FirstSeen: "phone0", ConfirmedBy: []string{"phone0"}, RemoteConfirms: version}
}

// lastWins is what a log holding recs must load as: the newest record
// per key, in Seq order.
func lastWins(recs []ProvenanceRecord) []ProvenanceRecord {
	latest := map[string]ProvenanceRecord{}
	for _, rec := range recs {
		latest[rec.Key] = rec
	}
	out := make([]ProvenanceRecord, 0, len(latest))
	for _, rec := range latest {
		out = append(out, rec)
	}
	sortRecords(out)
	return out
}

// mustLoad loads path through a fresh store.
func mustLoad(t *testing.T, path string) []ProvenanceRecord {
	t.Helper()
	recs, err := NewFileProvenance(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func fileSize(t *testing.T, path string) int {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(st.Size())
}

// TestFileProvenanceTornTailAppend: a record appended after a crash tore
// the last one lands after the intact prefix, so the next reload keeps
// it. Without the cut it would extend the torn record, and the reload
// would drop both.
func TestFileProvenanceTornTailAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prov")
	store := NewFileProvenance(path)
	for i, key := range []string{"a", "b"} {
		if err := store.Append(provRec(key, i+1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, int64(fileSize(t, path)-10)); err != nil {
		t.Fatal(err)
	}
	store = NewFileProvenance(path)
	if recs, err := store.Load(); err != nil || len(recs) != 1 {
		t.Fatalf("torn log loads %d records (err %v), want 1", len(recs), err)
	}
	if err := store.Append(provRec("c", 3, 0)); err != nil {
		t.Fatal(err)
	}
	if recs := mustLoad(t, path); len(recs) != 2 || recs[0].Key != "a" || recs[1].Key != "c" {
		t.Fatalf("after the torn tail and one more append the log loads %+v, want [a c]", recs)
	}
}

// TestFileProvenanceCutAtEveryOffset: a crash may cut the log at any
// byte. Cut anywhere inside the last three records, a reload equals the
// state after the last complete record, and a record appended next
// survives the reload after it.
func TestFileProvenanceCutAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	recs := []ProvenanceRecord{provRec("a", 1, 0), provRec("b", 2, 0), provRec("a", 1, 1),
		provRec("c", 3, 0), provRec("b", 2, 1), provRec("d", 4, 0)}
	full := filepath.Join(dir, "full.prov")
	store := NewFileProvenance(full)
	ends := make([]int, len(recs)) // the file's size after each record
	for i, rec := range recs {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
		ends[i] = fileSize(t, full)
	}
	b, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	extra := provRec("e", 5, 0)
	path := filepath.Join(dir, "cut.prov")
	for cut := ends[len(recs)-4]; cut < len(b); cut++ {
		complete := 0
		for complete < len(recs) && ends[complete] <= cut {
			complete++
		}
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		store := NewFileProvenance(path)
		got, err := store.Load()
		if want := lastWins(recs[:complete]); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at byte %d of %d: loaded %+v (err %v), want the state after %d records %+v", cut, len(b), got, err, complete, want)
		}
		if err := store.Append(extra); err != nil {
			t.Fatal(err)
		}
		if got, want := mustLoad(t, path), lastWins(append(recs[:complete:complete], extra)); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at byte %d of %d, then one append: loaded %+v, want %+v", cut, len(b), got, want)
		}
	}
}

// TestFileProvenanceRefusesForeignFiles: the store repairs only what a
// crash can do. A file without the log header (a JSON-lines log from
// before the binary format) and an intact record that does not decode
// are Load errors naming the file: the store will not append to it and
// a hub will not start over it. A file that is a prefix of the header is
// a torn first write and loads empty.
func TestFileProvenanceRefusesForeignFiles(t *testing.T) {
	valid := wire.AppendRecord(nil, provRec("a", 1, 0))
	payload := append(valid[4:len(valid)-4:len(valid)-4], 0) // one trailing byte
	undecodable := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	undecodable = append(undecodable, payload...)
	undecodable = binary.LittleEndian.AppendUint32(undecodable, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	for name, content := range map[string]string{
		"json-lines log":     `{"seq":1,"key":"a","sig":{"kind":"deadlock","pairs":[]},"first_seen":"phone0","confirmed_by":["phone0"],"armed":false}` + "\n",
		"undecodable record": wire.LogHeader + string(undecodable),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.prov")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			store := NewFileProvenance(path)
			if _, err := store.Load(); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("Load: %v, want an error naming %s", err, path)
			}
			if err := store.Append(provRec("b", 2, 0)); err == nil {
				t.Fatal("append to a refused file succeeded")
			}
			if hub, err := NewExchange(2, WithProvenanceStore(store)); err == nil {
				hub.Close()
				t.Fatal("a hub started over a refused file")
			}
			if b, err := os.ReadFile(path); err != nil || string(b) != content {
				t.Fatalf("a refused file changed: %q (err %v)", b, err)
			}
		})
	}
	t.Run("torn header", func(t *testing.T) {
		for cut := 0; cut < len(wire.LogHeader); cut++ {
			path := filepath.Join(t.TempDir(), "fleet.prov")
			if err := os.WriteFile(path, []byte(wire.LogHeader[:cut]), 0o644); err != nil {
				t.Fatal(err)
			}
			store := NewFileProvenance(path)
			if recs, err := store.Load(); err != nil || len(recs) != 0 {
				t.Fatalf("%d header bytes: loaded %d records (err %v), want an empty log", cut, len(recs), err)
			}
			if err := store.Append(provRec("a", 1, 0)); err != nil {
				t.Fatal(err)
			}
			if recs := mustLoad(t, path); len(recs) != 1 {
				t.Fatalf("%d header bytes, then one append: loaded %d records, want 1", cut, len(recs))
			}
		}
	})
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

// logRecords returns how many records, dead ones included, the log at
// path holds.
func logRecords(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, records, _, err := wire.DecodeLog(b)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// TestFileProvenanceCompaction: whenever dead records outnumber live
// ones the log rewrites itself to a snapshot — one record per live key —
// so it never holds more than twice its live records, no compaction
// rewrites more records than were appended since the last, and a store
// reopened over the snapshot loads the same state.
func TestFileProvenanceCompaction(t *testing.T) {
	const keys, rounds = 3, 20
	path := filepath.Join(t.TempDir(), "fleet.prov")
	store := NewFileProvenance(path)
	for round := 0; round < rounds; round++ {
		for k := 0; k < keys; k++ {
			rec := ProvenanceRecord{Seq: k + 1, Key: fmt.Sprintf("key%d", k),
				Sig: wire.FromCore(testSig(k)), FirstSeen: "phone0",
				ConfirmedBy: []string{"phone0"}, RemoteConfirms: round}
			if err := store.Append(rec); err != nil {
				t.Fatal(err)
			}
			if live, n := min(round*keys+k+1, keys), logRecords(t, path); n > 2*live {
				t.Fatalf("log holds %d records for %d live keys", n, live)
			}
		}
	}
	// Each compaction rewrites the 3 live records and needs 4 dead ones
	// appended since the last: the 57 upserts make 14, 42 records
	// rewritten for 60 appended.
	if c, want := store.Compactions(), uint64(keys*(rounds-1)/(keys+1)); c != want {
		t.Fatalf("%d compactions over %d appends to %d keys, want %d", c, keys*rounds, keys, want)
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
	store := NewFileProvenance(path)
	// One key upserted 20 times: whenever two dead records outnumber it,
	// the log compacts.
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

// TestFileProvenanceHandleAcrossCompaction: the store keeps one append
// handle, and a compaction's rename must replace it — a record appended
// after a compaction lands in the snapshot, not in the unlinked log.
func TestFileProvenanceHandleAcrossCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prov")
	store := NewFileProvenance(path)
	var appended []ProvenanceRecord
	add := func(rec ProvenanceRecord) {
		t.Helper()
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, rec)
	}
	add(provRec("a", 1, 0))
	for v := 1; v < 10 && store.Compactions() == 0; v++ {
		add(provRec("a", 1, v))
	}
	if store.Compactions() == 0 {
		t.Fatal("no compaction")
	}
	add(provRec("b", 2, 0))
	add(provRec("a", 1, 99))
	got, want := mustLoad(t, path), lastWins(appended)
	if len(got) != len(want) {
		t.Fatalf("reload sees %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("reload record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestExchangeRestartOverClosedStore: Exchange.Close closes its file
// store's handle, and a new hub over the same store instance resumes
// what the first one wrote and reopens the handle on its first append.
func TestExchangeRestartOverClosedStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prov")
	store := NewFileProvenance(path)
	first := newTestHub(t, 1, WithProvenanceStore(store))
	armSigs(t, first, 3)
	first.Close()
	store.mu.Lock()
	open := store.file != nil
	store.mu.Unlock()
	if open {
		t.Fatal("Exchange.Close left the store's append handle open")
	}
	if err := store.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	second := newTestHub(t, 1, WithProvenanceStore(store))
	if got := second.ArmedCount(); got != 3 {
		t.Fatalf("restart over the closed store resumed %d armings, want 3", got)
	}
	second.reportFrom("", "reporter", checked(testSig(3)), 0)
	if n := second.Stats().PersistErrors; n != 0 {
		t.Fatalf("%d persist errors after the restart", n)
	}
	second.Close()
	third := newTestHub(t, 1, WithProvenanceStore(NewFileProvenance(path)))
	if got := third.ArmedCount(); got != 4 {
		t.Fatalf("a fresh store resumed %d armings, want 4", got)
	}
}

// TestExchangeRestartAfterCompaction: a hub whose provenance log
// compacted under heavy upserting restarts with confirmations intact —
// the snapshot is as good as the full log.
func TestExchangeRestartAfterCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prov")
	store := NewFileProvenance(path)
	hub := newTestHub(t, 4, WithProvenanceStore(store))
	// Many distinct devices confirm many signatures below threshold:
	// every report after the first round upserts an existing key, and
	// the third round's first report makes the dead records outnumber
	// the four live ones.
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
	hub.reportFrom("", "reporter", checked(sigs...), 0)
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

// TestFileProvenanceAppendReusesBuffer: a steady-state one-record
// append encodes into the store's own buffer and allocates nothing for
// it; a batch that grows the buffer past maxAppendBuf does not leave it
// that large.
func TestFileProvenanceAppendReusesBuffer(t *testing.T) {
	const runs = 100
	store := NewFileProvenance(filepath.Join(t.TempDir(), "fleet.prov"))
	defer store.Close()
	var big []ProvenanceRecord
	for n := 0; n <= maxAppendBuf; {
		rec := provRec(fmt.Sprint("big", len(big)), len(big)+1, 0)
		big, n = append(big, rec), n+len(wire.AppendRecord(nil, rec))
	}
	batches := make([][]ProvenanceRecord, runs+1) // AllocsPerRun warms up once
	for i := range batches {
		batches[i] = []ProvenanceRecord{provRec(fmt.Sprint("k", i), len(big)+i+1, 0)}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := store.AppendBatch(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("a one-record append costs %.0f allocations, want 0", allocs)
	}
	if err := store.AppendBatch(big); err != nil {
		t.Fatal(err)
	}
	if c := cap(store.buf); c == 0 || c > maxAppendBuf {
		t.Fatalf("after a %d-record batch the store keeps a %d-byte buffer, want one of at most %d", len(big), c, maxAppendBuf)
	}
	if got := len(mustLoad(t, store.Path())); got != runs+1+len(big) {
		t.Fatalf("loaded %d records, want %d", got, runs+1+len(big))
	}
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
// 1 000 armed signatures gains one log record per epoch-0 hello, and its
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
	before := logRecords(t, path)
	for i := 0; i < devices; i++ {
		_, caughtUp := helloFrom(t, hub, fmt.Sprintf("device-%d", i))
		waitFor(t, "catch-up delivered", func() bool { return caughtUp() == sigs })
	}
	if gained, compactions := logRecords(t, path)-before, store.Compactions(); gained != devices || compactions != 0 {
		t.Fatalf("%d hellos: log gained %d records with %d compactions, want %d and 0", devices, gained, compactions, devices)
	}
}

// TestLoadRefusesMismatchedKey: a provenance record must carry its own
// signature's key. A CRC-valid record whose key names another signature
// (or another tenant) would load under the wrong key, and a later report
// of its real signature would create a second entry, so a hub refuses to
// start over it, naming the key, and leaves the file as it was.
func TestLoadRefusesMismatchedKey(t *testing.T) {
	sig, other := wire.FromCore(testSig(0)), testSig(1).Key()
	for _, tc := range []struct {
		name, key, tenant string
		ok                bool
	}{
		{"own key", testSig(0).Key(), "", true},
		{"own tenant key", tenantKey("x", testSig(0).Key()), "x", true},
		{"another signature's key", other, "", false},
		{"the key without its tenant", testSig(0).Key(), "x", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := wire.AppendRecord([]byte(wire.LogHeader), ProvenanceRecord{Seq: 1, Key: tc.key, Sig: sig,
				FirstSeen: "d1", ConfirmedBy: []string{"d1"}, Tenant: tc.tenant})
			path := filepath.Join(t.TempDir(), "fleet.prov")
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			hub, err := NewExchange(2, WithProvenanceStore(NewFileProvenance(path)))
			if tc.ok {
				if err != nil {
					t.Fatal(err)
				}
				defer hub.Close()
				if prov := hub.Provenance(); len(prov) != 1 || prov[0].Key != tc.key {
					t.Fatalf("loaded %+v, want one entry under %q", prov, tc.key)
				}
				return
			}
			if err == nil {
				hub.Close()
				t.Fatalf("a hub started over a record keyed %q holding another signature", tc.key)
			}
			if !strings.Contains(err.Error(), strconv.Quote(tc.key)) {
				t.Fatalf("error %q does not name the record's key %q", err, tc.key)
			}
			if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, log) {
				t.Fatalf("the refused log changed (err %v)", err)
			}
		})
	}
}
