package immunity

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// Durable fleet provenance. The hub's per-signature state — who saw it
// first, which devices independently confirmed it, whether and at which
// fleet epoch it armed — and each device's delivery cursor must survive
// hub restarts: a rebooted hub that forgot its confirmations would lose
// them (forcing devices to re-observe a deadlock the fleet already paid
// for), and one that forgot its deliveries would count its own pushes,
// re-reported, as confirmations. The store is an upsert log keyed by
// signature key or device key; Load replays it last-wins, so an
// append-only file implementation recovers its intact prefix after a
// crash. A hello costs one record, whatever the armed set's size.

// ProvenanceRecord is one signature's persisted fleet state, or — when
// Device is set — one device's delivery cursor.
type ProvenanceRecord struct {
	// Seq is the record's first-report order (1-based); it reconstructs
	// the hub's deterministic provenance ordering after a restart.
	Seq int `json:"seq"`
	// Key is the signature's canonical identity (core.Signature.Key).
	Key string `json:"key"`
	// Sig is the canonical wire encoding of the signature itself.
	Sig wire.Signature `json:"sig"`
	// FirstSeen is the device that first reported it.
	FirstSeen string `json:"first_seen"`
	// ConfirmedBy lists the devices that independently reported it.
	ConfirmedBy []string `json:"confirmed_by"`
	// Armed reports fleet-wide arming.
	Armed bool `json:"armed"`
	// ArmEpoch is the fleet delta epoch assigned when the signature
	// armed (0 while unarmed). The hub's epoch counter resumes from the
	// maximum ArmEpoch in the store.
	ArmEpoch uint64 `json:"arm_epoch,omitempty"`
	// Owner is the cluster id of the hub owning this signature's confirm
	// bookkeeping ("" outside a federation). A record whose Owner is not
	// the reloading hub is a replicated armed entry: slim by
	// construction (no ConfirmedBy/FirstSeen), it carries only what a
	// non-owner needs — the signature and the arming — so per-hub
	// persistent state stays proportional to the owned slice of the
	// fleet plus the armed set.
	Owner string `json:"owner,omitempty"`
	// OwnerSeq is the owner's monotonic arming sequence: the replay
	// cursor for hub-to-hub resubscription.
	OwnerSeq uint64 `json:"owner_seq,omitempty"`
	// RemoteConfirms is the confirmation count replicated at arming for
	// a non-owned entry.
	RemoteConfirms int `json:"remote_confirms,omitempty"`
	// Tenant scopes the record to one tenant's fleet ("" for the
	// default tenant). Key already carries the tenant prefix; the field
	// is stored explicitly so reloads and replicas recover the scope
	// without parsing keys. A device record's Tenant is the device's.
	Tenant string `json:"tenant,omitempty"`

	// Device marks a delivery-cursor record (see the package comment's
	// "Delivery cursor"): written when the device attaches (Open) and
	// when it detaches (Cursor, the fleet epoch then); it carries no
	// signature, and its Key can never equal a signature key.
	Device string `json:"device,omitempty"`
	// Open marks a session that had not detached when the record was
	// written; a reload closes it at the loaded fleet epoch.
	Open bool `json:"open,omitempty"`
	// Cursor is the fleet epoch at the device's last detach: it holds
	// every armed signature of its tenant with ArmEpoch <= Cursor.
	Cursor uint64 `json:"cursor,omitempty"`
}

// ProvenanceStore persists hub provenance across restarts. Append
// upserts one record (last write per key wins on Load) and AppendBatch
// several, in order, as one write — the hub persists each mutation's
// whole dirty set (a report batch's confirmations and armings, a
// cluster rebind's re-owned entries) through it; Load returns the
// latest record per key. Implementations must be safe for concurrent
// use.
type ProvenanceStore interface {
	Load() ([]ProvenanceRecord, error)
	Append(rec ProvenanceRecord) error
	AppendBatch(recs []ProvenanceRecord) error
}

// DefaultCompactThreshold is how many dead (superseded) upsert lines a
// FileProvenance log tolerates before rewriting itself to a snapshot.
const DefaultCompactThreshold = 1024

// FileProvenance is a ProvenanceStore backed by a JSON-lines upsert log:
// one record per line, replayed last-wins. A line torn by a crash is
// skipped on load (the previous record for that key still stands), so
// the hub always reboots with a consistent — at worst slightly stale —
// view, never a corrupt one.
//
// The log is append-only, so every upsert of an existing key leaves a
// dead line behind; once the dead count passes the compaction threshold
// the store rewrites itself as a snapshot — latest record per key, Seq
// order — into a temp file that is fsynced and renamed over the log.
// The rename is atomic: a crash at any point leaves either the old log
// (intact, possibly with its dead weight) or the new snapshot, never a
// torn mix, and a stale temp file is simply overwritten next time.
type FileProvenance struct {
	mu        sync.Mutex
	path      string
	threshold int
	// lines/keys mirror the log's line count and live key set so the
	// dead count is known without rescanning per append; -1 lines means
	// not yet measured (first touch scans once).
	lines int
	keys  map[string]struct{}
	// compactions counts snapshot rewrites; compactErrors counts failed
	// attempts (the log stays valid, just uncompacted). metCompactions/
	// metCompactErrors mirror them onto registry counters when the store
	// was built with WithCompactionCounters (nil instruments are no-ops).
	compactions      uint64
	compactErrors    uint64
	metCompactions   *metrics.Counter
	metCompactErrors *metrics.Counter
}

var _ ProvenanceStore = (*FileProvenance)(nil)

// FileProvenanceOption configures a FileProvenance.
type FileProvenanceOption func(*FileProvenance)

// WithCompactThreshold overrides how many dead log lines trigger a
// snapshot rewrite; n <= 0 disables compaction.
func WithCompactThreshold(n int) FileProvenanceOption {
	return func(f *FileProvenance) { f.threshold = n }
}

// WithCompactionCounters mirrors the store's compaction and
// compaction-error counts onto registry counters, so a daemon surfaces
// them on /metrics next to the hub's persist errors. Either counter
// may be nil.
func WithCompactionCounters(compactions, compactErrors *metrics.Counter) FileProvenanceOption {
	return func(f *FileProvenance) {
		f.metCompactions = compactions
		f.metCompactErrors = compactErrors
	}
}

// NewFileProvenance creates a store at path; the file is created on
// first append and a missing file loads as empty.
func NewFileProvenance(path string, opts ...FileProvenanceOption) *FileProvenance {
	f := &FileProvenance{path: path, threshold: DefaultCompactThreshold, lines: -1}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// Path returns the backing file path.
func (f *FileProvenance) Path() string { return f.path }

// Compactions returns how many snapshot rewrites the store has done.
func (f *FileProvenance) Compactions() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compactions
}

// CompactErrors returns how many snapshot rewrites failed (appends
// themselves were unaffected).
func (f *FileProvenance) CompactErrors() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compactErrors
}

// scanLocked replays the log: the newest record per key, plus the raw
// line count (for the dead-record accounting). Caller holds f.mu.
func (f *FileProvenance) scanLocked() (map[string]ProvenanceRecord, int, error) {
	latest := make(map[string]ProvenanceRecord)
	file, err := os.Open(f.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return latest, 0, nil
		}
		return nil, 0, fmt.Errorf("load provenance: %w", err)
	}
	defer file.Close()
	lines := 0
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 0, 64*1024), wire.MaxFrame)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		lines++
		var rec ProvenanceRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn tail or corrupt line: keep the consistent prefix.
			continue
		}
		if rec.Key == "" {
			continue
		}
		latest[rec.Key] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("load provenance %s: %w", f.path, err)
	}
	return latest, lines, nil
}

// statLocked lazily measures the log's line count and live key set —
// purely to drive compaction. A failed scan (e.g. a record line beyond
// the scanner buffer) must never wedge the append path, which worked
// without ever reading the log before compaction existed: it disables
// compaction for this store instead. Caller holds f.mu.
func (f *FileProvenance) statLocked() {
	if f.lines >= 0 || f.threshold <= 0 {
		return
	}
	latest, lines, err := f.scanLocked()
	if err != nil {
		f.threshold = 0 // appends proceed; the log just stays uncompacted
		f.compactErrors++
		f.metCompactErrors.Inc()
		f.lines = 0
		f.keys = make(map[string]struct{})
		return
	}
	f.lines = lines
	f.keys = make(map[string]struct{}, len(latest))
	for k := range latest {
		f.keys[k] = struct{}{}
	}
}

// Load replays the log, newest record per key winning, returned in
// first-seen Seq order.
func (f *FileProvenance) Load() ([]ProvenanceRecord, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	latest, lines, err := f.scanLocked()
	if err != nil {
		return nil, err
	}
	f.lines = lines
	f.keys = make(map[string]struct{}, len(latest))
	out := make([]ProvenanceRecord, 0, len(latest))
	for k, rec := range latest {
		f.keys[k] = struct{}{}
		out = append(out, rec)
	}
	sortRecords(out)
	return out, nil
}

// Append writes one upsert record and flushes it.
func (f *FileProvenance) Append(rec ProvenanceRecord) error {
	return f.AppendBatch([]ProvenanceRecord{rec})
}

// AppendBatch writes several upsert records in one open/write/close
// cycle instead of reopening the log per record. When the append
// pushes the dead-line count past the compaction threshold, the log is
// rewritten as a snapshot before returning.
func (f *FileProvenance) AppendBatch(recs []ProvenanceRecord) error {
	var buf []byte
	for _, rec := range recs {
		if rec.Key == "" {
			return fmt.Errorf("append provenance: empty key")
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("append provenance: %w", err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	if len(buf) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.statLocked()
	file, err := os.OpenFile(f.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("append provenance: %w", err)
	}
	if _, err := file.Write(buf); err != nil {
		file.Close()
		return fmt.Errorf("append provenance: %w", err)
	}
	file.Close()
	if f.keys != nil {
		f.lines += len(recs)
		for _, rec := range recs {
			f.keys[rec.Key] = struct{}{}
		}
	}
	if f.keys != nil && f.threshold > 0 && f.lines-len(f.keys) > f.threshold {
		// A failed compaction is not an append failure: the records just
		// written are durably in the log either way. The log stays fat
		// and the next append retries; only the failure count surfaces.
		if err := f.compactLocked(); err != nil {
			f.compactErrors++
			f.metCompactErrors.Inc()
		}
	}
	return nil
}

// compactLocked rewrites the log as a snapshot: the latest record per
// key in Seq order, written to a temp file, fsynced, and renamed over
// the log. Caller holds f.mu.
func (f *FileProvenance) compactLocked() error {
	latest, _, err := f.scanLocked()
	if err != nil {
		return err
	}
	recs := make([]ProvenanceRecord, 0, len(latest))
	for _, rec := range latest {
		recs = append(recs, rec)
	}
	sortRecords(recs)
	var buf []byte
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	tmp := f.path + ".compact"
	file, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := file.Write(buf); err != nil {
		file.Close()
		os.Remove(tmp)
		return err
	}
	// Sync before rename: the rename must never become visible ahead of
	// the data it points to, or a crash window could surface an empty
	// snapshot in place of a healthy log.
	if err := file.Sync(); err != nil {
		file.Close()
		os.Remove(tmp)
		return err
	}
	if err := file.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, f.path); err != nil {
		os.Remove(tmp)
		return err
	}
	f.lines = len(recs)
	f.compactions++
	f.metCompactions.Inc()
	return nil
}

// sortRecords orders records by Seq (first-report order).
func sortRecords(recs []ProvenanceRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
}

// MemProvenance is an in-memory ProvenanceStore for tests and
// simulations that still want restart semantics (a new Exchange over the
// same MemProvenance models a hub reboot without touching disk).
type MemProvenance struct {
	mu   sync.Mutex
	recs map[string]ProvenanceRecord
}

var _ ProvenanceStore = (*MemProvenance)(nil)

// NewMemProvenance returns an empty in-memory store.
func NewMemProvenance() *MemProvenance {
	return &MemProvenance{recs: make(map[string]ProvenanceRecord)}
}

// Load returns the latest record per key in Seq order.
func (m *MemProvenance) Load() ([]ProvenanceRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ProvenanceRecord, 0, len(m.recs))
	for _, rec := range m.recs {
		out = append(out, rec)
	}
	sortRecords(out)
	return out, nil
}

// Append upserts one record.
func (m *MemProvenance) Append(rec ProvenanceRecord) error {
	return m.AppendBatch([]ProvenanceRecord{rec})
}

// AppendBatch upserts several records, all or none.
func (m *MemProvenance) AppendBatch(recs []ProvenanceRecord) error {
	for _, rec := range recs {
		if rec.Key == "" {
			return fmt.Errorf("append provenance: empty key")
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		m.recs[rec.Key] = rec
	}
	return nil
}
