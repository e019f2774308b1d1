package immunity

import (
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
// signature key or device key; Load returns the newest record per key.
// A hello costs one record, whatever the armed set's size.

// ProvenanceRecord is one signature's persisted fleet state, or — when
// Device is set — one device's delivery cursor.
type ProvenanceRecord = wire.ProvenanceRecord

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

// FileProvenance is a ProvenanceStore kept in one append-only file, in
// the wire codec (wire.AppendRecord, wire.DecodeLog):
//
//	wire.LogHeader          magic and format version
//	record, oldest first:
//	  u32 LE  n             payload length
//	  n bytes               the record's fields: Seq, Key, then the rest
//	  u32 LE  CRC-32C       of the payload
//
// Torn tail: a crash tears at most the last write, so the intact prefix
// ends at the first record whose length or CRC fails. Load cuts the file
// there before the store accepts an append; otherwise a record written
// after a crash would land behind the torn bytes, and the next load
// would drop it too. Load refuses what no crash produces: a file without
// the header (a JSON-lines log from before this format, say) or an
// intact record that does not decode.
//
// Compaction: each upsert of an existing key leaves a dead record. Once
// dead records outnumber live ones, the store writes a snapshot — the
// newest record per key, Seq order — to a temp file, fsyncs it and
// renames it over the log. The file stays within twice its live records,
// and a compaction rewrites fewer records than were appended since the
// last. A crash leaves the old log or the snapshot, never a mix; a stale
// temp file is overwritten next time.
//
// Appends encode into one buffer the store owns and reuses under its
// lock, so a steady-state append allocates nothing to encode. A buffer
// that grew past maxAppendBuf (a cluster rebind's batch, say) is dropped
// after its write rather than kept. Compaction encodes into its own.
type FileProvenance struct {
	mu   sync.Mutex
	path string
	// file is the log's O_APPEND handle. The first append opens it, and it
	// stays open until a compaction renames a snapshot over the log, a
	// write fails, or Close; the next append reopens it.
	file *os.File
	// keys is the log's live key set, records its record count (dead
	// ones included) and size its length in bytes. keys is nil until
	// the store has read the log, which it does before its first append.
	keys    map[string]struct{}
	records int
	size    int
	// buf is AppendBatch's reused encode buffer.
	buf []byte
	// metCompactions counts snapshot rewrites (a private counter unless
	// WithCompactionCounters gave one), and metCompactErrors counts failed
	// attempts (the log stays valid, just uncompacted; nil is a no-op).
	metCompactions   *metrics.Counter
	metCompactErrors *metrics.Counter
}

var _ ProvenanceStore = (*FileProvenance)(nil)

// maxAppendBuf caps the encode buffer a FileProvenance keeps between
// appends, by the rule wire.WriteFrame's pool follows.
const maxAppendBuf = 64 << 10

// FileProvenanceOption configures a FileProvenance.
type FileProvenanceOption func(*FileProvenance)

// WithCompactionCounters counts the store's compactions and
// compaction errors on registry counters, so a daemon surfaces them on
// /metrics next to the hub's persist errors. The compactions counter is
// the store's only count of them (Compactions reads it). Either counter
// may be nil: the store then counts compactions privately, and does not
// count errors.
func WithCompactionCounters(compactions, compactErrors *metrics.Counter) FileProvenanceOption {
	return func(f *FileProvenance) {
		f.metCompactions = compactions
		f.metCompactErrors = compactErrors
	}
}

// NewFileProvenance creates a store at path; the file is created on
// first append and a missing file loads as empty.
func NewFileProvenance(path string, opts ...FileProvenanceOption) *FileProvenance {
	f := &FileProvenance{path: path}
	for _, opt := range opts {
		opt(f)
	}
	if f.metCompactions == nil {
		f.metCompactions = new(metrics.Counter)
	}
	return f
}

// Path returns the backing file path.
func (f *FileProvenance) Path() string { return f.path }

// Compactions returns how many snapshot rewrites the store has done.
func (f *FileProvenance) Compactions() uint64 { return f.metCompactions.Value() }

// Load reads the log, cuts off a torn tail, and returns the newest
// record per key in first-seen Seq order.
func (f *FileProvenance) Load() ([]ProvenanceRecord, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.loadLocked()
}

// loadLocked is Load with f.mu held; it also resets the dead-record
// accounting to what it read.
func (f *FileProvenance) loadLocked() ([]ProvenanceRecord, error) {
	b, release, err := readLog(f.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("load provenance: %w", err)
	}
	live, records, intact, err := wire.DecodeLog(b)
	release() // DecodeLog copies what it returns (a record's strings share one copy): nothing aliases b
	if err != nil {
		return nil, fmt.Errorf("load provenance %s: %w", f.path, err)
	}
	if intact < len(b) {
		if err := os.Truncate(f.path, int64(intact)); err != nil {
			return nil, fmt.Errorf("load provenance: cut torn tail: %w", err)
		}
	}
	f.keys = make(map[string]struct{}, len(live))
	for _, rec := range live {
		f.keys[rec.Key] = struct{}{}
	}
	f.records, f.size = records, intact
	return live, nil
}

// Append writes one upsert record.
func (f *FileProvenance) Append(rec ProvenanceRecord) error {
	return f.AppendBatch([]ProvenanceRecord{rec})
}

// AppendBatch writes several upsert records in one write. When the
// append lets dead records outnumber live ones, the log is rewritten as
// a snapshot before returning.
func (f *FileProvenance) AppendBatch(recs []ProvenanceRecord) error {
	if len(recs) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.keys == nil {
		if _, err := f.loadLocked(); err != nil {
			return fmt.Errorf("append provenance: %w", err)
		}
	}
	buf := f.buf[:0]
	if f.size == 0 {
		buf = append(buf, wire.LogHeader...)
	}
	for _, rec := range recs {
		if rec.Key == "" {
			return fmt.Errorf("append provenance: empty key")
		}
		buf = wire.AppendRecord(buf, rec)
	}
	if cap(buf) <= maxAppendBuf {
		f.buf = buf
	}
	if f.file == nil {
		file, err := os.OpenFile(f.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("append provenance: %w", err)
		}
		f.file = file
	}
	if _, err := f.file.Write(buf); err != nil {
		f.closeFile()
		f.keys = nil // a short write may have torn the tail: reread before the next append
		return fmt.Errorf("append provenance: %w", err)
	}
	f.size += len(buf)
	f.records += len(recs)
	for _, rec := range recs {
		f.keys[rec.Key] = struct{}{}
	}
	if f.records-len(f.keys) > len(f.keys) {
		// A failed compaction is not an append failure: the records just
		// written are durably in the log either way. The log stays fat
		// and the next append retries; only the failure count surfaces.
		if err := f.compactLocked(); err != nil {
			f.metCompactErrors.Inc()
		}
	}
	return nil
}

// compactLocked rewrites the log as a snapshot: the latest record per
// key in Seq order, written to a temp file, fsynced, and renamed over
// the log. Caller holds f.mu.
func (f *FileProvenance) compactLocked() error {
	live, err := f.loadLocked()
	if err != nil {
		return err
	}
	buf := []byte(wire.LogHeader)
	for _, rec := range live {
		buf = wire.AppendRecord(buf, rec)
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
	f.closeFile() // it holds the replaced log
	f.records, f.size = len(live), len(buf)
	f.metCompactions.Inc()
	return nil
}

// Close releases the log's file handle; a later append reopens it.
// Close is idempotent.
func (f *FileProvenance) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closeFile()
}

// closeFile closes the append handle, if open. Caller holds f.mu.
func (f *FileProvenance) closeFile() error {
	if f.file == nil {
		return nil
	}
	err := f.file.Close()
	f.file = nil
	return err
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
