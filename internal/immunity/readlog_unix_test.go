//go:build unix

package immunity

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// TestFileProvenanceLoadMapsTheLog: Load maps the log instead of copying
// it onto the heap, so a reload allocates about what it keeps, not the
// file. A log whose records are nineteen in twenty dead loads in less
// than its own size; a load through os.ReadFile allocates more.
func TestFileProvenanceLoadMapsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.prov")
	b := []byte(wire.LogHeader)
	var all []ProvenanceRecord
	for v := 0; v < 20; v++ {
		for k := 1; k <= 200; k++ {
			rec := provRec(fmt.Sprint("k", k), k, v)
			b = wire.AppendRecord(b, rec)
			all = append(all, rec)
		}
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	store := NewFileProvenance(path)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, err := store.Load()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, lastWins(all)) {
		t.Fatalf("load = %d records, want the newest of each of 200 keys", len(recs))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(b)) {
		t.Fatalf("loading a %d-byte log allocated %d bytes, want less than the file", len(b), got)
	}
}
