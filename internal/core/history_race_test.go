package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// raceSig builds a distinct valid deadlock signature per (writer, seq).
func raceSig(writer, seq int) *Signature {
	a := Frame{Class: fmt.Sprintf("com.race.W%d", writer), Method: "outer", Line: seq}
	b := Frame{Class: fmt.Sprintf("com.race.W%d", writer), Method: "inner", Line: seq + 100000}
	return &Signature{
		Kind: DeadlockSig,
		Pairs: []SigPair{
			{Outer: CallStack{a}, Inner: CallStack{a}},
			{Outer: CallStack{b}, Inner: CallStack{b}},
		},
	}
}

// TestFileHistoryConcurrentHandles is the regression test for the
// shared-history write race: several FileHistory handles on the same path
// (as separate platform processes would hold) appending concurrently must
// never tear sig..end blocks or write a second header. Before the advisory
// file lock, two handles could both observe an empty file and both emit
// the header, corrupting the file for strict loading.
func TestFileHistoryConcurrentHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.hist")
	const writers = 8
	const perWriter = 32

	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fh := NewFileHistory(path) // one handle per simulated process
			<-start
			for i := 0; i < perWriter; i++ {
				if err := fh.Append(raceSig(w, i)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("append: %v", err)
	}

	// Strict load: any torn block or duplicate header fails the decode.
	sigs, err := NewFileHistory(path).Load()
	if err != nil {
		t.Fatalf("strict load after concurrent appends: %v", err)
	}
	if len(sigs) != writers*perWriter {
		t.Fatalf("loaded %d signatures, want %d", len(sigs), writers*perWriter)
	}
	keys := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		if keys[s.Key()] {
			t.Fatalf("duplicate signature %s", s.Key())
		}
		keys[s.Key()] = true
	}
}

// TestFileHistoryLockedLoadDuringAppend checks reader/writer coexistence:
// loads interleaved with appends from other handles always see a
// well-formed prefix.
func TestFileHistoryLockedLoadDuringAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.hist")
	const n = 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		fh := NewFileHistory(path)
		for i := 0; i < n; i++ {
			if err := fh.Append(raceSig(0, i)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	reader := NewFileHistory(path)
	for {
		sigs, err := reader.Load()
		if err != nil && !errors.Is(err, ErrHistoryFormat) {
			t.Fatalf("load: %v", err)
		}
		if err != nil {
			t.Fatalf("torn read: %v", err)
		}
		select {
		case <-done:
			if len(sigs) > n {
				t.Fatalf("read %d signatures, max %d", len(sigs), n)
			}
			return
		default:
		}
	}
}

// TestFileHistoryConcurrentAppendsAfterTornTail: handles appending at
// once to a file whose last write was torn cut the tail exactly once,
// under the lock: no appended block is cut or swallowed.
func TestFileHistoryConcurrentAppendsAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.hist")
	intact := raceSig(99, 0)
	if err := NewFileHistory(path).Append(intact); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("sig deadlock\npair outer=torn"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	const writers, perWriter = 4, 8
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fh := NewFileHistory(path)
			for i := 0; i < perWriter; i++ {
				if err := fh.Append(raceSig(w, i)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("append: %v", err)
	}
	sigs, err := NewFileHistory(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 1+writers*perWriter || sigs[0].Key() != intact.Key() {
		t.Fatalf("loaded %d signatures, want the intact one first and all %d appended", len(sigs), writers*perWriter)
	}
}
