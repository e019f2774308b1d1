package core

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// The persistent deadlock history is a line-oriented text file:
//
//	#dimmunix-history v1
//	sig deadlock
//	pair outer=Class.m:12 inner=Class.m:12;Caller.run:3
//	pair outer=Other.n:7 inner=Other.n:7;Caller.run:9
//	end
//	sig starvation
//	...
//	end
//
// Outer and inner stacks are ';'-joined frames, innermost first. The format
// is append-friendly: each detection appends one complete sig..end block
// and flushes, so a crash can at worst truncate the final block. A
// FileHistory treats what follows the last "end" line as that torn tail
// (intactLen): Load skips it in either mode, and the next Append cuts it
// off before writing, so a torn block can never swallow the next one.

// historyHeader is the first line of every history file.
const historyHeader = "#dimmunix-history v1"

var (
	// ErrHistoryFormat reports a malformed history file.
	ErrHistoryFormat = errors.New("malformed dimmunix history")
)

// EncodeHistory writes the signatures to w in the history file format.
func EncodeHistory(w io.Writer, sigs []*Signature) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, historyHeader); err != nil {
		return fmt.Errorf("encode history: %w", err)
	}
	for i, s := range sigs {
		if err := encodeSignature(bw, s); err != nil {
			return fmt.Errorf("encode history: signature %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("encode history: %w", err)
	}
	return nil
}

// encodeSignature writes one sig..end block.
func encodeSignature(w io.Writer, s *Signature) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "sig %s\n", s.Kind); err != nil {
		return err
	}
	for _, p := range s.Pairs {
		if _, err := fmt.Fprintf(w, "pair outer=%s inner=%s\n", p.Outer.Key(), p.Inner.Key()); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "end\n"); err != nil {
		return err
	}
	return nil
}

// DecodeHistory parses a history file. In strict mode any malformed block
// aborts with an error wrapping ErrHistoryFormat; in lenient mode malformed
// blocks are skipped and counted, so a history truncated by a crash still
// yields its intact prefix — the phone must keep booting even if the last
// write was torn.
func DecodeHistory(r io.Reader, lenient bool) (sigs []*Signature, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0

	readLine := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			return line, true
		}
		return "", false
	}

	fail := func(format string, args ...any) error {
		msg := fmt.Sprintf(format, args...)
		return fmt.Errorf("%w: line %d: %s", ErrHistoryFormat, lineNo, msg)
	}

	header, ok := readLine()
	if !ok {
		// An empty file is an empty history.
		if scanErr := sc.Err(); scanErr != nil {
			return nil, 0, fmt.Errorf("decode history: %w", scanErr)
		}
		return nil, 0, nil
	}
	if header != historyHeader {
		return nil, 0, fail("expected header %q, got %q", historyHeader, header)
	}

	for {
		line, ok := readLine()
		if !ok {
			break
		}
		kindName, found := strings.CutPrefix(line, "sig ")
		if !found {
			if lenient {
				skipped++
				continue
			}
			return nil, skipped, fail("expected 'sig <kind>', got %q", line)
		}
		sig, blockErr := decodeSigBlock(kindName, readLine)
		if blockErr != nil {
			if lenient {
				skipped++
				continue
			}
			return nil, skipped, fmt.Errorf("%w: line %d: %s", ErrHistoryFormat, lineNo, blockErr)
		}
		sigs = append(sigs, sig)
	}
	if scanErr := sc.Err(); scanErr != nil {
		return nil, skipped, fmt.Errorf("decode history: %w", scanErr)
	}
	return sigs, skipped, nil
}

// decodeSigBlock parses the pair lines of one signature until its "end".
func decodeSigBlock(kindName string, readLine func() (string, bool)) (*Signature, error) {
	kind, err := ParseSigKind(strings.TrimSpace(kindName))
	if err != nil {
		return nil, err
	}
	sig := &Signature{Kind: kind}
	for {
		line, ok := readLine()
		if !ok {
			return nil, errors.New("unexpected EOF inside signature block")
		}
		if line == "end" {
			break
		}
		rest, found := strings.CutPrefix(line, "pair ")
		if !found {
			return nil, fmt.Errorf("expected 'pair' or 'end', got %q", line)
		}
		pair, pairErr := decodePair(rest)
		if pairErr != nil {
			return nil, pairErr
		}
		sig.Pairs = append(sig.Pairs, pair)
	}
	if err := ValidateShape(sig.Kind, len(sig.Pairs)); err != nil {
		return nil, err
	}
	return sig, nil
}

// decodePair parses "outer=<stack> inner=<stack>".
func decodePair(s string) (SigPair, error) {
	outerPart, innerPart, found := strings.Cut(s, " ")
	if !found {
		return SigPair{}, fmt.Errorf("pair %q: missing inner field", s)
	}
	outerKey, ok := strings.CutPrefix(outerPart, "outer=")
	if !ok {
		return SigPair{}, fmt.Errorf("pair %q: missing outer= field", s)
	}
	innerKey, ok := strings.CutPrefix(strings.TrimSpace(innerPart), "inner=")
	if !ok {
		return SigPair{}, fmt.Errorf("pair %q: missing inner= field", s)
	}
	outer, err := ParseCallStack(outerKey)
	if err != nil {
		return SigPair{}, fmt.Errorf("pair outer: %w", err)
	}
	inner, err := ParseCallStack(innerKey)
	if err != nil {
		return SigPair{}, fmt.Errorf("pair inner: %w", err)
	}
	return SigPair{Outer: outer, Inner: inner}, nil
}

// HistoryStore abstracts the persistent deadlock history. A store is shared
// by all processes of a platform: each process loads the full history at
// fork time (initDimmunix) and appends newly discovered signatures.
// Implementations must be safe for concurrent use.
type HistoryStore interface {
	// Load returns all signatures currently in the store.
	Load() ([]*Signature, error)
	// Append durably adds one signature to the store.
	Append(sig *Signature) error
}

// FileHistory is a HistoryStore backed by a file on disk, the equivalent of
// the paper's persistent history that survives phone reboots. Appends are
// flushed to the file before returning. Appends and loads take an
// advisory file lock (on unix), so several handles — including handles in
// different OS processes — can share one history file without tearing
// sig..end blocks or duplicating the header.
type FileHistory struct {
	mu      sync.Mutex
	path    string
	lenient bool
}

var _ HistoryStore = (*FileHistory)(nil)

// FileHistoryOption configures a FileHistory.
type FileHistoryOption func(*FileHistory)

// WithLenientLoad makes Load skip malformed blocks instead of failing.
func WithLenientLoad() FileHistoryOption {
	return func(f *FileHistory) { f.lenient = true }
}

// NewFileHistory creates a store at path. The file is created on first
// append; a missing file loads as an empty history.
func NewFileHistory(path string, opts ...FileHistoryOption) *FileHistory {
	f := &FileHistory{path: path}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// Path returns the backing file path.
func (f *FileHistory) Path() string { return f.path }

// Load reads all signatures from the backing file, short of a torn tail
// left by a crash; corruption before it fails a strict load.
func (f *FileHistory) Load() ([]*Signature, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	file, err := os.Open(f.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("load history: %w", err)
	}
	defer file.Close()
	if err := lockFile(file, false); err != nil {
		return nil, fmt.Errorf("load history: lock: %w", err)
	}
	defer unlockFile(file)
	data, err := io.ReadAll(file)
	if err != nil {
		return nil, fmt.Errorf("load history: %w", err)
	}
	keep, err := intactLen(data)
	if err != nil {
		return nil, fmt.Errorf("load history %s: %w", f.path, err)
	}
	sigs, _, err := DecodeHistory(bytes.NewReader(data[:keep]), f.lenient)
	if err != nil {
		return nil, fmt.Errorf("load history %s: %w", f.path, err)
	}
	return sigs, nil
}

// Append durably adds one signature, creating the file with its header on
// first use. A torn tail left by an earlier crash is cut off first; a file
// that is not a history is refused.
func (f *FileHistory) Append(sig *Signature) error {
	if err := sig.Validate(); err != nil {
		return fmt.Errorf("append history: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	file, err := os.OpenFile(f.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("append history: %w", err)
	}
	defer file.Close()
	// The advisory lock serializes appends across handles and processes;
	// finding the intact prefix must happen under it, or two writers can
	// both see an empty file and emit duplicate headers, or one can cut
	// the other's fresh block as a torn tail.
	if err := lockFile(file, true); err != nil {
		return fmt.Errorf("append history: lock: %w", err)
	}
	defer unlockFile(file)
	data, err := io.ReadAll(file)
	if err != nil {
		return fmt.Errorf("append history: %w", err)
	}
	keep, err := intactLen(data)
	if err != nil {
		return fmt.Errorf("append history %s: %w", f.path, err)
	}
	if keep < len(data) {
		if err := file.Truncate(int64(keep)); err != nil {
			return fmt.Errorf("append history: cut torn tail: %w", err)
		}
	}
	var buf strings.Builder
	switch {
	case keep == 0:
		buf.WriteString(historyHeader)
		buf.WriteByte('\n')
	case data[keep-1] != '\n':
		buf.WriteByte('\n') // the last "end" was torn off its newline
	}
	if err := encodeSignature(&buf, sig); err != nil {
		return fmt.Errorf("append history: %w", err)
	}
	if _, err := io.WriteString(file, buf.String()); err != nil {
		return fmt.Errorf("append history: %w", err)
	}
	return nil
}

// intactLen returns how much of a history file precedes its torn tail:
// everything through the last "end" line, or through the header line
// while no block is complete (0 for an empty file or a header torn
// short). Lines are read as DecodeHistory reads them. A first line that
// is neither the header nor a torn prefix of it is not a history.
func intactLen(data []byte) (int, error) {
	keep, headed := 0, false
	for off := 0; off < len(data); {
		next := len(data)
		if i := bytes.IndexByte(data[off:], '\n'); i >= 0 {
			next = off + i + 1
		}
		line := string(bytes.TrimSpace(data[off:next]))
		off = next
		switch {
		case line == "":
		case headed:
			if line == "end" {
				keep = next
			}
		case line == historyHeader:
			headed, keep = true, next
		case next < len(data) || !strings.HasPrefix(historyHeader, line):
			return 0, fmt.Errorf("%w: not a history file", ErrHistoryFormat)
		}
	}
	return keep, nil
}

// MemHistory is an in-memory HistoryStore. It serves tests and lets several
// simulated processes within one OS process share a history the way phone
// processes share the history file.
type MemHistory struct {
	mu   sync.Mutex
	sigs []*Signature
}

var _ HistoryStore = (*MemHistory)(nil)

// NewMemHistory returns an empty in-memory store.
func NewMemHistory() *MemHistory { return &MemHistory{} }

// Load returns copies of the stored signatures.
func (m *MemHistory) Load() ([]*Signature, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Signature, len(m.sigs))
	for i, s := range m.sigs {
		out[i] = &Signature{Kind: s.Kind, Pairs: ClonePairs(s.Pairs)}
	}
	return out, nil
}

// Append stores a deep copy of sig.
func (m *MemHistory) Append(sig *Signature) error {
	if err := sig.Validate(); err != nil {
		return fmt.Errorf("append history: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sigs = append(m.sigs, &Signature{Kind: sig.Kind, Pairs: ClonePairs(sig.Pairs)})
	return nil
}

// Len returns the number of stored signatures.
func (m *MemHistory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sigs)
}
