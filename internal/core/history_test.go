package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func sampleSigs() []*Signature {
	return []*Signature{
		{
			Kind: DeadlockSig,
			Pairs: []SigPair{
				{Outer: stackOf(fr("a.B", "m", 1)), Inner: stackOf(fr("a.B", "m", 1), fr("x.Y", "run", 7))},
				{Outer: stackOf(fr("c.D", "n", 2)), Inner: stackOf(fr("c.D", "n", 2))},
			},
		},
		{
			Kind: StarvationSig,
			Pairs: []SigPair{
				{Outer: stackOf(fr("e.F", "o", 3)), Inner: stackOf(fr("e.F", "o", 3))},
			},
		},
	}
}

func TestHistoryEncodeDecodeRoundTrip(t *testing.T) {
	sigs := sampleSigs()
	var buf bytes.Buffer
	if err := EncodeHistory(&buf, sigs); err != nil {
		t.Fatalf("EncodeHistory: %v", err)
	}
	got, skipped, err := DecodeHistory(&buf, false)
	if err != nil {
		t.Fatalf("DecodeHistory: %v", err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0", skipped)
	}
	if len(got) != len(sigs) {
		t.Fatalf("decoded %d signatures, want %d", len(got), len(sigs))
	}
	for i := range sigs {
		if got[i].Key() != sigs[i].Key() {
			t.Errorf("sig %d key = %q, want %q", i, got[i].Key(), sigs[i].Key())
		}
		for j := range sigs[i].Pairs {
			if !got[i].Pairs[j].Inner.Equal(sigs[i].Pairs[j].Inner) {
				t.Errorf("sig %d pair %d inner mismatch", i, j)
			}
		}
	}
}

func TestDecodeHistoryEmpty(t *testing.T) {
	got, skipped, err := DecodeHistory(strings.NewReader(""), false)
	if err != nil || skipped != 0 || len(got) != 0 {
		t.Errorf("empty input: got %v, %d, %v; want empty history", got, skipped, err)
	}
}

func TestDecodeHistoryBadHeader(t *testing.T) {
	_, _, err := DecodeHistory(strings.NewReader("#not-a-history\n"), false)
	if !errors.Is(err, ErrHistoryFormat) {
		t.Errorf("bad header: err = %v, want ErrHistoryFormat", err)
	}
}

func TestDecodeHistoryCorruptBlocks(t *testing.T) {
	corrupt := []string{
		historyHeader + "\nsig deadlock\npair outer=a.B.m:1 inner=a.B.m:1\n", // truncated: no end
		historyHeader + "\nsig bogus\nend\n",                                 // unknown kind
		historyHeader + "\nsig deadlock\nend\n",                              // too few pairs
		historyHeader + "\nsig deadlock\npair outer=??? inner=a.B.m:1\npair outer=a.B.m:1 inner=a.B.m:1\nend\n",
		historyHeader + "\ngarbage line\n",
	}
	for i, in := range corrupt {
		if _, _, err := DecodeHistory(strings.NewReader(in), false); !errors.Is(err, ErrHistoryFormat) {
			t.Errorf("case %d strict: err = %v, want ErrHistoryFormat", i, err)
		}
	}
}

// TestFileHistoryStrictLoadSkipsTornTail: whatever a crash leaves of the
// final write — a block with no "end", a torn line, a torn header — is
// skipped by a strict load too, which keeps the intact prefix.
func TestFileHistoryStrictLoadSkipsTornTail(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeHistory(&buf, sampleSigs()[:1]); err != nil {
		t.Fatal(err)
	}
	intact := buf.String()
	path := filepath.Join(t.TempDir(), "torn.hist")
	for _, row := range []struct {
		in   string
		sigs int
	}{
		{intact + "sig deadlock\npair outer=a.B.m:1 inner=a.B.m:1\n", 1},
		{intact + "sig deadlock\npair outer=a.B.m:1 inn", 1},
		{intact + "sig deadlock\npair outer=a.B.m:1 inner=a.B.m:1\npair outer=c.D.n:2 inner=c.D.n:2\nen", 1},
		{intact + "si", 1},
		{intact[:len(intact)-1], 1}, // the last "end" without its newline
		{historyHeader + "\nsig starvation\n", 0},
		{historyHeader[:9], 0},
	} {
		if err := os.WriteFile(path, []byte(row.in), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := NewFileHistory(path).Load()
		if err != nil || len(got) != row.sigs {
			t.Errorf("%q: loaded %d sigs, err %v; want %d, nil", row.in, len(got), err, row.sigs)
		}
	}
}

func TestDecodeHistoryLenientSkipsTornTail(t *testing.T) {
	// A valid signature followed by a torn (crash-truncated) block: lenient
	// load must keep the prefix — the phone must boot with the antibodies
	// it has.
	var buf bytes.Buffer
	if err := EncodeHistory(&buf, sampleSigs()[:1]); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("sig deadlock\npair outer=a.B.m:1 inner=a.B.m:1\n") // torn
	got, skipped, err := DecodeHistory(&buf, true)
	if err != nil {
		t.Fatalf("lenient decode: %v", err)
	}
	if len(got) != 1 || skipped != 1 {
		t.Errorf("got %d sigs, %d skipped; want 1 and 1", len(got), skipped)
	}
}

func TestFileHistoryMissingFileIsEmpty(t *testing.T) {
	fh := NewFileHistory(filepath.Join(t.TempDir(), "none.hist"))
	sigs, err := fh.Load()
	if err != nil || len(sigs) != 0 {
		t.Errorf("missing file: got %v, %v; want empty, nil", sigs, err)
	}
}

func TestFileHistoryAppendLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dimmunix.hist")
	fh := NewFileHistory(path)
	for _, s := range sampleSigs() {
		if err := fh.Append(s); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, err := fh.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d sigs, want 2", len(got))
	}
	// The header must appear exactly once even across multiple appends.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), historyHeader); n != 1 {
		t.Errorf("header appears %d times, want 1", n)
	}
}

func TestFileHistoryAppendInvalid(t *testing.T) {
	fh := NewFileHistory(filepath.Join(t.TempDir(), "x.hist"))
	if err := fh.Append(&Signature{Kind: DeadlockSig}); err == nil {
		t.Error("appending an invalid signature must fail")
	}
}

func TestFileHistoryLenientOption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.hist")
	content := historyHeader + "\nsig deadlock\npair outer=corrupt\nend\nsig deadlock\npair outer=a.B.m:1 inner=a.B.m:1\npair outer=c.D.n:2 inner=c.D.n:2\nend\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileHistory(path).Load(); err == nil {
		t.Error("strict load of a file corrupt before its last block must fail")
	}
	sigs, err := NewFileHistory(path, WithLenientLoad()).Load()
	if err != nil {
		t.Fatalf("lenient load: %v", err)
	}
	if len(sigs) != 1 {
		t.Errorf("lenient load got %d sigs, want 1", len(sigs))
	}
}

func TestMemHistoryIsolation(t *testing.T) {
	m := NewMemHistory()
	orig := sampleSigs()[0]
	if err := m.Append(orig); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	got[0].Pairs[0].Outer[0].Line = 424242
	reloaded, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if reloaded[0].Pairs[0].Outer[0].Line == 424242 {
		t.Error("MemHistory must not alias loaded signatures")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

// genSignature builds a random valid signature for the round-trip property.
func genSignature(r *rand.Rand) *Signature {
	kind := DeadlockSig
	minPairs := 2
	if r.Intn(2) == 0 {
		kind = StarvationSig
		minPairs = 1
	}
	n := minPairs + r.Intn(3)
	sig := &Signature{Kind: kind}
	for i := 0; i < n; i++ {
		outer := CallStack{genFrame(r)}
		innerDepth := 1 + r.Intn(4)
		inner := make(CallStack, innerDepth)
		for j := range inner {
			inner[j] = genFrame(r)
		}
		sig.Pairs = append(sig.Pairs, SigPair{Outer: outer, Inner: inner})
	}
	return sig
}

func TestHistoryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		sigs := make([]*Signature, n)
		for i := range sigs {
			sigs[i] = genSignature(r)
		}
		var buf bytes.Buffer
		if err := EncodeHistory(&buf, sigs); err != nil {
			return false
		}
		got, skipped, err := DecodeHistory(&buf, false)
		if err != nil || skipped != 0 || len(got) != n {
			return false
		}
		for i := range sigs {
			if got[i].Key() != sigs[i].Key() || got[i].Kind != sigs[i].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSignatureKeyOrderIndependent(t *testing.T) {
	a := sigOf(DeadlockSig, fr("a.B", "m", 1), fr("c.D", "n", 2))
	b := sigOf(DeadlockSig, fr("c.D", "n", 2), fr("a.B", "m", 1))
	if a.Key() != b.Key() {
		t.Error("signature key must not depend on pair order")
	}
	c := sigOf(StarvationSig, fr("a.B", "m", 1), fr("c.D", "n", 2))
	if a.Key() == c.Key() {
		t.Error("signature key must include the kind")
	}
}

func TestSignatureValidate(t *testing.T) {
	if err := sigOf(DeadlockSig, fr("a.B", "m", 1)).Validate(); err == nil {
		t.Error("1-pair deadlock signature must not validate")
	}
	if err := sigOf(StarvationSig, fr("a.B", "m", 1)).Validate(); err != nil {
		t.Errorf("1-pair starvation signature must validate: %v", err)
	}
	if err := (&Signature{Kind: SigKind(99), Pairs: []SigPair{{Outer: stackOf(fr("a.B", "m", 1)), Inner: stackOf(fr("a.B", "m", 1))}}}).Validate(); err == nil {
		t.Error("unknown kind must not validate")
	}
}

// FuzzHistoryParse fuzzes the persistent history file parser. For any
// input (corrupt, truncated, duplicated, binary garbage) the parser must
// not panic; in lenient mode it must always produce a usable (possibly
// empty) history — the phone must keep booting even off a torn file — and
// everything it accepts must re-encode and re-parse to the same
// signatures (round-trip stability, the property the persistent store
// depends on across reboots).
func FuzzHistoryParse(f *testing.F) {
	var valid strings.Builder
	if err := EncodeHistory(&valid, sampleSigs()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add("")
	f.Add("#dimmunix-history v1\n")
	// Truncated mid-block (torn final write).
	f.Add("#dimmunix-history v1\nsig deadlock\npair outer=A.b:1 inner=A.b:1\n")
	// Duplicate signatures back to back.
	f.Add("#dimmunix-history v1\n" +
		"sig deadlock\npair outer=A.b:1 inner=A.b:1\npair outer=C.d:2 inner=C.d:2\nend\n" +
		"sig deadlock\npair outer=A.b:1 inner=A.b:1\npair outer=C.d:2 inner=C.d:2\nend\n")
	// Wrong header, stray tokens, malformed pairs, bad kinds.
	f.Add("#dimmunix-history v2\nsig deadlock\nend\n")
	f.Add("#dimmunix-history v1\ngarbage line\nsig starvation\npair outer=A.b:1 inner=A.b:1\nend\n")
	f.Add("#dimmunix-history v1\nsig deadlock\npair outer= inner=\nend\n")
	f.Add("#dimmunix-history v1\nsig wat\npair outer=A.b:1 inner=A.b:1\nend\n")
	f.Add("#dimmunix-history v1\nsig deadlock\npair outer=A.b:one inner=A.b:1\nend\nsig\n")
	f.Add("\x00\xff\xfe#dimmunix-history v1\n")

	f.Fuzz(func(t *testing.T, input string) {
		// Strict mode: must not panic; error or signature list both fine.
		strictSigs, _, strictErr := DecodeHistory(strings.NewReader(input), false)
		// Lenient mode: must not panic and must never fail on any input
		// short of scanner-level errors (which a string reader cannot
		// produce for inputs under the scanner's buffer cap).
		lenientSigs, skipped, lenientErr := DecodeHistory(strings.NewReader(input), true)
		if len(input) < 512*1024 {
			if lenientErr != nil && !errors.Is(lenientErr, ErrHistoryFormat) {
				t.Fatalf("lenient decode failed unexpectedly: %v", lenientErr)
			}
		}
		if strictErr == nil && skipped == 0 && len(strictSigs) != len(lenientSigs) {
			t.Fatalf("strict accepted %d sigs, lenient %d with nothing skipped",
				len(strictSigs), len(lenientSigs))
		}

		// Everything accepted must validate and round-trip.
		for _, sigs := range [][]*Signature{strictSigs, lenientSigs} {
			if strictErr != nil && len(sigs) == 0 {
				continue
			}
			for i, s := range sigs {
				if err := s.Validate(); err != nil {
					t.Fatalf("accepted signature %d does not validate: %v", i, err)
				}
			}
			var reenc strings.Builder
			if err := EncodeHistory(&reenc, sigs); err != nil {
				t.Fatalf("re-encode of accepted history failed: %v", err)
			}
			again, reSkipped, err := DecodeHistory(strings.NewReader(reenc.String()), false)
			if err != nil || reSkipped != 0 {
				t.Fatalf("re-decode failed: err=%v skipped=%d", err, reSkipped)
			}
			if len(again) != len(sigs) {
				t.Fatalf("round trip lost signatures: %d -> %d", len(sigs), len(again))
			}
			for i := range sigs {
				if sigs[i].Key() != again[i].Key() {
					t.Fatalf("signature %d key changed across round trip:\n%s\n%s",
						i, sigs[i].Key(), again[i].Key())
				}
			}
		}
	})
}

// TestFileHistoryTornTailThenAppend: an append after a crash tore the
// previous one must not be swallowed by the torn block. Both load modes
// then return the intact blocks and the new one.
func TestFileHistoryTornTailThenAppend(t *testing.T) {
	sigs := append(sampleSigs(), raceSig(0, 1))
	for _, lenient := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "torn.hist")
		fh := NewFileHistory(path)
		for _, s := range sigs[:2] {
			if err := fh.Append(s); err != nil {
				t.Fatal(err)
			}
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-10); err != nil { // mid second block
			t.Fatal(err)
		}
		if err := fh.Append(sigs[2]); err != nil {
			t.Fatal(err)
		}
		var opts []FileHistoryOption
		if lenient {
			opts = append(opts, WithLenientLoad())
		}
		got, err := NewFileHistory(path, opts...).Load()
		if err != nil {
			t.Fatalf("lenient=%v: load after the torn append: %v", lenient, err)
		}
		if len(got) != 2 || got[0].Key() != sigs[0].Key() || got[1].Key() != sigs[2].Key() {
			t.Fatalf("lenient=%v: loaded %d signatures, want the intact first and the appended one", lenient, len(got))
		}
	}
}

// TestFileHistoryRefusesForeignFile: Append cuts torn tails, so it must
// never take a file that is not a history for one.
func TestFileHistoryRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	const foreign = "not a history\nend\n"
	if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewFileHistory(path).Append(sampleSigs()[0]); !errors.Is(err, ErrHistoryFormat) {
		t.Fatalf("append to a foreign file: err = %v, want ErrHistoryFormat", err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != foreign {
		t.Fatalf("foreign file changed to %q", raw)
	}
}

// randomSig builds a valid signature of either kind from rng.
func randomSig(rng *rand.Rand) *Signature {
	kind, pairs := DeadlockSig, 2+rng.Intn(2)
	if rng.Intn(2) == 0 {
		kind, pairs = StarvationSig, 1+rng.Intn(2)
	}
	sig := &Signature{Kind: kind}
	for i := 0; i < pairs; i++ {
		var outer CallStack
		for d := 0; d <= rng.Intn(3); d++ {
			outer = append(outer, fr(fmt.Sprintf("c%d.K", rng.Intn(100)), "m", 1+rng.Intn(999)))
		}
		sig.Pairs = append(sig.Pairs, SigPair{Outer: outer, Inner: outer})
	}
	return sig
}

// FuzzHistoryTornAppend cuts an encoded history at every offset — every
// way a crash can tear its final write — appends one signature, and
// requires both load modes to return exactly the blocks the cut left
// whole, followed by the new one.
func FuzzHistoryTornAppend(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(7), uint8(0))
	f.Add(int64(2011), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		old := make([]*Signature, n%5)
		for i := range old {
			old[i] = randomSig(rng)
		}
		added := randomSig(rng)
		var enc bytes.Buffer
		if err := EncodeHistory(&enc, old); err != nil {
			t.Fatal(err)
		}
		// ends[i] is the offset just past block i's "end", before its
		// newline: a cut at or past it leaves the block whole.
		ends := make([]int, len(old))
		off := len(historyHeader) + 1
		for i, s := range old {
			var b bytes.Buffer
			if err := encodeSignature(&b, s); err != nil {
				t.Fatal(err)
			}
			off += b.Len()
			ends[i] = off - 1
		}
		path := filepath.Join(t.TempDir(), "h")
		for cut := 0; cut <= enc.Len(); cut++ {
			if err := os.WriteFile(path, enc.Bytes()[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := NewFileHistory(path).Append(added); err != nil {
				t.Fatalf("cut %d: append: %v", cut, err)
			}
			var want []string
			for i, end := range ends {
				if cut >= end {
					want = append(want, old[i].Key())
				}
			}
			want = append(want, added.Key())
			for _, opts := range [][]FileHistoryOption{nil, {WithLenientLoad()}} {
				got, err := NewFileHistory(path, opts...).Load()
				if err != nil {
					t.Fatalf("cut %d (lenient=%v): load: %v", cut, opts != nil, err)
				}
				keys := make([]string, len(got))
				for i, s := range got {
					keys[i] = s.Key()
				}
				if strings.Join(keys, "|") != strings.Join(want, "|") {
					t.Fatalf("cut %d (lenient=%v): loaded %q, want %q", cut, opts != nil, keys, want)
				}
			}
		}
	})
}
