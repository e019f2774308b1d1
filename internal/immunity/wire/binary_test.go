package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// binaryFixtures is messageFixtures plus the edge shapes it does not
// cover (nil vs empty collections, negative ints, empty strings).
func binaryFixtures() []Message {
	ws := FromCore(testSig())
	return append(messageFixtures(),
		Message{V: Version, Type: TypeReport, Report: &Report{Sigs: []Signature{}}},
		Message{V: Version, Type: TypeDelta, Delta: &Delta{Epoch: 1<<63 + 9, Sigs: nil}},
		Message{V: -2, Type: TypeConfirm, Confirm: &Confirm{Key: "", Confirmations: -7}},
		Message{V: Version, Type: TypeHello,
			Hello: &Hello{Device: "d", Epochs: map[string]uint64{"g1": 3, "g2": 0}}},
		Message{V: Version, Type: TypeStatus, Status: &Status{
			Devices:    []string{},
			Provenance: []SigStatus{{Key: "k", Kind: "deadlock", ConfirmedBy: nil}},
			Cluster:    &ClusterStatus{Members: []string{"a"}, Owned: -1}}},
		Message{V: Version, Type: TypeArmBroadcast,
			Arm: &ArmBroadcast{Owner: "hub-a", Seq: 1, Sig: ws}},
	)
}

// TestBinaryRoundTrip: every message shape survives the binary codec
// exactly, including the nil/empty collection distinction.
func TestBinaryRoundTrip(t *testing.T) {
	for _, m := range binaryFixtures() {
		b, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("encode %s: %v", m.Type, err)
		}
		got, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("decode %s: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("binary round trip %s:\n got %+v\nwant %+v", m.Type, got, m)
		}
	}
}

// TestBinaryFrameRoundTrip: every message shape frames with the codec
// flag bit and reads back through Reader.
func TestBinaryFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := binaryFixtures()
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("write %s: %v", m.Type, err)
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	for _, w := range msgs {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("read %s: %v", w.Type, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame round trip %s:\n got %+v\nwant %+v", w.Type, got, w)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("EOF after last frame, got %v", err)
	}
}

// TestBinaryFrameFlagBit: every written frame carries the codec flag bit,
// and a frame without it (B=0, what a JSON-framing endpoint sends) is
// refused as an unsupported codec from the header alone — both read
// paths, no payload consumed or parsed.
func TestBinaryFrameFlagBit(t *testing.T) {
	bin, err := AppendFrame(nil, Message{V: Version, Type: TypeStatusReq})
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(bin[:4])&binaryFlag == 0 {
		t.Fatal("frame header missing the codec flag bit")
	}
	for name, read := range map[string]func(io.Reader) (Message, error){
		"ReadFrame": ReadFrame,
		"Reader":    func(r io.Reader) (Message, error) { return NewReader(r).ReadFrame() },
	} {
		src := bytes.NewReader(jsonFlagged)
		_, err := read(src)
		if err == nil || !strings.Contains(err.Error(), "unsupported codec") {
			t.Errorf("%s: B=0 frame: err = %v, want unsupported codec", name, err)
		}
	}
	// The unbuffered path shows the payload was never read.
	src := bytes.NewReader(jsonFlagged)
	if _, err := ReadFrame(src); err == nil || src.Len() != len(jsonFlagged)-4 {
		t.Errorf("B=0 frame: %d payload bytes left unread of %d (err %v)", src.Len(), len(jsonFlagged)-4, err)
	}
}

// TestDecodeNormalizesEmptyEpochs: an empty-but-present Hello.Epochs
// encodes as absent and decodes to nil, so decode→encode→decode is a
// fixed point.
func TestDecodeNormalizesEmptyEpochs(t *testing.T) {
	bb, err := EncodeBinary(Message{V: Version, Type: TypeHello,
		Hello: &Hello{Device: "d", Epochs: map[string]uint64{}}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeBinary(bb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hello.Epochs != nil {
		t.Fatalf("binary round trip kept the empty epochs map: %+v", m.Hello)
	}
}

// TestBinaryEncodeCoercesInvalidUTF8: the encoder mangles invalid UTF-8
// to U+FFFD exactly as json.Marshal does — a bad string must not
// produce a frame the receiver refuses (a redial/re-report loop), and
// must derive the same canonical signature key the JSON provenance log
// stores for it.
func TestBinaryEncodeCoercesInvalidUTF8(t *testing.T) {
	// Both a lone invalid byte and a run of them: JSON marshal emits one
	// U+FFFD per invalid byte; a run-collapsing coercion would derive a
	// different string.
	for _, bad := range []string{"dev\xffice", "a\xff\xfeb", "\xff\xff\xff", "ok\ufffdalready"} {
		b, err := EncodeBinary(Message{V: Version, Type: TypeHello, Hello: &Hello{Device: bad}})
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("%q: coerced frame refused: %v", bad, err)
		}
		jb, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		if err := json.Unmarshal(jb, &want); err != nil {
			t.Fatal(err)
		}
		if m.Hello.Device != want {
			t.Fatalf("%q: coerced differently: binary %q vs json %q", bad, m.Hello.Device, want)
		}
	}
}

// TestBinaryHostileLengthNoHugeAlloc: a frame claiming millions of
// elements it cannot back must fail with bounded allocation, not cost
// count × element-size up front.
func TestBinaryHostileLengthNoHugeAlloc(t *testing.T) {
	// A report envelope claiming 2M signatures, "backed" by 2 MiB of
	// 0xff so the byte-count sanity check passes — the first element
	// then fails to decode. Preallocating count × sizeof(Signature)
	// up front would cost ~80 MB here before that failure.
	const n = 2 << 20
	frame := []byte{0, binReport}
	frame = appendU64(frame, uint64(n)+1)
	frame = append(frame, bytes.Repeat([]byte{0xff}, n)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := DecodeBinary(frame); err == nil {
		t.Fatal("hostile length accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("hostile length cost %d bytes of allocation", grew)
	}
}

// TestBinaryDecodeRejects: truncated, trailing-garbage, and
// hostile-length envelopes fail cleanly.
func TestBinaryDecodeRejects(t *testing.T) {
	good, err := EncodeBinary(Message{V: Version, Type: TypeReport,
		Report: &Report{Sigs: []Signature{FromCore(testSig())}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		{},
		good[:len(good)-1],                    // truncated
		append(good[:len(good):len(good)], 0), // trailing byte
		{0, 99},                               // unknown type code
		{0, binConfirm, 0xff, 0xff, 0xff, 0xff, 0xff}, // hostile string length
		{0, binStatusReq, 7},                          // payload on payloadless type (trailing)
	}
	for i, b := range cases {
		if _, err := DecodeBinary(b); err == nil {
			t.Errorf("case %d: malformed envelope %v decoded without error", i, b)
		}
	}
}

// TestSharedFrameEncodeOnce: Shared returns the identical backing bytes
// to every caller, stamped at Version whatever the wrapped message said.
func TestSharedFrameEncodeOnce(t *testing.T) {
	sh := NewShared(Message{Type: TypeDelta,
		Delta: &Delta{Epoch: 4, Sigs: []Signature{FromCore(testSig())}}})
	a, err := sh.Frame(Version)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sh.Frame(Version)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("second Frame re-encoded instead of sharing the cached bytes")
	}
	m, err := ReadFrame(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("shared frame does not decode: %v", err)
	}
	if m.V != Version || m.Type != TypeDelta || m.Delta.Epoch != 4 {
		t.Fatalf("shared frame decoded wrong: %+v", m)
	}
}

// TestDecodeAliasesNoInput: a decoded message or log owns its bytes.
// Scribbling over the buffer it was decoded from — a Reader's reused
// scratch, a mapped log — changes nothing decoded.
func TestDecodeAliasesNoInput(t *testing.T) {
	for _, m := range binaryFixtures() {
		b, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("decode %s: %v", m.Type, err)
		}
		fill(b, 0xff)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s changed with its input:\n got %+v\nwant %+v", m.Type, got, m)
		}
	}
	log, want := provenanceFixture()
	live, _, _, err := DecodeLog(log)
	if err != nil {
		t.Fatal(err)
	}
	fill(log, 0xff)
	if !reflect.DeepEqual(live, want) {
		t.Fatalf("log records changed with their input:\n got %+v\nwant %+v", live, want)
	}
}

func fill(b []byte, c byte) {
	for i := range b {
		b[i] = c
	}
}

// span is the address range a set of strings covers.
func span(ss ...string) (lo, hi uintptr) {
	lo = ^uintptr(0)
	for _, s := range ss {
		if s == "" {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		lo, hi = min(lo, p), max(hi, p+uintptr(len(s)))
	}
	return lo, hi
}

func sigStrings(s Signature) []string {
	ss := []string{s.Kind}
	for _, p := range s.Pairs {
		ss = append(ss, p.Outer, p.Inner)
	}
	return ss
}

// TestDecodeRetainsOneSignature: a decoded signature's strings lie in
// one copy of that signature's own bytes, never in the frame and never
// shared with another signature — so a hub entry keeping one signature
// of a long re-report keeps only that signature alive. In the log, a
// record's strings lie in one copy of that record, and its Key, which
// the store keeps after compaction, in none.
func TestDecodeRetainsOneSignature(t *testing.T) {
	other := FromCore(testSig())
	other.Pairs = other.Pairs[:1]
	sigs := []Signature{FromCore(testSig()), other}
	b, err := EncodeBinary(Message{V: Version, Type: TypeReport, Report: &Report{Sigs: sigs}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	frameLo := uintptr(unsafe.Pointer(&b[0]))
	frameHi := frameLo + uintptr(len(b))
	var prevLo, prevHi uintptr
	for i, s := range m.Report.Sigs {
		lo, hi := span(sigStrings(s)...)
		if size := uintptr(len(appendSig(nil, sigs[i]))); hi-lo > size {
			t.Errorf("signature %d: strings span %d bytes, more than its %d-byte encoding", i, hi-lo, size)
		}
		if lo < frameHi && frameLo < hi {
			t.Errorf("signature %d: strings alias the frame", i)
		}
		if i > 0 && lo < prevHi && prevLo < hi {
			t.Errorf("signatures %d and %d share storage", i-1, i)
		}
		prevLo, prevHi = lo, hi
	}

	log, _ := provenanceFixture()
	live, _, _, err := DecodeLog(log)
	if err != nil {
		t.Fatal(err)
	}
	prevLo, prevHi = 0, 0
	for i, r := range live {
		ss := append(sigStrings(r.Sig), r.FirstSeen, r.Owner, r.Tenant, r.Device)
		ss = append(ss, r.ConfirmedBy...)
		lo, hi := span(ss...)
		if size := uintptr(len(AppendRecord(nil, r))); hi-lo > size {
			t.Errorf("record %q: strings span %d bytes, more than its %d-byte record", r.Key, hi-lo, size)
		}
		if klo, khi := span(r.Key); klo < hi && lo < khi {
			t.Errorf("record %q: its key shares the record's storage", r.Key)
		}
		if i > 0 && lo < prevHi && prevLo < hi {
			t.Errorf("records %d and %d share storage", i-1, i)
		}
		prevLo, prevHi = lo, hi
	}
}

// TestDecodeRetainsNoFrame: what a hub keeps of a decoded frame or log
// keeps alive only its own signature's or record's bytes. Keeping a
// small signature from a frame that also carries a megabyte-sized one,
// or that signature's record and the big record's key from a log, must
// not keep the megabyte alive.
func TestDecodeRetainsNoFrame(t *testing.T) {
	small := FromCore(testSig())
	big := Signature{Kind: "deadlock", Pairs: []SigPair{{Outer: strings.Repeat("x", 1<<20), Inner: "y"}}}
	frame, err := EncodeBinary(Message{V: Version, Type: TypeReport, Report: &Report{Sigs: []Signature{small, big}}})
	if err != nil {
		t.Fatal(err)
	}
	log := AppendRecord([]byte(LogHeader), ProvenanceRecord{Seq: 1, Key: "small", Sig: small, ConfirmedBy: []string{"d1"}})
	log = AppendRecord(log, ProvenanceRecord{Seq: 2, Key: "big", Sig: big})

	base := liveHeap()
	m, err := DecodeBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	keptSig := m.Report.Sigs[0]
	live, _, _, err := DecodeLog(log)
	if err != nil {
		t.Fatal(err)
	}
	keptRec, keptKey := live[0], live[1].Key
	m, live = Message{}, nil
	grew := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(frame) // live across both measurements
	runtime.KeepAlive(log)
	runtime.KeepAlive(keptSig)
	runtime.KeepAlive(keptRec)
	runtime.KeepAlive(keptKey)
	if grew > 256<<10 {
		t.Fatalf("kept a small signature, a small record and a key: %d heap bytes stayed live", grew)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDecodeLogRefusesInvalidUTF8: an intact record whose key, or any
// other string, is not UTF-8 did not come from AppendRecord, which
// coerces it; the log is refused.
func TestDecodeLogRefusesInvalidUTF8(t *testing.T) {
	rec := AppendRecord(nil, ProvenanceRecord{Seq: 1, Key: "key!", Sig: FromCore(testSig()), FirstSeen: "dev!"})
	for _, field := range []string{"key!", "dev!"} {
		bad := bytes.Clone(rec)
		bad[bytes.Index(bad, []byte(field))+3] = 0xff
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[4:len(bad)-4], castagnoli))
		if _, _, _, err := DecodeLog(append([]byte(LogHeader), bad...)); err == nil || !strings.Contains(err.Error(), "UTF-8") {
			t.Errorf("%q made invalid: err = %v, want a UTF-8 refusal", field, err)
		}
	}
}

// TestDecodeReportAllocs pins the decoder's cost for the hub's commonest
// frame, a one-signature report: the Report, its slice, the signature's
// one string copy and its pairs.
func TestDecodeReportAllocs(t *testing.T) {
	b, err := EncodeBinary(Message{V: Version, Type: TypeReport,
		Report: &Report{Sigs: []Signature{FromCore(testSig())}}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeBinary(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("decoding a one-signature report costs %.2f allocations, want <= 4", allocs)
	}
}

// TestDecodeLogAllocs pins a resume's decode cost per live record: the
// index's key, one copy of the rest of the record, its pairs and its
// confirmation list, plus the index's and the slices' amortized growth.
func TestDecodeLogAllocs(t *testing.T) {
	const n = 1000
	ws := FromCore(testSig())
	log := []byte(LogHeader)
	for i := 0; i < n; i++ {
		log = AppendRecord(log, ProvenanceRecord{Seq: i + 1, Key: fmt.Sprintf("key-%04d", i), Sig: ws,
			FirstSeen: "device-0", ConfirmedBy: []string{"device-0", "device-1"}, Armed: true, ArmEpoch: uint64(i + 1)})
	}
	allocs := testing.AllocsPerRun(5, func() {
		if live, _, _, err := DecodeLog(log); err != nil || len(live) != n {
			t.Fatalf("%d records, err %v", len(live), err)
		}
	})
	t.Logf("%.0f allocations for a %d-record log", allocs, n)
	if allocs > 5*n {
		t.Fatalf("decoding a %d-record log costs %.0f allocations, want <= %d", n, allocs, 5*n)
	}
}

// FuzzWireCanonical holds the codec to its canonical form: any frame
// the decoder accepts re-encodes, decodes back to a reflect.DeepEqual
// message, and re-encodes again to byte-identical bytes — the
// determinism that lets Shared hand one frame to every session. (The
// input itself need not be canonical: the decoder accepts padded
// varints and unsorted map keys, and the first re-encode normalizes
// them.)
func FuzzWireCanonical(f *testing.F) {
	var buf bytes.Buffer
	for _, m := range binaryFixtures() {
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes())) // buf is reused: each seed needs its own bytes
	}
	for _, reject := range [][]byte{jsonFlagged, torn, {}, {0xff, 0xff, 0xff, 0xff}} {
		if _, err := ReadFrame(bytes.NewReader(reject)); err == nil {
			f.Fatalf("must-reject seed %x decoded", reject)
		}
		f.Add(reject)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("accepted message does not encode: %+v: %v", m, err)
		}
		again, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("encoding does not decode: %+v: %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip diverged:\n  in  %+v\n  out %+v", m, again)
		}
		b2, err := EncodeBinary(again)
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("encoding not deterministic (%v):\n  %x\n  %x", err, b, b2)
		}
	})
}

// provenanceFixture is a valid provenance log — every field set, an
// upsert of a signature and of a device cursor, the nil/empty
// distinction — and the newest record per key it must load as.
func provenanceFixture() (log []byte, live []ProvenanceRecord) {
	ws := FromCore(testSig())
	device := `device=""|d1`
	recs := []ProvenanceRecord{
		{Seq: 1, Key: "a", Sig: ws, FirstSeen: "d1", ConfirmedBy: []string{"d1"}},
		{Seq: 2, Key: "t=x|b", Sig: ws, ConfirmedBy: []string{}, Owner: "hub-b", OwnerSeq: 3, RemoteConfirms: -1, Tenant: "x"},
		{Key: device, Device: "d1", Open: true},
		{Seq: 1, Key: "a", Sig: ws, FirstSeen: "d1", ConfirmedBy: []string{"d1", "d2"}, Armed: true, ArmEpoch: 1 << 40},
		{Key: device, Device: "d1", Cursor: 1 << 40},
	}
	log = []byte(LogHeader)
	for _, r := range recs {
		log = AppendRecord(log, r)
	}
	return log, []ProvenanceRecord{recs[4], recs[3], recs[1]}
}

// FuzzProvenanceLog holds the provenance log loader to its crash
// contract. On arbitrary bytes it never panics and allocates at most a
// constant times the input's size, whatever lengths the input claims;
// the records it accepts decode from the intact prefix it reports,
// alone, and own their bytes: overwriting the input leaves their
// encoding as it was. Appended to a valid log, no input loses one of
// the valid log's records.
func FuzzProvenanceLog(f *testing.F) {
	valid, want := provenanceFixture()
	if live, records, intact, err := DecodeLog(valid); err != nil || records != 5 || intact != len(valid) || !reflect.DeepEqual(live, want) {
		f.Fatalf("fixture log loads %+v, %d records, intact %d of %d (err %v); want %+v", live, records, intact, len(valid), err, want)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 8, 9, 40, 300} {
		tail := make([]byte, n)
		rng.Read(tail)
		f.Add(append(valid[:len(valid):len(valid)], tail...))
	}
	for _, cut := range []int{0, 5, len(LogHeader), len(LogHeader) + 3, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(valid)
	f.Add([]byte(`{"seq":1,"key":"a"}` + "\n"))
	f.Add(append([]byte(LogHeader), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		live, records, intact, err := DecodeLog(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+64<<10 {
			t.Fatalf("%d input bytes cost %d bytes of allocation", len(data), grew)
		}
		if err == nil {
			prefix := bytes.Clone(data[:intact])
			again, n, at, err := DecodeLog(prefix)
			if err != nil || n != records || at != intact || len(live) > records || !reflect.DeepEqual(again, live) {
				t.Fatalf("accepted records do not decode from the %d-byte intact prefix alone (err %v)", intact, err)
			}
			before := encodeRecords(again)
			fill(prefix, 0xff)
			if after := encodeRecords(again); !bytes.Equal(after, before) {
				t.Fatalf("decoded records changed with their input:\n  %x\n  %x", before, after)
			}
		}
		logSurvives(t, valid, want, append(valid[:len(valid):len(valid)], data...))
		if bytes.HasPrefix(data, valid) {
			logSurvives(t, valid, want, data)
		}
	})
}

func encodeRecords(recs []ProvenanceRecord) []byte {
	var b []byte
	for _, r := range recs {
		b = AppendRecord(b, r)
	}
	return b
}

// logSurvives checks that log, which starts with the valid log whose
// newest records are want, keeps every one of them: a key may gain a
// newer record from the tail, never lose its own.
func logSurvives(t *testing.T, valid []byte, want []ProvenanceRecord, log []byte) {
	t.Helper()
	live, records, intact, err := DecodeLog(log)
	if err != nil {
		return // an intact tail record that does not decode: refused, not crash damage
	}
	if intact < len(valid) || records < 5 {
		t.Fatalf("a tail cut the valid log: intact %d of its %d bytes, %d of its 5 records", intact, len(valid), records)
	}
	keys := map[string]bool{}
	for _, r := range live {
		keys[r.Key] = true
	}
	for _, w := range want {
		if !keys[w.Key] {
			t.Fatalf("a tail lost key %q", w.Key)
		}
	}
	if records == 5 && !reflect.DeepEqual(live, want) {
		t.Fatalf("a tail with no intact record changed the load: %+v", live)
	}
}
