// The binary codec: a hand-rolled varint + length-delimited encoding of
// the wire message set. No reflection, no field names on the wire, no
// intermediate allocations beyond the output buffer — encoding a delta
// is an append loop, decoding is a cursor walk. The canonical-form fuzz
// target (FuzzWireCanonical) holds it to a stable round trip and a
// deterministic encoding.
//
// Layout after the frame header (see the package comment's diagram):
//
//	varint  envelope version V
//	byte    message type code (binHello..binArmBroadcast)
//	...     payload fields, in struct order
//
// Field encodings:
//
//	u64     unsigned varint
//	int     zigzag varint (negatives round-trip)
//	bool    one byte, 0 or 1
//	string  u64 length + bytes
//	slice   u64 n: 0 = nil, else n-1 elements (nil and empty stay
//	map             distinct, except Hello.Epochs and Status.Tenants,
//	                whose empty form encodes as nil)
//	ptr     one presence byte, then the value
//
// Map keys are encoded sorted so equal messages encode to equal bytes —
// the property that lets Shared hand one frame to every session.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"unicode/utf8"
)

// Message type codes. Append-only: a code, once shipped, is never
// reused or renumbered.
const (
	binHello byte = iota + 1
	binAck
	binReport
	binConfirm
	binDelta
	binStatusReq
	binStatus
	binPeerHello
	binForwardReport
	binForwardConfirm
	binArmBroadcast
	binMemberUpdate
	binHandoff
	binReplicate
	binPing
	binPingAck
	binLease
	binLeaseAck
)

// typeCode maps a message type to its binary code.
func typeCode(t Type) (byte, bool) {
	switch t {
	case TypeHello:
		return binHello, true
	case TypeAck:
		return binAck, true
	case TypeReport:
		return binReport, true
	case TypeConfirm:
		return binConfirm, true
	case TypeDelta:
		return binDelta, true
	case TypeStatusReq:
		return binStatusReq, true
	case TypeStatus:
		return binStatus, true
	case TypePeerHello:
		return binPeerHello, true
	case TypeForwardReport:
		return binForwardReport, true
	case TypeForwardConfirm:
		return binForwardConfirm, true
	case TypeArmBroadcast:
		return binArmBroadcast, true
	case TypeMemberUpdate:
		return binMemberUpdate, true
	case TypeHandoff:
		return binHandoff, true
	case TypeReplicate:
		return binReplicate, true
	case TypePing:
		return binPing, true
	case TypePingAck:
		return binPingAck, true
	case TypeLease:
		return binLease, true
	case TypeLeaseAck:
		return binLeaseAck, true
	}
	return 0, false
}

// codeType is typeCode's inverse.
func codeType(c byte) (Type, bool) {
	switch c {
	case binHello:
		return TypeHello, true
	case binAck:
		return TypeAck, true
	case binReport:
		return TypeReport, true
	case binConfirm:
		return TypeConfirm, true
	case binDelta:
		return TypeDelta, true
	case binStatusReq:
		return TypeStatusReq, true
	case binStatus:
		return TypeStatus, true
	case binPeerHello:
		return TypePeerHello, true
	case binForwardReport:
		return TypeForwardReport, true
	case binForwardConfirm:
		return TypeForwardConfirm, true
	case binArmBroadcast:
		return TypeArmBroadcast, true
	case binMemberUpdate:
		return TypeMemberUpdate, true
	case binHandoff:
		return TypeHandoff, true
	case binReplicate:
		return TypeReplicate, true
	case binPing:
		return TypePing, true
	case binPingAck:
		return TypePingAck, true
	case binLease:
		return TypeLease, true
	case binLeaseAck:
		return TypeLeaseAck, true
	}
	return "", false
}

// --- encoding ---

func appendU64(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	if !utf8.ValidString(s) {
		// The decoder refuses invalid UTF-8, so writing it raw would turn
		// a session into a decode-refusal redial loop and a provenance
		// log into one that never loads again. Coerce it instead, one
		// U+FFFD per invalid byte; frames and log records share this
		// encoder, so a string reads back the same from either.
		s = coerceUTF8(s)
	}
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// coerceUTF8 replaces every individually invalid byte with its own
// U+FFFD, as encoding/json's marshal does (strings.ToValidUTF8 would
// collapse a run into one).
func coerceUTF8(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
			i++
			continue
		}
		b.WriteString(s[i : i+size])
		i += size
	}
	return b.String()
}

// appendLen encodes a slice/map length with the nil/empty distinction:
// 0 means nil, n+1 means length n.
func appendLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return binary.AppendUvarint(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendStrs(b []byte, ss []string) []byte {
	b = appendLen(b, len(ss), ss == nil)
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func appendSig(b []byte, s Signature) []byte {
	b = appendStr(b, s.Kind)
	b = appendLen(b, len(s.Pairs), s.Pairs == nil)
	for _, p := range s.Pairs {
		b = appendStr(b, p.Outer)
		b = appendStr(b, p.Inner)
	}
	return b
}

func appendSigs(b []byte, sigs []Signature) []byte {
	b = appendLen(b, len(sigs), sigs == nil)
	for _, s := range sigs {
		b = appendSig(b, s)
	}
	return b
}

func appendConfirm(b []byte, c Confirm) []byte {
	b = appendStr(b, c.Key)
	b = appendInt(b, c.Confirmations)
	return appendBool(b, c.Armed)
}

func appendMembers(b []byte, ms []MemberInfo) []byte {
	b = appendLen(b, len(ms), ms == nil)
	for _, m := range ms {
		b = appendStr(b, m.ID)
		b = appendStr(b, m.Addr)
		b = appendBool(b, m.Down)
	}
	return b
}

func appendOwnedRecords(b []byte, recs []OwnedRecord) []byte {
	b = appendLen(b, len(recs), recs == nil)
	for _, r := range recs {
		b = appendSig(b, r.Sig)
		b = appendStr(b, r.FirstSeen)
		b = appendStrs(b, r.ConfirmedBy)
		b = appendBool(b, r.Armed)
		b = appendU64(b, r.OwnerSeq)
		b = appendStr(b, r.Tenant)
	}
	return b
}

// appendBinary appends m's validated binary envelope (no frame header)
// to dst.
func appendBinary(dst []byte, m Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return dst, err
	}
	code, ok := typeCode(m.Type)
	if !ok {
		return dst, fmt.Errorf("wire encode: unknown type %q", m.Type)
	}
	b := appendInt(dst, m.V)
	b = append(b, code)
	switch m.Type {
	case TypeHello:
		h := m.Hello
		b = appendStr(b, h.Device)
		b = appendInt(b, h.MinV)
		b = appendInt(b, h.MaxV)
		// An empty Epochs map encodes as absent and decodes to nil.
		b = appendLen(b, len(h.Epochs), len(h.Epochs) == 0)
		gens := make([]string, 0, len(h.Epochs))
		for g := range h.Epochs {
			gens = append(gens, g)
		}
		sort.Strings(gens)
		for _, g := range gens {
			b = appendStr(b, g)
			b = appendU64(b, h.Epochs[g])
		}
		b = appendStr(b, h.Token)
	case TypeAck:
		a := m.Ack
		b = appendBool(b, a.OK)
		b = appendStr(b, a.Error)
		b = appendU64(b, a.Epoch)
		b = appendStr(b, a.Gen)
		b = appendInt(b, a.V)
	case TypeReport:
		b = appendSigs(b, m.Report.Sigs)
	case TypeConfirm:
		b = appendConfirm(b, *m.Confirm)
	case TypeDelta:
		b = appendU64(b, m.Delta.Epoch)
		b = appendSigs(b, m.Delta.Sigs)
	case TypeStatusReq:
		// no payload
	case TypeStatus:
		st := m.Status
		b = appendU64(b, st.Epoch)
		b = appendInt(b, st.Threshold)
		b = appendStrs(b, st.Devices)
		b = appendLen(b, len(st.Provenance), st.Provenance == nil)
		for _, p := range st.Provenance {
			b = appendStr(b, p.Key)
			b = appendStr(b, p.Kind)
			b = appendStr(b, p.FirstSeen)
			b = appendInt(b, p.Confirmations)
			b = appendStrs(b, p.ConfirmedBy)
			b = appendBool(b, p.Armed)
			b = appendStr(b, p.Owner)
			b = appendStr(b, p.Tenant)
		}
		b = appendU64(b, st.Batching.Batches)
		b = appendU64(b, st.Batching.Signatures)
		b = appendStr(b, st.Hub)
		if st.Cluster == nil {
			b = append(b, 0)
		} else {
			cs := st.Cluster
			b = append(b, 1)
			b = appendStrs(b, cs.Members)
			b = appendStrs(b, cs.Peers)
			b = appendU64(b, cs.OwnerSeq)
			b = appendInt(b, cs.Owned)
			b = appendInt(b, cs.Remote)
			b = appendU64(b, cs.Forwards)
			b = appendU64(b, cs.MembershipEpoch)
			b = appendMembers(b, cs.Ring)
			b = appendU64(b, cs.Fenced)
		}
		// Tenants follows the Epochs rule: empty encodes as absent.
		b = appendLen(b, len(st.Tenants), len(st.Tenants) == 0)
		for _, ts := range st.Tenants {
			b = appendStr(b, ts.Tenant)
			b = appendInt(b, ts.Sigs)
			b = appendInt(b, ts.Armed)
			b = appendInt(b, ts.Threshold)
			b = appendInt(b, ts.Devices)
		}
	case TypePeerHello:
		h := m.PeerHello
		b = appendStr(b, h.Hub)
		b = appendU64(b, h.Seq)
		b = appendInt(b, h.MinV)
		b = appendInt(b, h.MaxV)
		b = appendStr(b, h.Addr)
	case TypeForwardReport:
		f := m.Forward
		b = appendStr(b, f.Hub)
		b = appendStr(b, f.Device)
		b = appendSigs(b, f.Sigs)
		b = appendInt(b, f.Hops)
		b = appendStr(b, f.Tenant)
	case TypeForwardConfirm:
		b = appendStr(b, m.FwdConfirm.Device)
		b = appendConfirm(b, m.FwdConfirm.Confirm)
		b = appendStr(b, m.FwdConfirm.Tenant)
	case TypeArmBroadcast:
		a := m.Arm
		b = appendStr(b, a.Owner)
		b = appendU64(b, a.Seq)
		b = appendInt(b, a.Confirmations)
		b = appendSig(b, a.Sig)
		b = appendU64(b, a.Fence)
		b = appendStr(b, a.Tenant)
	case TypeMemberUpdate:
		u := m.Member
		b = appendU64(b, u.Epoch)
		b = appendMembers(b, u.Members)
	case TypeHandoff:
		b = appendStr(b, m.Handoff.From)
		b = appendOwnedRecords(b, m.Handoff.Records)
	case TypeReplicate:
		b = appendStr(b, m.Replicate.Owner)
		b = appendOwnedRecords(b, m.Replicate.Records)
	case TypePing:
		b = appendStr(b, m.Ping.From)
		b = appendStr(b, m.Ping.Target)
		b = appendU64(b, m.Ping.Seq)
	case TypePingAck:
		b = appendStr(b, m.PingAck.From)
		b = appendStr(b, m.PingAck.Target)
		b = appendU64(b, m.PingAck.Seq)
		b = appendBool(b, m.PingAck.OK)
	case TypeLease:
		b = appendStr(b, m.Lease.From)
		b = appendU64(b, m.Lease.Epoch)
		b = appendU64(b, m.Lease.Seq)
	case TypeLeaseAck:
		b = appendStr(b, m.LeaseAck.From)
		b = appendU64(b, m.LeaseAck.Epoch)
		b = appendU64(b, m.LeaseAck.Seq)
		b = appendBool(b, m.LeaseAck.OK)
	}
	return b, nil
}

// EncodeBinary marshals the message's envelope (no frame header).
func EncodeBinary(m Message) ([]byte, error) {
	b, err := appendBinary(nil, m)
	if err != nil {
		return nil, err
	}
	if len(b) > MaxFrame {
		return nil, fmt.Errorf("wire encode: frame %d bytes exceeds max %d", len(b), MaxFrame)
	}
	return b, nil
}

// --- decoding ---

// bdec is a cursor over one binary envelope. The first malformed field
// latches err; every subsequent read is a cheap no-op, so decode paths
// need a single error check at the end.
//
// Decoded strings never alias b: b is a Reader's reused scratch or a
// mapped log. str copies each string on its own, except inside an owned
// span — a signature in a frame, a record in the log — where own holds
// one copy of b[base:base+len(own)] and str returns substrings of it
// (own is "" outside one). A decoded string so keeps alive only its own
// signature's or record's bytes, never a whole frame's.
type bdec struct {
	b    []byte
	off  int
	err  error
	own  string
	base int
}

func (d *bdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire binary decode: "+format, args...)
	}
}

func (d *bdec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

func (d *bdec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("truncated bool")
		return false
	}
	c := d.b[d.off]
	d.off++
	if c > 1 {
		d.fail("bad bool byte %d", c)
		return false
	}
	return c == 1
}

func (d *bdec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated byte")
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

// raw reads a string field's bytes in place, unchecked.
func (d *bdec) raw() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return nil
	}
	d.off += int(n)
	return d.b[d.off-int(n) : d.off]
}

func (d *bdec) str() string {
	raw := d.raw()
	if !utf8.Valid(raw) {
		// The encoder never emits invalid UTF-8 (appendStr coerces it),
		// so a frame carrying it did not come from this codec.
		d.fail("string %q is not valid UTF-8", raw)
		return ""
	}
	if d.own != "" {
		return d.own[d.off-len(raw)-d.base : d.off-d.base]
	}
	return string(raw)
}

// length decodes a slice/map length: (-1) for nil, else the length.
// Lengths are sanity-capped by the remaining payload (every element
// costs at least one byte), so an element count a frame cannot possibly
// back fails immediately.
func (d *bdec) length() int {
	n := d.u64()
	if d.err != nil || n == 0 {
		return -1
	}
	n--
	if n > uint64(len(d.b)-d.off) {
		d.fail("collection length %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return -1
	}
	return int(n)
}

// maxPrealloc caps a collection's up-front allocation: the byte-count
// sanity check above bounds the element *count*, not count × element
// size, so a hostile frame could otherwise claim millions of elements
// and cost a multi-hundred-MB make before the first element fails to
// decode. Beyond the cap the slice grows by append, paying only for
// elements the payload actually contains.
const maxPrealloc = 1024

func prealloc(n int) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return n
}

func (d *bdec) strs() []string {
	n := d.length()
	if n < 0 {
		return nil
	}
	out := make([]string, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

// sig decodes one signature. Unless it lies in an owned span already,
// it skims the signature for its extent, copies those bytes once, and
// decodes Kind and every frame as substrings of that copy.
func (d *bdec) sig() Signature {
	if d.own != "" {
		return d.sigFields()
	}
	start := d.off
	d.raw()
	for i, n := 0, d.length(); i < n && d.err == nil; i++ {
		d.raw()
		d.raw()
	}
	if d.err != nil {
		return Signature{}
	}
	d.own, d.base, d.off = string(d.b[start:d.off]), start, start
	s := d.sigFields()
	d.own = ""
	return s
}

func (d *bdec) sigFields() Signature {
	s := Signature{Kind: d.str()}
	n := d.length()
	if n < 0 {
		return s
	}
	s.Pairs = make([]SigPair, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		s.Pairs = append(s.Pairs, SigPair{Outer: d.str(), Inner: d.str()})
	}
	return s
}

func (d *bdec) sigs() []Signature {
	n := d.length()
	if n < 0 {
		return nil
	}
	out := make([]Signature, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.sig())
	}
	return out
}

func (d *bdec) confirm() Confirm {
	return Confirm{Key: d.str(), Confirmations: d.int(), Armed: d.bool()}
}

func (d *bdec) members() []MemberInfo {
	n := d.length()
	if n < 0 {
		return nil
	}
	out := make([]MemberInfo, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, MemberInfo{ID: d.str(), Addr: d.str(), Down: d.bool()})
	}
	return out
}

func (d *bdec) ownedRecords() []OwnedRecord {
	n := d.length()
	if n < 0 {
		return nil
	}
	out := make([]OwnedRecord, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, OwnedRecord{Sig: d.sig(), FirstSeen: d.str(),
			ConfirmedBy: d.strs(), Armed: d.bool(), OwnerSeq: d.u64(), Tenant: d.str()})
	}
	return out
}

// DecodeBinary unmarshals and structurally validates one envelope.
// Trailing bytes are an error: a frame is exactly one message.
func DecodeBinary(b []byte) (Message, error) {
	d := &bdec{b: b}
	var m Message
	m.V = d.int()
	code := d.byte()
	t, ok := codeType(code)
	if d.err == nil && !ok {
		d.fail("unknown type code %d", code)
	}
	if d.err != nil {
		return Message{}, d.err
	}
	m.Type = t
	switch t {
	case TypeHello:
		h := &Hello{Device: d.str(), MinV: d.int(), MaxV: d.int()}
		if n := d.length(); n > 0 {
			h.Epochs = make(map[string]uint64, prealloc(n))
			for i := 0; i < n && d.err == nil; i++ {
				g := d.str()
				h.Epochs[g] = d.u64()
			}
		}
		h.Token = d.str()
		m.Hello = h
	case TypeAck:
		m.Ack = &Ack{OK: d.bool(), Error: d.str(), Epoch: d.u64(), Gen: d.str(), V: d.int()}
	case TypeReport:
		m.Report = &Report{Sigs: d.sigs()}
	case TypeConfirm:
		c := d.confirm()
		m.Confirm = &c
	case TypeDelta:
		m.Delta = &Delta{Epoch: d.u64(), Sigs: d.sigs()}
	case TypeStatusReq:
		// no payload
	case TypeStatus:
		st := &Status{Epoch: d.u64(), Threshold: d.int(), Devices: d.strs()}
		if n := d.length(); n >= 0 {
			st.Provenance = make([]SigStatus, 0, prealloc(n))
			for i := 0; i < n && d.err == nil; i++ {
				st.Provenance = append(st.Provenance, SigStatus{Key: d.str(), Kind: d.str(), FirstSeen: d.str(),
					Confirmations: d.int(), ConfirmedBy: d.strs(), Armed: d.bool(), Owner: d.str(), Tenant: d.str()})
			}
		}
		st.Batching = Batching{Batches: d.u64(), Signatures: d.u64()}
		st.Hub = d.str()
		switch present := d.byte(); present {
		case 0:
		case 1:
			st.Cluster = &ClusterStatus{Members: d.strs(), Peers: d.strs(),
				OwnerSeq: d.u64(), Owned: d.int(), Remote: d.int(), Forwards: d.u64(),
				MembershipEpoch: d.u64(), Ring: d.members(), Fenced: d.u64()}
		default:
			d.fail("bad presence byte %d", present)
		}
		if n := d.length(); n > 0 {
			st.Tenants = make([]TenantStatus, 0, prealloc(n))
			for i := 0; i < n && d.err == nil; i++ {
				st.Tenants = append(st.Tenants, TenantStatus{Tenant: d.str(),
					Sigs: d.int(), Armed: d.int(), Threshold: d.int(), Devices: d.int()})
			}
		}
		m.Status = st
	case TypePeerHello:
		m.PeerHello = &PeerHello{Hub: d.str(), Seq: d.u64(), MinV: d.int(), MaxV: d.int(), Addr: d.str()}
	case TypeForwardReport:
		m.Forward = &ForwardReport{Hub: d.str(), Device: d.str(), Sigs: d.sigs(), Hops: d.int(), Tenant: d.str()}
	case TypeForwardConfirm:
		m.FwdConfirm = &ForwardConfirm{Device: d.str(), Confirm: d.confirm(), Tenant: d.str()}
	case TypeArmBroadcast:
		m.Arm = &ArmBroadcast{Owner: d.str(), Seq: d.u64(), Confirmations: d.int(), Sig: d.sig(), Fence: d.u64(), Tenant: d.str()}
	case TypeMemberUpdate:
		m.Member = &MemberUpdate{Epoch: d.u64(), Members: d.members()}
	case TypeHandoff:
		m.Handoff = &Handoff{From: d.str(), Records: d.ownedRecords()}
	case TypeReplicate:
		m.Replicate = &Replicate{Owner: d.str(), Records: d.ownedRecords()}
	case TypePing:
		m.Ping = &Ping{From: d.str(), Target: d.str(), Seq: d.u64()}
	case TypePingAck:
		m.PingAck = &PingAck{From: d.str(), Target: d.str(), Seq: d.u64(), OK: d.bool()}
	case TypeLease:
		m.Lease = &Lease{From: d.str(), Epoch: d.u64(), Seq: d.u64()}
	case TypeLeaseAck:
		m.LeaseAck = &LeaseAck{From: d.str(), Epoch: d.u64(), Seq: d.u64(), OK: d.bool()}
	}
	if d.err != nil {
		return Message{}, d.err
	}
	if d.off != len(d.b) {
		return Message{}, fmt.Errorf("wire binary decode: %d trailing bytes after %s", len(d.b)-d.off, t)
	}
	if err := m.Validate(); err != nil {
		return Message{}, err
	}
	return m, nil
}

// --- provenance log ---

// ProvenanceRecord is one signature's persisted fleet state at a hub, or
// — when Device is set — one device's delivery cursor: the unit of the
// provenance log.
type ProvenanceRecord struct {
	// Seq is the record's first-report order (1-based); it reconstructs
	// the hub's deterministic provenance ordering after a restart.
	Seq int
	// Key is the signature's canonical identity (core.Signature.Key).
	Key string
	// Sig is the canonical wire encoding of the signature itself.
	Sig Signature
	// FirstSeen is the device that first reported it.
	FirstSeen string
	// ConfirmedBy lists the devices that independently reported it.
	ConfirmedBy []string
	// Armed reports fleet-wide arming.
	Armed bool
	// ArmEpoch is the fleet delta epoch assigned when the signature
	// armed (0 while unarmed). The hub's epoch counter resumes from the
	// maximum ArmEpoch in the store.
	ArmEpoch uint64
	// Owner is the cluster id of the hub owning this signature's confirm
	// bookkeeping ("" outside a federation). A record whose Owner is not
	// the reloading hub is a replicated armed entry: slim by
	// construction (no ConfirmedBy/FirstSeen), it carries only what a
	// non-owner needs — the signature and the arming — so per-hub
	// persistent state stays proportional to the owned slice of the
	// fleet plus the armed set.
	Owner string
	// OwnerSeq is the owner's monotonic arming sequence: the replay
	// cursor for hub-to-hub resubscription.
	OwnerSeq uint64
	// RemoteConfirms is the confirmation count replicated at arming for
	// a non-owned entry.
	RemoteConfirms int
	// Tenant scopes the record to one tenant's fleet ("" for the
	// default tenant). Key already carries the tenant prefix; the field
	// is stored explicitly so reloads and replicas recover the scope
	// without parsing keys. A device record's Tenant is the device's.
	Tenant string

	// Device marks a delivery-cursor record (see the immunity package
	// comment's "Delivery cursor"): written when the device attaches
	// (Open) and when it detaches (Cursor, the fleet epoch then); it
	// carries no signature, and its Key can never equal a signature key.
	Device string
	// Open marks a session that had not detached when the record was
	// written; a reload closes it at the loaded fleet epoch.
	Open bool
	// Cursor is the fleet epoch at the device's last detach: it holds
	// every armed signature of its tenant with ArmEpoch <= Cursor.
	Cursor uint64
}

// LogHeader opens every provenance log: its magic and format version.
const LogHeader = "dimmunix provenance log v1\n"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends r to b as one provenance log record: a u32 LE
// payload length, the payload — r's fields in struct order, in this
// codec's field encodings, so Seq and Key lead — and a u32 LE CRC-32C of
// the payload.
func AppendRecord(b []byte, r ProvenanceRecord) []byte {
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	b = appendInt(b, r.Seq)
	b = appendStr(b, r.Key)
	b = appendSig(b, r.Sig)
	b = appendStr(b, r.FirstSeen)
	b = appendStrs(b, r.ConfirmedBy)
	b = appendBool(b, r.Armed)
	b = appendU64(b, r.ArmEpoch)
	b = appendStr(b, r.Owner)
	b = appendU64(b, r.OwnerSeq)
	b = appendInt(b, r.RemoteConfirms)
	b = appendStr(b, r.Tenant)
	b = appendStr(b, r.Device)
	b = appendBool(b, r.Open)
	b = appendU64(b, r.Cursor)
	payload := b[at+4:]
	binary.LittleEndian.PutUint32(b[at:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
}

// DecodeLog reads a provenance log. It returns the newest record per key
// in Seq order (ties in order of first appearance), how many records the
// intact prefix holds, dead ones included, and that prefix's length in
// bytes. The prefix ends at the first record whose length or CRC does
// not check out: a crash tore that write, and a writer cuts the log there
// before appending. Every record's Seq and Key are skimmed; only each
// key's newest record is decoded, its strings after the key out of one
// copy of that record's bytes. Nothing returned aliases b.
//
// The errors are what no crash produces: a log that does not open with
// LogHeader (a shorter one that is a prefix of it is a torn first write
// and reads as empty), and an intact record that does not decode.
func DecodeLog(b []byte) (live []ProvenanceRecord, records, intact int, err error) {
	if len(b) < len(LogHeader) && LogHeader[:len(b)] == string(b) {
		return nil, 0, 0, nil
	}
	if len(b) < len(LogHeader) || string(b[:len(LogHeader)]) != LogHeader {
		return nil, 0, 0, fmt.Errorf("not a provenance log: no %q header", LogHeader)
	}
	type newest struct {
		seq, at int
		key     string // the index's own copy, shared with the record's Key
		payload []byte
	}
	var recs []newest
	index := make(map[string]int)
	off := len(LogHeader)
	for len(b)-off >= 8 {
		n := binary.LittleEndian.Uint32(b[off:])
		if uint64(n) > uint64(len(b)-off-8) {
			break
		}
		end := off + 4 + int(n)
		payload := b[off+4 : end]
		if binary.LittleEndian.Uint32(b[end:]) != crc32.Checksum(payload, castagnoli) {
			break
		}
		d := bdec{b: payload}
		seq, key := d.int(), d.raw()
		if d.err == nil && len(key) == 0 {
			d.fail("empty key")
		}
		if !utf8.Valid(key) {
			d.fail("key %q is not valid UTF-8", key)
		}
		if d.err != nil {
			return nil, 0, 0, fmt.Errorf("provenance record at byte %d: %w", off, d.err)
		}
		if i, ok := index[string(key)]; ok {
			recs[i].seq, recs[i].at, recs[i].payload = seq, off, payload
		} else {
			k := string(key)
			index[k] = len(recs)
			recs = append(recs, newest{seq, off, k, payload})
		}
		records++
		off = end + 4
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	live = make([]ProvenanceRecord, len(recs))
	for i, r := range recs {
		// The record's Key is the index's copy, so a live-key set kept
		// after the records are dropped pins no payload; its other
		// strings are substrings of one copy of the bytes after the key.
		d := &bdec{b: r.payload}
		d.int()
		d.raw()
		d.own, d.base = string(d.b[d.off:]), d.off
		live[i] = ProvenanceRecord{Seq: r.seq, Key: r.key, Sig: d.sig(), FirstSeen: d.str(),
			ConfirmedBy: d.strs(), Armed: d.bool(), ArmEpoch: d.u64(), Owner: d.str(), OwnerSeq: d.u64(),
			RemoteConfirms: d.int(), Tenant: d.str(), Device: d.str(), Open: d.bool(), Cursor: d.u64()}
		if d.err == nil && d.off != len(d.b) {
			d.fail("%d trailing bytes", len(d.b)-d.off)
		}
		if d.err != nil {
			return nil, 0, 0, fmt.Errorf("provenance record at byte %d: %w", r.at, d.err)
		}
	}
	return live, records, off, nil
}
