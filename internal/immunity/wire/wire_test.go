package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/dimmunix/dimmunix/internal/core"
)

// testSig builds a deterministic two-party deadlock signature.
func testSig() *core.Signature {
	a := core.Frame{Class: "com.app.Svc1", Method: "methodA", Line: 10}
	b := core.Frame{Class: "com.app.Svc2", Method: "methodB", Line: 20}
	return &core.Signature{
		Kind: core.DeadlockSig,
		Pairs: []core.SigPair{
			{Outer: core.CallStack{a}, Inner: core.CallStack{a, b}},
			{Outer: core.CallStack{b}, Inner: core.CallStack{b, a}},
		},
	}
}

// TestSignatureRoundTrip: the canonical wire encoding preserves the
// signature key exactly — two devices that detect the same bug produce
// identical wire signatures.
func TestSignatureRoundTrip(t *testing.T) {
	orig := testSig()
	ws := FromCore(orig)
	back, err := ws.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != orig.Key() {
		t.Fatalf("round-trip changed key: %q -> %q", orig.Key(), back.Key())
	}
	if !reflect.DeepEqual(back.Pairs, orig.Pairs) {
		t.Fatalf("round-trip changed pairs: %+v -> %+v", orig.Pairs, back.Pairs)
	}
}

// TestSignatureDecodeRejects: malformed wire signatures fail cleanly.
func TestSignatureDecodeRejects(t *testing.T) {
	cases := []Signature{
		{Kind: "gridlock", Pairs: []SigPair{{Outer: "A.m:1", Inner: "A.m:1"}}},
		{Kind: "deadlock", Pairs: []SigPair{{Outer: "A.m:1", Inner: "A.m:1"}}}, // 1 pair: invalid deadlock
		{Kind: "deadlock", Pairs: []SigPair{{Outer: "garbage", Inner: "A.m:1"}, {Outer: "B.m:2", Inner: "B.m:2"}}},
	}
	for i, ws := range cases {
		if _, err := ws.ToCore(); err == nil {
			t.Errorf("case %d: malformed signature %+v decoded without error", i, ws)
		}
	}
}

// messageFixtures is one valid message of every type.
func messageFixtures() []Message {
	ws := FromCore(testSig())
	return []Message{
		{V: Version, Type: TypeHello, Hello: &Hello{Device: "phone0",
			MinV: MinVersion, MaxV: Version, Epochs: map[string]uint64{"f00dfeedf00dfeed": 7}}},
		{V: Version, Type: TypeAck, Ack: &Ack{OK: true, Epoch: 9, Gen: "f00dfeedf00dfeed", V: Version}},
		{V: Version, Type: TypeReport, Report: &Report{Sigs: []Signature{ws}}},
		{V: Version, Type: TypeConfirm, Confirm: &Confirm{Key: testSig().Key(), Confirmations: 2, Armed: true}},
		{V: Version, Type: TypeDelta, Delta: &Delta{Epoch: 3, Sigs: []Signature{ws, ws}}},
		{V: Version, Type: TypeStatusReq},
		{V: Version, Type: TypeStatus, Status: &Status{Epoch: 3, Threshold: 2, Devices: []string{"phone0"},
			Provenance: []SigStatus{{Key: "k", Kind: "deadlock", FirstSeen: "phone0", Confirmations: 2, ConfirmedBy: []string{"phone0", "phone1"}, Armed: true, Owner: "hub-a"}},
			Batching:   Batching{Batches: 4, Signatures: 9},
			Hub:        "hub-a",
			Cluster: &ClusterStatus{Members: []string{"hub-a", "hub-b"}, Peers: []string{"hub-b"},
				OwnerSeq: 5, Owned: 3, Remote: 2, Forwards: 11}}},
		{V: Version, Type: TypePeerHello, PeerHello: &PeerHello{Hub: "hub-b", Seq: 4, MinV: MinVersion, MaxV: Version}},
		{V: Version, Type: TypeForwardReport, Forward: &ForwardReport{Hub: "hub-b", Device: "phone0", Sigs: []Signature{ws}}},
		{V: Version, Type: TypeForwardConfirm, FwdConfirm: &ForwardConfirm{Device: "phone0",
			Confirm: Confirm{Key: testSig().Key(), Confirmations: 1}}},
		{V: Version, Type: TypeArmBroadcast, Arm: &ArmBroadcast{Owner: "hub-a", Seq: 6, Confirmations: 2, Sig: ws}},
		{V: Version, Type: TypeMemberUpdate, Member: &MemberUpdate{Epoch: 4,
			Members: []MemberInfo{{ID: "hub-a", Addr: "10.0.0.1:7676"}, {ID: "hub-b", Down: true}}}},
		{V: Version, Type: TypeHandoff, Handoff: &Handoff{From: "hub-a", Records: []OwnedRecord{
			{Sig: ws, FirstSeen: "phone0", ConfirmedBy: []string{"phone0", "phone1"}, Armed: true, OwnerSeq: 3, Tenant: "acme"}}}},
		{V: Version, Type: TypeReplicate, Replicate: &Replicate{Owner: "hub-a", Records: []OwnedRecord{
			{Sig: ws, FirstSeen: "phone0", ConfirmedBy: []string{"phone0"}}}}},
		{V: Version, Type: TypePing, Ping: &Ping{From: "hub-a", Target: "hub-c", Seq: 8}},
		{V: Version, Type: TypePingAck, PingAck: &PingAck{From: "hub-b", Target: "hub-c", Seq: 8, OK: true}},
		{V: Version, Type: TypeLease, Lease: &Lease{From: "hub-a", Epoch: 4, Seq: 2}},
		{V: Version, Type: TypeLeaseAck, LeaseAck: &LeaseAck{From: "hub-b", Epoch: 5, Seq: 2}},
	}
}

// jsonFlagged is a frame whose header lacks the binary codec bit
// (B=0, the shape a JSON-framing endpoint would send); torn is a frame
// whose header promises more payload than follows. Both are must-reject
// seeds of every frame fuzz target.
var (
	jsonFlagged = func() []byte {
		payload := `{"v":2,"type":"hello","hello":{"device":"d"}}`
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}()
	torn = []byte{0x80, 0, 0, 8, 2 * Version, binHello, 1}
)

// TestNegotiate: the single negotiation rule accepts exactly the ranges
// that contain Version.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		min, max int
		ok       bool
	}{
		{Version, Version, true},
		{1, Version, true},                // wider floor
		{Version, Version + 5, true},      // newer client, common floor
		{1, Version - 1, false},           // client too old
		{Version + 1, Version + 5, false}, // client too new
		{0, 0, false},                     // no range advertised
		{Version + 1, Version - 1, false}, // inverted range
	}
	for _, c := range cases {
		got, ok := Negotiate(c.min, c.max)
		if ok != c.ok || (ok && got != Version) {
			t.Errorf("Negotiate(%d, %d) = (%d, %v), want ok=%v at v%d", c.min, c.max, got, ok, c.ok, Version)
		}
	}
}

// TestFrameRoundTrip: every message type survives WriteFrame/ReadFrame.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := messageFixtures()
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("write %s: %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %s:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("EOF after last frame, got %v", err)
	}
}

// TestValidateRejects: structurally broken envelopes are refused.
func TestValidateRejects(t *testing.T) {
	cases := []Message{
		{V: Version, Type: "teleport"},
		{V: Version, Type: TypeHello}, // missing payload
		{V: Version, Type: TypeHello, Hello: &Hello{Device: "d"}, Ack: &Ack{OK: true}},                 // two payloads
		{V: Version, Type: TypeStatusReq, Delta: &Delta{}},                                             // payload on payloadless type
		{V: Version, Type: TypeDelta, Ack: &Ack{}},                                                     // wrong payload
		{V: Version, Type: TypePeerHello},                                                              // missing peer payload
		{V: Version, Type: TypeArmBroadcast, PeerHello: &PeerHello{Hub: "h"}},                          // wrong peer payload
		{V: Version, Type: TypeForwardReport, Forward: &ForwardReport{Hub: "h"}, Arm: &ArmBroadcast{}}, // two peer payloads
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid message %+v passed validation", i, m)
		}
	}
}

// TestReadFrameLimits: zero-length and oversized frames are rejected
// before any payload allocation.
func TestReadFrameLimits(t *testing.T) {
	zero := [4]byte{0x80}
	if _, err := ReadFrame(bytes.NewReader(zero[:])); err == nil || !strings.Contains(err.Error(), "zero-length") {
		t.Errorf("zero-length frame: err = %v, want zero-length", err)
	}
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], binaryFlag|(MaxFrame+1))
	if _, err := ReadFrame(bytes.NewReader(huge[:])); err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Errorf("oversized frame: err = %v, want exceeds-max", err)
	}
}

// FuzzWireDecode hammers the frame decoder: arbitrary bytes must never
// panic, and any frame that decodes must re-encode and decode to the
// same message (the canonical-form property reports rely on). The
// decoded message must own its bytes: decoded from a buffer that is
// then overwritten, it still encodes as before.
func FuzzWireDecode(f *testing.F) {
	var buf bytes.Buffer
	for _, m := range messageFixtures() {
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes())) // buf is reused: each seed needs its own bytes
	}
	f.Add([]byte{})
	f.Add(jsonFlagged)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		b, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %+v: %v", m, err)
		}
		again, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %x: %v", b, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("decode/encode/decode not stable:\n first %+v\n again %+v", m, again)
		}
		payload := bytes.Clone(data[4 : 4+binary.BigEndian.Uint32(data)&^binaryFlag])
		inPlace, err := DecodeBinary(payload)
		if err != nil {
			t.Fatalf("frame payload does not decode on its own: %v", err)
		}
		fill(payload, 0xff)
		if after, err := EncodeBinary(inPlace); err != nil || !bytes.Equal(after, b) {
			t.Fatalf("decoded message changed with its input (err %v):\n  %x\n  %x", err, b, after)
		}
		// Signatures that arrived in a well-formed frame must also fail
		// or succeed deterministically on the core decode path.
		if m.Type == TypeReport {
			for _, ws := range m.Report.Sigs {
				sig, err := ws.ToCore()
				if err != nil {
					continue
				}
				if FromCore(sig).Kind != ws.Kind {
					t.Fatalf("core round trip changed kind: %+v", ws)
				}
			}
		}
	})
}

// FuzzPeerFrameDecode hammers the peer (hub-to-hub) half of the frame
// decoder the way FuzzWireDecode hammers the device half: arbitrary
// bytes must never panic, decoded peer envelopes must hold exactly one
// peer payload, and any peer frame that decodes must survive an
// encode/decode round trip — a hostile or corrupt peer hub must not be
// able to wedge a cluster.
func FuzzPeerFrameDecode(f *testing.F) {
	ws := FromCore(testSig())
	peers := []Message{
		{V: Version, Type: TypePeerHello, PeerHello: &PeerHello{Hub: "hub-b", Seq: 12, MinV: Version, MaxV: Version}},
		{V: Version, Type: TypeForwardReport, Forward: &ForwardReport{Hub: "hub-b", Device: "phone3", Sigs: []Signature{ws, ws}}},
		{V: Version, Type: TypeForwardConfirm, FwdConfirm: &ForwardConfirm{Device: "phone3", Confirm: Confirm{Key: "k", Confirmations: 2, Armed: true}}},
		{V: Version, Type: TypeArmBroadcast, Arm: &ArmBroadcast{Owner: "hub-a", Seq: 9, Confirmations: 3, Sig: ws}},
	}
	var buf bytes.Buffer
	for _, m := range peers {
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes())) // buf is reused: each seed needs its own bytes
	}
	f.Add(torn)
	f.Add(jsonFlagged)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		switch m.Type {
		case TypePeerHello, TypeForwardReport, TypeForwardConfirm, TypeArmBroadcast:
		default:
			return // device messages are FuzzWireDecode's turf
		}
		// Exactly one payload, and it is the peer one: Validate passed.
		if (m.PeerHello != nil) == (m.Type != TypePeerHello) ||
			(m.Forward != nil) == (m.Type != TypeForwardReport) ||
			(m.FwdConfirm != nil) == (m.Type != TypeForwardConfirm) ||
			(m.Arm != nil) == (m.Type != TypeArmBroadcast) {
			t.Fatalf("peer envelope with mismatched payload survived decode: %+v", m)
		}
		b, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("decoded peer frame does not re-encode: %+v: %v", m, err)
		}
		again, err := DecodeBinary(b)
		if err != nil || !reflect.DeepEqual(m, again) {
			t.Fatalf("peer decode/encode/decode not stable: %+v vs %+v (%v)", m, again, err)
		}
		// A broadcast signature must decode deterministically.
		if m.Type == TypeArmBroadcast {
			if sig, err := m.Arm.Sig.ToCore(); err == nil && FromCore(sig).Kind != m.Arm.Sig.Kind {
				t.Fatalf("broadcast signature core round trip changed kind: %+v", m.Arm.Sig)
			}
		}
	})
}
