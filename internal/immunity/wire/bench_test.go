package wire

import (
	"testing"
)

// benchDelta is a representative broadcast: one armed signature (the
// overwhelmingly common arming) pushed to the whole fleet.
func benchDelta() Message {
	return Message{V: Version, Type: TypeDelta,
		Delta: &Delta{Epoch: 42, Sigs: []Signature{FromCore(testSig())}}}
}

const benchSubscribers = 64

// BenchmarkHubBroadcast measures the wire cost of pushing one arming to
// 64 subscribers. The per-subscriber sub-benchmark is the marshal storm
// the encode-once fan-out removes (each session encoding its own copy
// of the same message); the encode-once sub-benchmark is the shipped
// path (one Shared, every session handed the cached frame). The
// repository benchmark records the shipped path's cost per session as
// wire.shared_frame_ns (bench/, traced run).
func BenchmarkHubBroadcast(b *testing.B) {
	b.Run("per-subscriber", func(b *testing.B) {
		m := benchDelta()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < benchSubscribers; s++ {
				if _, err := AppendFrame(nil, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("encode-once", func(b *testing.B) {
		m := benchDelta()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh := NewShared(m) // a fresh broadcast per arming, as the hub does
			for s := 0; s < benchSubscribers; s++ {
				if _, err := sh.Frame(Version); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkWireEncode tracks the per-message codec cost (one encode,
// no fan-out); the repository benchmark records the same as
// wire.encode_report_ns and wire.encode_delta_ns.
func BenchmarkWireEncode(b *testing.B) {
	m := benchDelta()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBinary(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode is BenchmarkWireEncode's read side.
func BenchmarkWireDecode(b *testing.B) {
	buf, err := EncodeBinary(benchDelta())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}
