package wire

import (
	"reflect"
	"testing"
)

// FuzzSignatureCheck holds Check to ToCore, the one definition of a
// valid signature: for any kind and pairs, Check errs exactly when ToCore
// does, with the same error, and otherwise returns ToCore's kind, its
// Key and the FromCore encoding of it. The fuzzer builds n%4 pairs from
// four stacks, cycling through them.
func FuzzSignatureCheck(f *testing.F) {
	const ok1, ok2 = "com.app.Svc1.methodA:10", "a.b:0;c.d.e:7"
	add := func(kind string, n uint8, stacks ...string) {
		var s [4]string
		for i := range s {
			s[i] = ok1
			if i%2 == 1 {
				s[i] = ok2
			}
		}
		copy(s[:], stacks)
		f.Add(kind, n, s[0], s[1], s[2], s[3])
	}
	// The non-canonical spellings ToCore accepts (+5, 007, -0), a negative
	// line, 19 digits (MaxInt64, past the fast path) and two overflows.
	for _, line := range []string{"+5", "007", "-0", "-3", "9223372036854775807", "9223372036854775808", "99999999999999999999"} {
		add("deadlock", 2, "a.m:"+line)
		add("deadlock", 2, ok1, ok2, ok1, "x.y.m:1;a.m:"+line)
	}
	// Each reserved byte, in the class and in the method.
	for _, b := range " \t\n;|=" {
		add("deadlock", 2, "c"+string(b)+"x.m:1")
		add("starvation", 1, "c.m"+string(b)+"x:1")
	}
	// Empty stacks and frames; a '.' at either end of the head; ':' in the
	// class or the method.
	for _, s := range []string{"", ";", "a.m:1;;b.n:2", ";a.m:1", "a.m:1;", ".m:1", ".a.m:1", "a.m.:1", "a.:1",
		"a:b.m:1", "a.m:x:1", "a.m", "a.m:", "am:1", "a.m:1 "} {
		add("deadlock", 2, s)
		add("starvation", 1, ok1, s)
	}
	// 0, 1, 2 and 3 pairs of each kind, and unknown kinds.
	for _, kind := range []string{"deadlock", "starvation", "livelock", "", "Deadlock"} {
		for n := uint8(0); n < 4; n++ {
			add(kind, n)
		}
	}
	f.Fuzz(func(t *testing.T, kind string, n uint8, a, b, c, d string) {
		stacks := [4]string{a, b, c, d}
		s := Signature{Kind: kind, Pairs: make([]SigPair, n%4)}
		for i := range s.Pairs {
			s.Pairs[i] = SigPair{Outer: stacks[2*i%4], Inner: stacks[(2*i+1)%4]}
		}
		got, err := s.Check()
		sig, want := s.ToCore()
		if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
			t.Fatalf("%+v: Check err %v, ToCore err %v", s, err, want)
		}
		if err != nil {
			return
		}
		if got.Key != sig.Key() || got.Kind != sig.Kind || !reflect.DeepEqual(got.Sig, FromCore(sig)) {
			t.Fatalf("%+v: Check returned %+v, ToCore %s %q %+v", s, got, sig.Kind, sig.Key(), FromCore(sig))
		}
	})
}
