package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameString(t *testing.T) {
	f := Frame{Class: "com.android.server.NotificationManagerService", Method: "enqueueNotificationWithTag", Line: 142}
	want := "com.android.server.NotificationManagerService.enqueueNotificationWithTag:142"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseFrameRoundTrip(t *testing.T) {
	tests := []Frame{
		{Class: "a", Method: "b", Line: 0},
		{Class: "com.example.Outer$Inner", Method: "run", Line: 99},
		{Class: "x.y.z", Method: "<init>", Line: 12345},
	}
	for _, f := range tests {
		got, err := ParseFrame(f.String())
		if err != nil {
			t.Errorf("ParseFrame(%q): %v", f.String(), err)
			continue
		}
		if got != f {
			t.Errorf("round trip: got %+v, want %+v", got, f)
		}
	}
}

func TestParseFrameErrors(t *testing.T) {
	bad := []string{
		"",
		"noline",
		"Class.method",     // missing :line
		"Class.method:abc", // non-numeric line
		":5",               // no class.method
		"justclass:5",      // no method separator
		".method:5",        // empty class
		"Class.:5",         // empty method
		"Cl ass.method:5",  // space in class
		"Class.me;thod:5",  // reserved char
		"Class.method:-3",  // negative line survives Atoi, caught by Validate
	}
	for _, s := range bad {
		if _, err := ParseFrame(s); err == nil {
			t.Errorf("ParseFrame(%q): expected error, got nil", s)
		}
	}
}

func TestFrameValidate(t *testing.T) {
	tests := []struct {
		name  string
		frame Frame
		ok    bool
	}{
		{"valid", fr("a.B", "m", 1), true},
		{"zero line", fr("a.B", "m", 0), true},
		{"empty class", Frame{Method: "m", Line: 1}, false},
		{"empty method", Frame{Class: "C", Line: 1}, false},
		{"negative line", fr("C", "m", -1), false},
		{"pipe in class", fr("C|D", "m", 1), false},
		{"equals in method", fr("C", "m=n", 1), false},
		{"semicolon in class", fr("C;D", "m", 1), false},
		{"tab in method", fr("C", "m\tn", 1), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.frame.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate() error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestCallStackKeyRoundTrip(t *testing.T) {
	cs := stackOf(fr("a.B", "m", 1), fr("c.D", "n", 2), fr("e.F", "o", 3))
	key := cs.Key()
	if want := "a.B.m:1;c.D.n:2;e.F.o:3"; key != want {
		t.Fatalf("Key() = %q, want %q", key, want)
	}
	got, err := ParseCallStack(key)
	if err != nil {
		t.Fatalf("ParseCallStack: %v", err)
	}
	if !got.Equal(cs) {
		t.Errorf("round trip: got %v, want %v", got, cs)
	}
}

func TestCallStackTruncate(t *testing.T) {
	cs := stackOf(fr("a.B", "m", 1), fr("c.D", "n", 2), fr("e.F", "o", 3))
	tests := []struct {
		depth int
		want  int
	}{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 3}, {4, 3},
	}
	for _, tc := range tests {
		if got := len(cs.Truncate(tc.depth)); got != tc.want {
			t.Errorf("Truncate(%d) length = %d, want %d", tc.depth, got, tc.want)
		}
	}
	if cs.Truncate(1).Top() != cs.Top() {
		t.Error("Truncate must keep the innermost frame")
	}
}

func TestCallStackCloneIndependence(t *testing.T) {
	cs := stackOf(fr("a.B", "m", 1), fr("c.D", "n", 2))
	cl := cs.Clone()
	cl[0].Line = 999
	if cs[0].Line == 999 {
		t.Error("Clone aliases the original")
	}
	if CallStack(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestCallStackEqual(t *testing.T) {
	a := stackOf(fr("a.B", "m", 1), fr("c.D", "n", 2))
	b := stackOf(fr("a.B", "m", 1), fr("c.D", "n", 2))
	c := stackOf(fr("a.B", "m", 1))
	d := stackOf(fr("a.B", "m", 1), fr("c.D", "n", 3))
	if !a.Equal(b) {
		t.Error("identical stacks must be equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different stacks must not be equal")
	}
}

func TestCallStackValidate(t *testing.T) {
	if err := (CallStack{}).Validate(); err == nil {
		t.Error("empty stack must not validate")
	}
	if err := stackOf(fr("C", "m", 1), Frame{}).Validate(); err == nil {
		t.Error("stack with invalid frame must not validate")
	}
	if err := stackOf(fr("C", "m", 1)).Validate(); err != nil {
		t.Errorf("valid stack: %v", err)
	}
}

// genFrame produces a random valid frame for property tests.
func genFrame(r *rand.Rand) Frame {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$."
	word := func(minLen int) string {
		n := minLen + r.Intn(8)
		var b strings.Builder
		for i := 0; i < n; i++ {
			ch := letters[r.Intn(len(letters))]
			// A class segment must not start or end with '.', and method
			// must not contain '.' at all for unambiguous parsing; keep it
			// simple: no dots inside generated words.
			if ch == '.' {
				ch = '_'
			}
			b.WriteByte(ch)
		}
		return b.String()
	}
	depth := 1 + r.Intn(3)
	parts := make([]string, depth)
	for i := range parts {
		parts[i] = word(1)
	}
	return Frame{
		Class:  strings.Join(parts, "."),
		Method: word(1),
		Line:   r.Intn(100000),
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		frame := genFrame(r)
		parsed, err := ParseFrame(frame.String())
		return err == nil && parsed == frame
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCallStackRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(6)
		cs := make(CallStack, depth)
		for i := range cs {
			cs[i] = genFrame(r)
		}
		parsed, err := ParseCallStack(cs.Key())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(parsed, cs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalStackRoundTrips: CanonicalStack(s) holds exactly when
// ParseCallStack accepts s and the stack's Key is s again, so the fast
// check accepts nothing the parser refuses and refuses nothing
// canonical. It walks every string of up to six bytes from an alphabet
// of the grammar's delimiters and the line spellings Atoi accepts.
func TestCanonicalStackRoundTrips(t *testing.T) {
	roundTrips := func(s string) bool {
		cs, err := ParseCallStack(s)
		return err == nil && cs.Key() == s
	}
	const alphabet = "a.:;01+-"
	var canonical int
	buf := make([]byte, 0, 6)
	var walk func()
	walk = func() {
		s := string(buf)
		if got, want := CanonicalStack(s), roundTrips(s); got != want {
			t.Fatalf("CanonicalStack(%q) = %v, but parse-and-render round trip = %v", s, got, want)
		} else if got {
			canonical++
		}
		if len(buf) == cap(buf) {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			buf = append(buf, alphabet[i])
			walk()
			buf = buf[:len(buf)-1]
		}
	}
	walk()
	if canonical == 0 {
		t.Fatal("no canonical stack in the enumerated space")
	}
	// Beyond the space: canonical keys of random stacks, and the longest
	// lines, up to and past an int's range.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		cs := make(CallStack, 1+r.Intn(4))
		for j := range cs {
			cs[j] = genFrame(r)
		}
		if !CanonicalStack(cs.Key()) {
			t.Fatalf("CanonicalStack refuses the key %q", cs.Key())
		}
	}
	for _, s := range []string{"a.m:999999999999999999", "a.m:9223372036854775807", "a.m:99999999999999999999",
		"a:b.m:1", ".a.m:1", "a.m:x:1", "a.m:1;\xffb.n:2"} {
		if CanonicalStack(s) != roundTrips(s) {
			t.Fatalf("CanonicalStack(%q) = %v, but parse-and-render round trip = %v", s, CanonicalStack(s), roundTrips(s))
		}
	}
	for _, b := range " \t\n|=" {
		for _, s := range []string{"a" + string(b) + ".m:1", "a.m" + string(b) + ":1", "a.m:1" + string(b)} {
			if CanonicalStack(s) {
				t.Fatalf("CanonicalStack(%q) accepts a reserved byte", s)
			}
		}
	}
}
