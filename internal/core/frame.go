package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Frame identifies a single program location: a method in a class plus a
// line number. Frames are the unit from which call stacks, positions, and
// ultimately deadlock signatures are built. In the paper's Dalvik
// implementation a frame corresponds to a (method, pc) pair obtained by
// dvmGetCallStack; here frames are pushed explicitly by the simulated
// platform and application code, which makes positions stable across runs —
// a requirement for the persistent deadlock history to be useful after a
// reboot.
type Frame struct {
	// Class is the fully qualified class name, e.g.
	// "com.android.server.NotificationManagerService".
	Class string
	// Method is the method name within Class.
	Method string
	// Line is the source line of the synchronization statement.
	Line int
}

// frameSeparator joins frames within one encoded call stack.
const frameSeparator = ";"

// frameBytes classes the bytes of an encoded call stack for
// Frame.Validate and CanonicalStack: a frame's '.' and ':', the ';'
// between frames, and the bytes the history format reserves.
var frameBytes = [256]byte{'.': dotByte, ':': colonByte, ';': sepByte,
	' ': reservedByte, '\t': reservedByte, '\n': reservedByte, '|': reservedByte, '=': reservedByte}

const dotByte, colonByte, sepByte, reservedByte = 1, 2, 3, 4

// hasReserved reports whether s holds ';' or a reserved byte.
func hasReserved(s string) bool {
	for i := 0; i < len(s); i++ {
		if frameBytes[s[i]] >= sepByte {
			return true
		}
	}
	return false
}

// Validate reports whether the frame can be safely encoded in a history
// file. Class and Method must be non-empty and must not contain whitespace
// or the reserved characters ';', '|', '='. Line must be non-negative.
func (f Frame) Validate() error {
	if f.Class == "" {
		return errors.New("frame: empty class")
	}
	if f.Method == "" {
		return errors.New("frame: empty method")
	}
	if hasReserved(f.Class) {
		return fmt.Errorf("frame: class %q contains reserved characters", f.Class)
	}
	if hasReserved(f.Method) {
		return fmt.Errorf("frame: method %q contains reserved characters", f.Method)
	}
	if f.Line < 0 {
		return fmt.Errorf("frame: negative line %d", f.Line)
	}
	return nil
}

// String renders the frame as "Class.Method:Line", the canonical encoding
// used in history files and diagnostics.
func (f Frame) String() string {
	var b strings.Builder
	b.Grow(len(f.Class) + len(f.Method) + 8)
	b.WriteString(f.Class)
	b.WriteByte('.')
	b.WriteString(f.Method)
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(f.Line))
	return b.String()
}

// ParseFrame parses the "Class.Method:Line" encoding produced by
// Frame.String. The method name is the segment after the last '.' before
// the final ':'; everything before it is the class.
func ParseFrame(s string) (Frame, error) {
	colon := strings.LastIndexByte(s, ':')
	if colon < 0 {
		return Frame{}, fmt.Errorf("parse frame %q: missing ':'", s)
	}
	line, err := strconv.Atoi(s[colon+1:])
	if err != nil {
		return Frame{}, fmt.Errorf("parse frame %q: bad line number: %w", s, err)
	}
	head := s[:colon]
	dot := strings.LastIndexByte(head, '.')
	if dot <= 0 || dot == len(head)-1 {
		return Frame{}, fmt.Errorf("parse frame %q: missing class or method", s)
	}
	f := Frame{Class: head[:dot], Method: head[dot+1:], Line: line}
	if err := f.Validate(); err != nil {
		return Frame{}, fmt.Errorf("parse frame %q: %w", s, err)
	}
	return f, nil
}

// CallStack is a sequence of frames, innermost (top of stack) first.
// The top frame of an outer call stack is the paper's "outer position",
// i.e. the lock statement itself.
type CallStack []Frame

// Top returns the innermost frame. It must not be called on an empty stack;
// callers in this package guard against that.
func (cs CallStack) Top() Frame { return cs[0] }

// Key returns the canonical string encoding of the stack: frames joined by
// ';', innermost first. Keys identify positions in the intern table and in
// history files.
func (cs CallStack) Key() string {
	switch len(cs) {
	case 0:
		return ""
	case 1:
		return cs[0].String()
	}
	var b strings.Builder
	for i, f := range cs {
		if i > 0 {
			b.WriteString(frameSeparator)
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// Truncate returns the stack limited to at most depth frames (from the
// top). Depth values below 1 are treated as 1, matching the paper's
// depth-1 outer call stacks. The result aliases the receiver.
func (cs CallStack) Truncate(depth int) CallStack {
	if depth < 1 {
		depth = 1
	}
	if len(cs) <= depth {
		return cs
	}
	return cs[:depth]
}

// Clone returns an independent copy of the stack. Positions store cloned
// stacks because capture buffers are reused by the VM (the paper's
// Thread.stackBuffer optimization).
func (cs CallStack) Clone() CallStack {
	if cs == nil {
		return nil
	}
	out := make(CallStack, len(cs))
	copy(out, cs)
	return out
}

// Equal reports whether two stacks contain the same frames in order.
func (cs CallStack) Equal(other CallStack) bool {
	if len(cs) != len(other) {
		return false
	}
	for i := range cs {
		if cs[i] != other[i] {
			return false
		}
	}
	return true
}

// Validate checks every frame and requires at least one frame.
func (cs CallStack) Validate() error {
	if len(cs) == 0 {
		return errors.New("call stack: empty")
	}
	for i, f := range cs {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("call stack frame %d: %w", i, err)
		}
	}
	return nil
}

// ParseCallStack parses the ';'-joined encoding produced by Key.
func ParseCallStack(s string) (CallStack, error) {
	if s == "" {
		return nil, errors.New("parse call stack: empty input")
	}
	parts := strings.Split(s, frameSeparator)
	cs := make(CallStack, 0, len(parts))
	for _, p := range parts {
		f, err := ParseFrame(p)
		if err != nil {
			return nil, fmt.Errorf("parse call stack: %w", err)
		}
		cs = append(cs, f)
	}
	return cs, nil
}

// CanonicalStack reports whether s is a call stack exactly as Key
// renders it: ParseCallStack accepts s and the stack's Key is s again.
// It makes one pass over s and allocates nothing when it accepts. Unlike
// ParseCallStack it also refuses non-canonical lines: "+5", "007", "-0".
func CanonicalStack(s string) bool {
	start, dot, colon := 0, -1, -1
	for i := 0; ; i++ {
		for i < len(s) && frameBytes[s[i]] == 0 {
			i++
		}
		if i < len(s) {
			switch frameBytes[s[i]] {
			case dotByte:
				dot = i
				continue
			case colonByte:
				colon = i
				continue
			case reservedByte:
				return false
			}
		}
		// s[start:i] is a frame: Class.Method:Line split at its last '.'.
		if colon < 0 || dot <= start || dot >= colon-1 || !canonicalLine(s[colon+1:i]) {
			return false
		}
		if i == len(s) {
			return true
		}
		start, dot, colon = i+1, -1, -1
	}
}

// canonicalLine reports whether d is strconv.Itoa of a non-negative int.
func canonicalLine(d string) bool {
	_, err := strconv.Atoi(d)
	return err == nil && (d == "0" || '1' <= d[0] && d[0] <= '9')
}
