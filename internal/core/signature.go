package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// SigKind distinguishes signatures of real deadlocks from signatures of
// avoidance-induced deadlocks (starvation).
type SigKind int

// Signature kinds.
const (
	// DeadlockSig marks the signature of an observed mutex deadlock.
	DeadlockSig SigKind = iota + 1
	// StarvationSig marks the signature of an avoidance-induced deadlock:
	// a yield pattern that blocked progress. Dimmunix "will subsequently
	// avoid entering the same starvation condition again, just like it
	// does for a normal deadlock" (§2.2).
	StarvationSig
)

// String returns the canonical kind name used in history files.
func (k SigKind) String() string {
	switch k {
	case DeadlockSig:
		return "deadlock"
	case StarvationSig:
		return "starvation"
	default:
		return fmt.Sprintf("SigKind(%d)", int(k))
	}
}

// ParseSigKind is the inverse of SigKind.String.
func ParseSigKind(s string) (SigKind, error) {
	switch s {
	case "deadlock":
		return DeadlockSig, nil
	case "starvation":
		return StarvationSig, nil
	default:
		return 0, fmt.Errorf("unknown signature kind %q", s)
	}
}

// SigPair is one deadlocked thread's contribution to a signature: the call
// stack it had when it acquired the lock involved in the deadlock (outer),
// and its call stack at the moment of the deadlock (inner). "Only the
// outer call stacks are relevant for the avoidance; the inner call stacks
// are kept just to offer more information about the deadlock" (§2.2).
type SigPair struct {
	Outer CallStack
	Inner CallStack
}

// Validate checks both stacks.
func (p SigPair) Validate() error {
	if err := p.Outer.Validate(); err != nil {
		return fmt.Errorf("outer: %w", err)
	}
	if err := p.Inner.Validate(); err != nil {
		return fmt.Errorf("inner: %w", err)
	}
	return nil
}

// Signature is a deadlock antibody: an approximation of the execution flow
// that led to a deadlock, consisting of one (outer, inner) call-stack pair
// per involved thread (§2.1). A deadlock bug is uniquely delimited by the
// outer and inner positions of its signature.
//
// The exported fields are the persistent part; the unexported fields are
// per-process runtime state (resolved positions and the condition variable
// avoidance yields on) populated when the signature is installed into a
// Core.
type Signature struct {
	Kind  SigKind
	Pairs []SigPair

	// id is the index of the signature in its Core's history.
	id int
	// slots holds the interned Position of each pair's outer stack, in
	// pair order. Two pairs with identical outer stacks share a *Position.
	slots []*Position
	// cond is the condition variable threads yield on while this signature
	// is instantiable; its Locker is the Core's engine lock, write side
	// (the paper's per-signature wait/notifyAll).
	cond *sync.Cond
	// stats, incremented under the exclusive engine lock but read by
	// History() snapshots without it, hence atomic.
	matches uint64 // instantiations found (yields caused)
	hits    uint64 // times detection re-encountered this signature

	// key caches Key(): Kind and Pairs are fixed once a signature is
	// built, and the device side asks for the key per message. Atomic:
	// racing first callers compute the same string; one wins, harmlessly.
	key atomic.Pointer[string]
}

// ValidateShape is the signature shape rule: a known kind, with at least
// two pairs for a deadlock (two threads) and one for starvation.
func ValidateShape(kind SigKind, pairs int) error {
	switch kind {
	case DeadlockSig:
		if pairs < 2 {
			return fmt.Errorf("deadlock signature needs >=2 pairs, got %d", pairs)
		}
	case StarvationSig:
		if pairs < 1 {
			return fmt.Errorf("starvation signature needs >=1 pair, got %d", pairs)
		}
	default:
		return fmt.Errorf("invalid signature kind %d", int(kind))
	}
	return nil
}

// Validate checks the signature's shape and every pair's stacks.
func (s *Signature) Validate() error {
	if err := ValidateShape(s.Kind, len(s.Pairs)); err != nil {
		return err
	}
	for i, p := range s.Pairs {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("pair %d: %w", i, err)
		}
	}
	return nil
}

// Key returns a canonical identity for the signature: its kind plus the
// sorted multiset of outer stack keys. Signatures matching the same
// deadlock bug (same outer positions) map to the same key regardless of
// thread enumeration order, which is how the history deduplicates repeat
// detections of one bug.
func (s *Signature) Key() string {
	if k := s.key.Load(); k != nil {
		return *k
	}
	keys := make([]string, len(s.Pairs))
	for i, p := range s.Pairs {
		keys[i] = p.Outer.Key()
	}
	k := SignatureKey(s.Kind, keys)
	s.key.Store(&k)
	return k
}

// SignatureKey is the one signature key rule, over the kind and the
// outer stacks' keys: "kind{o1|o2|...}" with the outer keys sorted. It
// sorts outers in place, and the returned string is its only allocation.
func SignatureKey(kind SigKind, outers []string) string {
	slices.Sort(outers)
	n := len(kind.String()) + len(outers) + 1
	for _, o := range outers {
		n += len(o)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(kind.String())
	b.WriteByte('{')
	for i, o := range outers {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(o)
	}
	b.WriteByte('}')
	return b.String()
}

// ID returns the signature's index in its Core's history, or -1 if the
// signature has not been installed.
func (s *Signature) ID() int {
	if s.cond == nil {
		return -1
	}
	return s.id
}

// ClonePairs deep-copies signature pairs, so a copied or installed
// signature never aliases caller-owned stacks.
func ClonePairs(pairs []SigPair) []SigPair {
	out := make([]SigPair, len(pairs))
	for i, p := range pairs {
		out[i] = SigPair{Outer: p.Outer.Clone(), Inner: p.Inner.Clone()}
	}
	return out
}

// SignatureInfo is an immutable snapshot of an installed signature,
// returned by Core.History and carried on events. It never aliases live
// core state.
type SignatureInfo struct {
	// ID is the signature's index in the history.
	ID int
	// Kind is the signature kind.
	Kind SigKind
	// Pairs are deep copies of the signature's pairs.
	Pairs []SigPair
	// Matches counts instantiations found (avoidance yields caused).
	Matches uint64
	// Hits counts repeat detections of this same bug.
	Hits uint64
}

// snapshot builds a SignatureInfo from an installed signature.
func (s *Signature) snapshot() SignatureInfo {
	return SignatureInfo{
		ID:      s.id,
		Kind:    s.Kind,
		Pairs:   ClonePairs(s.Pairs),
		Matches: atomic.LoadUint64(&s.matches),
		Hits:    atomic.LoadUint64(&s.hits),
	}
}

// String renders a compact description, e.g.
// "deadlock#3[A.b:1 | C.d:2]".
func (info SignatureInfo) String() string {
	outs := make([]string, len(info.Pairs))
	for i, p := range info.Pairs {
		outs[i] = p.Outer.Key()
	}
	return fmt.Sprintf("%s#%d[%s]", info.Kind, info.ID, strings.Join(outs, " | "))
}
