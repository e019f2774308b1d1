package core

import (
	"strings"
	"testing"
)

// Accessor and Stringer coverage: small behaviours that diagnostics and
// the CLI tools depend on.

func TestEnumStrings(t *testing.T) {
	tests := []struct {
		got  string
		want string
	}{
		{DeadlockSig.String(), "deadlock"},
		{StarvationSig.String(), "starvation"},
		{SigKind(42).String(), "SigKind(42)"},
		{ThreadNode.String(), "thread"},
		{LockNode.String(), "lock"},
		{NodeKind(9).String(), "NodeKind(9)"},
		{EventDeadlockDetected.String(), "deadlock-detected"},
		{EventSignatureLoaded.String(), "signature-loaded"},
		{EventYield.String(), "yield"},
		{EventResume.String(), "resume"},
		{EventStarvation.String(), "starvation"},
		{EventDuplicateDeadlock.String(), "duplicate-deadlock"},
		{EventKind(12).String(), "EventKind(12)"},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
}

func TestNodeAccessors(t *testing.T) {
	h := newHarness(t)
	n := h.thread("worker")
	if n.Kind() != ThreadNode {
		t.Errorf("Kind = %v", n.Kind())
	}
	if n.ID() == 0 {
		t.Error("ID must be assigned")
	}
	if n.Name() != "worker" {
		t.Errorf("Name = %q", n.Name())
	}
	if s := n.String(); !strings.Contains(s, "worker") || !strings.Contains(s, "thread") {
		t.Errorf("String = %q", s)
	}
}

func TestEventString(t *testing.T) {
	ev := Event{
		Kind:       EventYield,
		ThreadID:   7,
		ThreadName: "binder",
		Pos:        "a.B.m:1",
		Sig:        SignatureInfo{ID: 2, Kind: DeadlockSig},
	}
	s := ev.String()
	for _, needle := range []string{"yield", "binder", "a.B.m:1", "deadlock#2"} {
		if !strings.Contains(s, needle) {
			t.Errorf("Event.String() missing %q: %q", needle, s)
		}
	}
}

func TestCoreConfigAccessor(t *testing.T) {
	h := newHarness(t, WithOuterDepth(3))
	if got := h.c.Config().OuterDepth; got != 3 {
		t.Errorf("Config().OuterDepth = %d, want 3", got)
	}
}

func TestSignatureIDBeforeInstall(t *testing.T) {
	sig := sigOf(DeadlockSig, fr("a.B", "m", 1), fr("c.D", "n", 2))
	if sig.ID() != -1 {
		t.Errorf("uninstalled signature ID = %d, want -1", sig.ID())
	}
	h := newHarness(t)
	mustAdd(t, h.c, sig)
	// The installed copy carries an id; the original is untouched.
	if h.c.History()[0].ID != 0 {
		t.Errorf("installed ID = %d, want 0", h.c.History()[0].ID)
	}
}

func TestFileHistoryPathAndFsync(t *testing.T) {
	fh := NewFileHistory("/tmp/x.hist", WithFsync())
	if fh.Path() != "/tmp/x.hist" {
		t.Errorf("Path = %q", fh.Path())
	}
}

func TestAbortMismatchedLock(t *testing.T) {
	h := newHarness(t)
	th := h.thread("t")
	l1, l2 := h.lock("l1"), h.lock("l2")
	p := h.pos("A", "m", 1)
	if err := h.c.Request(th, l1, p); err != nil {
		t.Fatal(err)
	}
	// Aborting a different lock is a misuse, tolerated without corrupting
	// the pending request.
	h.c.Abort(th, l2)
	if st := h.c.Stats(); st.Misuse == 0 {
		t.Error("mismatched abort must count as misuse")
	}
	if th.reqLock != l1 {
		t.Error("mismatched abort must not clear the real request")
	}
	h.c.Abort(th, l1)
	if th.reqLock != nil {
		t.Error("matched abort must clear the request")
	}
}

func TestEncodeHistoryRejectsInvalid(t *testing.T) {
	var sb strings.Builder
	err := EncodeHistory(&sb, []*Signature{{Kind: DeadlockSig}})
	if err == nil {
		t.Error("encoding an invalid signature must fail")
	}
}
