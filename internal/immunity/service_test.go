package immunity

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
)

// testSig builds a deterministic two-party deadlock signature whose key is
// identical wherever it is built (so it deduplicates across devices).
func testSig(id int) *core.Signature {
	a := core.Frame{Class: "com.app.Svc1", Method: "methodA", Line: 10 + id*100}
	b := core.Frame{Class: "com.app.Svc2", Method: "methodB", Line: 20 + id*100}
	return &core.Signature{
		Kind: core.DeadlockSig,
		Pairs: []core.SigPair{
			{Outer: core.CallStack{a}, Inner: core.CallStack{a}},
			{Outer: core.CallStack{b}, Inner: core.CallStack{b}},
		},
	}
}

// starveSig builds a starvation-kind signature.
func starveSig(id int) *core.Signature {
	f := core.Frame{Class: "com.app.Starve", Method: "m", Line: id}
	return &core.Signature{
		Kind:  core.StarvationSig,
		Pairs: []core.SigPair{{Outer: core.CallStack{f}, Inner: core.CallStack{f}}},
	}
}

// attach wires a core to a service the way the Zygote does: the core's
// store is the service, and a subscription hot-installs deltas.
func attach(t *testing.T, svc *Service, name string) (*core.Core, func()) {
	t.Helper()
	from := svc.Epoch()
	c, err := core.New(core.WithStore(svc))
	if err != nil {
		t.Fatal(err)
	}
	cancel := svc.Subscribe(name, from, func(_ uint64, sigs []*core.Signature) {
		for _, sig := range sigs {
			_, _, _ = c.InstallSignature(sig)
		}
	})
	t.Cleanup(func() { cancel(); c.Close() })
	return c, cancel
}

// waitFor polls until cond or the deadline. The deadline is generous:
// the stress tests run ~30 busy goroutines through the wire codec on
// (in CI) one race-instrumented CPU, where convergence can take many
// seconds — the deadline only bounds how long a genuine failure takes
// to report.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// detectDeadlock drives a real two-thread cycle through c's detection so
// the recorded signature is published to c's store (the service). The
// outer positions use the same frames as testSig(0).
func detectDeadlock(t *testing.T, c *core.Core) {
	t.Helper()
	t1 := c.NewThreadNode("t1", nil)
	t2 := c.NewThreadNode("t2", nil)
	lA := c.NewLockNode("A")
	lB := c.NewLockNode("B")
	posA, err := c.Intern(core.CallStack{{Class: "com.app.Svc1", Method: "methodA", Line: 10}})
	if err != nil {
		t.Fatal(err)
	}
	posB, err := c.Intern(core.CallStack{{Class: "com.app.Svc2", Method: "methodB", Line: 20}})
	if err != nil {
		t.Fatal(err)
	}
	// t1 holds A (acquired at posA), t2 holds B (acquired at posB).
	if err := c.Request(t1, lA, posA); err != nil {
		t.Fatal(err)
	}
	c.Acquired(t1, lA)
	if err := c.Request(t2, lB, posB); err != nil {
		t.Fatal(err)
	}
	c.Acquired(t2, lB)
	// t2 requests A (blocks behind t1), then t1 requests B: cycle.
	if err := c.Request(t2, lA, posA); err != nil {
		t.Fatal(err)
	}
	if err := c.Request(t1, lB, posB); err != nil {
		t.Fatal(err)
	}
	if c.Stats().DeadlocksDetected != 1 {
		t.Fatalf("deadlock not detected: %+v", c.Stats())
	}
}

// TestLivePropagation is the core propagation table: a signature that
// becomes known in process A — by real detection or by direct publication
// — is armed in already-running processes B and C without any restart.
func TestLivePropagation(t *testing.T) {
	cases := []struct {
		name    string
		inject  func(t *testing.T, svc *Service, a *core.Core)
		wantKey string
	}{
		{
			name:    "real deadlock detected in A",
			inject:  func(t *testing.T, _ *Service, a *core.Core) { detectDeadlock(t, a) },
			wantKey: testSig(0).Key(),
		},
		{
			name: "signature added via A's AddSignature",
			inject: func(t *testing.T, _ *Service, a *core.Core) {
				if _, fresh, err := a.AddSignature(testSig(1)); err != nil || !fresh {
					t.Fatalf("add: fresh=%v err=%v", fresh, err)
				}
			},
			wantKey: testSig(1).Key(),
		},
		{
			name: "published directly to the service",
			inject: func(t *testing.T, svc *Service, _ *core.Core) {
				if _, fresh, err := svc.Publish("vendor", testSig(2)); err != nil || !fresh {
					t.Fatalf("publish: fresh=%v err=%v", fresh, err)
				}
			},
			wantKey: testSig(2).Key(),
		},
		{
			name: "starvation signature propagates too",
			inject: func(t *testing.T, _ *Service, a *core.Core) {
				if _, _, err := a.AddSignature(starveSig(3)); err != nil {
					t.Fatal(err)
				}
			},
			wantKey: starveSig(3).Key(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewService("phone0", core.NewMemHistory())
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			a, _ := attach(t, svc, "procA")
			b, _ := attach(t, svc, "procB")
			cCore, _ := attach(t, svc, "procC")

			tc.inject(t, svc, a)

			for _, target := range []*core.Core{b, cCore} {
				tgt := target
				waitFor(t, "signature armed in live process", func() bool {
					for _, info := range tgt.History() {
						sig := &core.Signature{Kind: info.Kind, Pairs: info.Pairs}
						if sig.Key() == tc.wantKey {
							return true
						}
					}
					return false
				})
				if got := tgt.Stats().SignaturesInstalled; got != 1 {
					t.Errorf("hot-installs = %d, want 1", got)
				}
			}
		})
	}
}

// TestPropagationArmsAvoidance: the hot-installed signature actually arms
// avoidance in the receiving process — a thread whose acquisition would
// instantiate it yields, with no restart of process B.
func TestPropagationArmsAvoidance(t *testing.T) {
	svc, err := NewService("phone0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	a, _ := attach(t, svc, "procA")
	b, _ := attach(t, svc, "procB")

	detectDeadlock(t, a)
	waitFor(t, "B armed", func() bool { return b.HistorySize() == 1 })

	// In B, reproduce the first half of the pattern: t1 holds A at the
	// signature's first position; t2 then requesting at the second
	// position would make the signature instantiable → t2 must yield.
	t1 := b.NewThreadNode("t1", nil)
	t2 := b.NewThreadNode("t2", nil)
	lA := b.NewLockNode("A")
	lB := b.NewLockNode("B")
	posA, err := b.Intern(core.CallStack{{Class: "com.app.Svc1", Method: "methodA", Line: 10}})
	if err != nil {
		t.Fatal(err)
	}
	posB, err := b.Intern(core.CallStack{{Class: "com.app.Svc2", Method: "methodB", Line: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Request(t1, lA, posA); err != nil {
		t.Fatal(err)
	}
	b.Acquired(t1, lA)
	done := make(chan error, 1)
	go func() { done <- b.Request(t2, lB, posB) }()
	waitFor(t, "avoidance yield in B", func() bool { return b.Stats().Yields == 1 })
	b.Release(t1, lA)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServiceEpochAndCatchup: epochs are dense acceptance counters, and a
// subscriber naming an old epoch receives exactly the signatures after it.
func TestServiceEpochAndCatchup(t *testing.T) {
	svc, err := NewService("phone0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for i := 0; i < 3; i++ {
		epoch, fresh, err := svc.Publish("local", testSig(i))
		if err != nil || !fresh {
			t.Fatalf("publish %d: fresh=%v err=%v", i, fresh, err)
		}
		if epoch != uint64(i+1) {
			t.Fatalf("epoch after publish %d = %d, want %d", i, epoch, i+1)
		}
	}

	got := make(chan view[*core.Signature], 4)
	cancel := svc.Subscribe("late", 1, func(epoch uint64, sigs []*core.Signature) {
		got <- view[*core.Signature]{log: sigs, epoch: epoch}
	})
	defer cancel()
	select {
	case d := <-got:
		if d.epoch != 3 || len(d.sigs()) != 2 {
			t.Fatalf("catch-up delta epoch=%d sigs=%d, want epoch=3 sigs=2", d.epoch, len(d.sigs()))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no catch-up delta")
	}

	// A live publish follows catch-up, in order.
	if _, _, err := svc.Publish("local", testSig(9)); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if d.epoch != 4 || len(d.sigs()) != 1 {
			t.Fatalf("live delta epoch=%d sigs=%d, want epoch=4 sigs=1", d.epoch, len(d.sigs()))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no live delta")
	}
}

// TestServiceDedupAndProvenance: duplicate publications are rejected and
// the first source wins provenance.
func TestServiceDedupAndProvenance(t *testing.T) {
	svc, err := NewService("phone0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, fresh, err := svc.Publish("procA", testSig(0)); err != nil || !fresh {
		t.Fatalf("first publish: fresh=%v err=%v", fresh, err)
	}
	epoch, fresh, err := svc.Publish("procB", testSig(0))
	if err != nil {
		t.Fatal(err)
	}
	if fresh || epoch != 1 {
		t.Errorf("duplicate publish: fresh=%v epoch=%d, want false/1", fresh, epoch)
	}
	if src := svc.SourceOf(testSig(0).Key()); src != "procA" {
		t.Errorf("source = %q, want procA", src)
	}
	st := svc.Stats()
	if st.Published != 1 || st.Duplicates != 1 {
		t.Errorf("stats = %+v, want 1 published / 1 duplicate", st)
	}
}

// TestServiceSingleWriter: with the service in front, the on-flash file
// has exactly one writer; concurrent detections from many cores end up as
// clean, deduplicated blocks.
func TestServiceSingleWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "device.hist")
	svc, err := NewService("phone0", core.NewFileHistory(path))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const procs = 4
	cores := make([]*core.Core, procs)
	for i := range cores {
		cores[i], _ = attach(t, svc, fmt.Sprintf("proc%d", i))
	}
	done := make(chan error, procs)
	for i, c := range cores {
		go func(i int, c *core.Core) {
			for j := 0; j < 8; j++ {
				// Every process publishes the same 8 bugs: one writer, no dups.
				if _, _, err := c.AddSignature(testSig(j)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i, c)
	}
	for i := 0; i < procs; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	sigs, err := core.NewFileHistory(path).Load()
	if err != nil {
		t.Fatalf("strict load: %v", err)
	}
	if len(sigs) != 8 {
		t.Fatalf("file has %d signatures, want 8", len(sigs))
	}
}

// TestServiceReloadFromStore: a service rebuilt over an existing store
// (device reboot) starts at the persisted epoch.
func TestServiceReloadFromStore(t *testing.T) {
	store := core.NewMemHistory()
	svc, err := NewService("phone0", store)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Publish("local", testSig(1)); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc2, err := NewService("phone0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Epoch(); got != 2 {
		t.Errorf("epoch after reload = %d, want 2", got)
	}
	// Dedup still holds across the reboot.
	if _, fresh, err := svc2.Publish("local", testSig(0)); err != nil || fresh {
		t.Errorf("re-publish after reload: fresh=%v err=%v, want false/nil", fresh, err)
	}
}

// TestSubscribeCancelStopsDelivery: after cancel, no further deltas reach
// the subscriber, and cancel is idempotent.
func TestSubscribeCancelStopsDelivery(t *testing.T) {
	svc, err := NewService("phone0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var n int
	ch := make(chan struct{}, 8)
	cancel := svc.Subscribe("obs", 0, func(uint64, []*core.Signature) { n++; ch <- struct{}{} })
	if _, _, err := svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	<-ch
	cancel()
	cancel()
	if _, _, err := svc.Publish("local", testSig(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if n != 1 {
		t.Errorf("deliveries after cancel = %d, want 1", n)
	}
	if subs := svc.Stats().Subscribers; subs != 0 {
		t.Errorf("subscribers = %d, want 0", subs)
	}
}
