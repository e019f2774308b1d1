package immunity

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// fanOutSession is one raw device session that records every message
// the hub sends it. A stalled session blocks in its first delta until
// unstall: over the loopback that stalls the hub's drain of the
// session's push queue, over TCP the client's reads.
type fanOutSession struct {
	tenant  string
	since   uint64
	sess    Session
	stalled chan struct{} // closed once the session blocks in its first delta
	release chan struct{}
	once    sync.Once

	mu   sync.Mutex
	msgs []wire.Message
}

// dialFanOut attaches device in tenant with a hello resuming from epoch
// since under the hub incarnation gen, and waits for the ack. The token
// is ignored by a hub without a verifier.
func dialFanOut(t *testing.T, tr Transport, gen, tenant, device string, since uint64, stall bool) *fanOutSession {
	t.Helper()
	s := &fanOutSession{tenant: tenant, since: since, stalled: make(chan struct{}), release: make(chan struct{})}
	if !stall {
		s.unstall()
	}
	first := true
	sess, err := tr.Dial(func(m wire.Message) {
		if first && m.Type == wire.TypeDelta {
			first = false
			close(s.stalled)
			<-s.release
		}
		s.mu.Lock()
		s.msgs = append(s.msgs, m)
		s.mu.Unlock()
	}, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	s.sess = sess
	t.Cleanup(s.close)
	hello := wire.Message{V: wire.Version, Type: wire.TypeHello, Hello: &wire.Hello{Device: device,
		Token: mintFor(t, auth.Claims{Tenant: tenant, Device: device}), Epochs: map[string]uint64{gen: since},
		MinV: wire.Version, MaxV: wire.Version}}
	if err := sess.Send(hello); err != nil {
		t.Fatal(err)
	}
	waitFor(t, device+"'s ack", func() bool { return len(s.received()) > 0 })
	return s
}

func (s *fanOutSession) unstall() { s.once.Do(func() { close(s.release) }) }

// close detaches the session; a stalled drain is let go first, or the
// loopback's Close would wait on it forever.
func (s *fanOutSession) close() {
	s.unstall()
	s.sess.Close()
}

func (s *fanOutSession) received() []wire.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.msgs)
}

// sigCount is how many delta signatures the session has received.
func (s *fanOutSession) sigCount() (n int) {
	for _, m := range s.received() {
		if m.Type == wire.TypeDelta {
			n += len(m.Delta.Sigs)
		}
	}
	return n
}

// keys maps delta signatures to their keys.
func keys(t *testing.T, sigs []wire.Signature) []string {
	t.Helper()
	out := make([]string, len(sigs))
	for i, ws := range sigs {
		sig, err := ws.ToCore()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sig.Key()
	}
	return out
}

// testKeys is the keys of testSig(from) .. testSig(to-1).
func testKeys(from, to int) []string {
	var out []string
	for i := from; i < to; i++ {
		out = append(out, testSig(i).Key())
	}
	return out
}

// TestFanOutEquivalence drives a seeded script against one hub, over
// the loopback and over TCP: armings in two tenants, hellos from random
// epochs, detaches, and sessions whose drain stalls for a while. Every
// session must receive the ack first, then exactly its tenant's armings
// with an epoch above its hello's, each once and in epoch order (a
// prefix of them if it left early), in deltas whose epochs never go
// down.
func TestFanOutEquivalence(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "loopback"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				fanOutWalk(t, tcp, seed)
			}
		})
	}
}

func fanOutWalk(t *testing.T, tcp bool, seed int64) {
	hub := newTestHub(t, 1, WithAuthVerifier(auth.NewStatic(authFleetKey)))
	var tr Transport = NewLoopback(hub)
	if tcp {
		srv, err := ServeTCP(hub, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		tr = NewTCPTransport(srv.Addr())
	}
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"", "t2"}
	armed := map[string][]uint64{} // arm epochs by tenant, in order
	epochOf := map[string]uint64{} // arm epoch by signature key
	var live, left []*fanOutSession
	for step := 0; step < 60; step++ {
		switch r := rng.Intn(10); {
		case r < 4:
			tenant, sig := tenants[rng.Intn(2)], testSig(int(seed)*100+step)
			hub.reportFrom(tenant, "reporter", checked(sig), 0)
			epoch := hub.Stats().Epoch
			armed[tenant] = append(armed[tenant], epoch)
			epochOf[sig.Key()] = epoch
		case r < 7:
			since := uint64(rng.Int63n(int64(hub.Stats().Epoch) + 1))
			device := fmt.Sprintf("dev%d", len(live)+len(left))
			live = append(live, dialFanOut(t, tr, hub.gen, tenants[rng.Intn(2)], device, since, rng.Intn(3) == 0))
		case r == 7:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				live[i].close()
				left = append(left, live[i])
				live = slices.Delete(live, i, i+1)
			}
		default:
			if len(live) > 0 {
				live[rng.Intn(len(live))].unstall()
			}
		}
	}

	want := func(s *fanOutSession) []uint64 {
		return slices.DeleteFunc(slices.Clone(armed[s.tenant]), func(e uint64) bool { return e <= s.since })
	}
	for _, s := range live {
		s.unstall()
		waitFor(t, fmt.Sprintf("seed %d: a session's armings", seed), func() bool { return s.sigCount() >= len(want(s)) })
		s.close()
	}
	check := func(s *fanOutSession, whole bool) {
		t.Helper()
		msgs := s.received()
		if len(msgs) == 0 || msgs[0].Type != wire.TypeAck || !msgs[0].Ack.OK {
			t.Fatalf("seed %d: first message %+v, want an ok ack", seed, msgs)
		}
		var got []uint64
		var last uint64
		for _, m := range msgs[1:] {
			if m.Type != wire.TypeDelta {
				t.Fatalf("seed %d: unexpected %s after the ack", seed, m.Type)
			}
			if m.Delta.Epoch < last {
				t.Fatalf("seed %d: delta epoch %d after %d", seed, m.Delta.Epoch, last)
			}
			last = m.Delta.Epoch
			for _, key := range keys(t, m.Delta.Sigs) {
				if e := epochOf[key]; e > m.Delta.Epoch {
					t.Fatalf("seed %d: a delta at epoch %d carries the arming of epoch %d", seed, m.Delta.Epoch, e)
				}
				got = append(got, epochOf[key])
			}
		}
		w := want(s)
		if !whole && len(got) <= len(w) {
			w = w[:len(got)]
		}
		if !slices.Equal(got, w) {
			t.Fatalf("seed %d: %q session from epoch %d (live to the end: %v) got armings %v, want %v",
				seed, s.tenant, s.since, whole, got, w)
		}
	}
	for _, s := range live {
		check(s, true)
	}
	for _, s := range left {
		check(s, false)
	}
}

// TestMergeSharesTheLogAndNeverWritesIntoIt: deltas that coalesced
// behind a stalled drain reach every session as one view of the arming
// log — the same memory, not a copy per session — and the view is
// cap-clipped, so a consumer that appends to it writes into its own
// copy, never into the log that later deltas and catch-ups read.
func TestMergeSharesTheLogAndNeverWritesIntoIt(t *testing.T) {
	const n = 50
	hub := newTestHub(t, 1)
	a := dialFanOut(t, NewLoopback(hub), hub.gen, "", "obs-a", 0, true)
	b := dialFanOut(t, NewLoopback(hub), hub.gen, "", "obs-b", 0, true)
	hub.report("src", testSig(0))
	<-a.stalled
	<-b.stalled
	for i := 1; i <= n; i++ {
		hub.report("src", testSig(i))
	}
	a.unstall()
	b.unstall()
	waitFor(t, "both sessions' coalesced delta", func() bool { return len(a.received()) == 3 && len(b.received()) == 3 })
	da, db := a.received()[2].Delta, b.received()[2].Delta
	if da.Epoch != n+1 || len(da.Sigs) != n {
		t.Fatalf("coalesced delta at epoch %d with %d signatures, want %d and %d", da.Epoch, len(da.Sigs), n+1, n)
	}
	if &da.Sigs[0] != &db.Sigs[0] {
		t.Fatal("the coalesced delta was copied per session instead of shared from the arming log")
	}
	if cap(da.Sigs) != len(da.Sigs) {
		t.Fatalf("delta has cap %d beyond its %d signatures: an append would write into the log", cap(da.Sigs), len(da.Sigs))
	}
	mine := append(da.Sigs, wire.FromCore(testSig(-1)))
	mine[0] = wire.FromCore(testSig(-2))

	hub.report("src", testSig(n+1))
	c := dialFanOut(t, NewLoopback(hub), hub.gen, "", "obs-c", 0, false)
	waitFor(t, "the late session's catch-up", func() bool { return c.sigCount() == n+2 })
	if got := keys(t, c.received()[1].Delta.Sigs); !slices.Equal(got, testKeys(0, n+2)) {
		t.Fatalf("catch-up after a consumer's append: %v", got)
	}
	if got := keys(t, db.Sigs); !slices.Equal(got, testKeys(1, n+1)) {
		t.Fatalf("the other session's delta after a consumer's append: %v", got)
	}
}

// drainAllocs lets a stalled drain go and counts the heap allocations
// made until its queue is empty: coalescing and delivering what was
// pending.
func drainAllocs(unstall func(), pending func() int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	unstall()
	for pending() != 0 {
		runtime.Gosched()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// maxDrainAllocs bounds drainAllocs for one pending delta of any size:
// a few for the delivery itself, the rest slack for whatever else the
// test binary runs meanwhile. Pairwise merging costs two per arming.
const maxDrainAllocs = 100

// TestMergeStalledSessionHoldsOneDelta: a thousand armings behind a
// stalled hub session leave it holding one pending delta, and draining
// it makes O(1) allocations — not one merged copy per arming.
func TestMergeStalledSessionHoldsOneDelta(t *testing.T) {
	const n = 1000
	hub := newTestHub(t, 1)
	o := dialFanOut(t, NewLoopback(hub), hub.gen, "", "obs", 0, true)
	hub.report("src", testSig(0))
	<-o.stalled
	for i := 1; i <= n; i++ {
		hub.report("src", testSig(i))
	}
	hub.mu.Lock()
	q := hub.conns["obs"].out
	hub.mu.Unlock()
	if p := q.Pending(); p != 2 {
		t.Fatalf("stalled session holds %d deliveries after %d armings, want 2 (one in flight, one pending)", p, n)
	}
	allocs := drainAllocs(o.unstall, q.Pending)
	msgs := o.received()
	if len(msgs) != 3 || msgs[2].Delta.Epoch != n+1 || len(msgs[2].Delta.Sigs) != n {
		t.Fatalf("got %d messages, want the ack, the first delta and one delta of %d at epoch %d", len(msgs), n, n+1)
	}
	if allocs > maxDrainAllocs {
		t.Fatalf("draining one coalesced delta of %d armings made %d allocations, want at most %d", n, allocs, maxDrainAllocs)
	}
}

// TestMergeStalledSubscriberHoldsOneDelta is the Service's twin: a
// thousand publishes behind a stalled subscriber leave one pending
// delta, delivered in one callback with O(1) allocations.
func TestMergeStalledSubscriberHoldsOneDelta(t *testing.T) {
	const n = 1000
	svc, err := NewService("phone0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stalled, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	var mu sync.Mutex
	var epochs []uint64
	var sizes []int
	cancel := svc.Subscribe("slow", 0, func(epoch uint64, sigs []*core.Signature) {
		if epoch == 1 {
			close(stalled)
			<-release
		}
		mu.Lock()
		epochs, sizes = append(epochs, epoch), append(sizes, len(sigs))
		mu.Unlock()
	})
	defer cancel()
	defer unstall()
	if _, _, err := svc.Publish("local", testSig(0)); err != nil {
		t.Fatal(err)
	}
	<-stalled
	for i := 1; i <= n; i++ {
		if _, _, err := svc.Publish("local", testSig(i)); err != nil {
			t.Fatal(err)
		}
	}
	svc.mu.Lock()
	var sub *subscriber
	for _, s := range svc.subs {
		sub = s
	}
	svc.mu.Unlock()
	if p := sub.Pending(); p != 2 {
		t.Fatalf("stalled subscriber holds %d deliveries after %d publishes, want 2 (one in flight, one pending)", p, n)
	}
	allocs := drainAllocs(unstall, sub.Pending)
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(epochs, []uint64{1, n + 1}) || !slices.Equal(sizes, []int{1, n}) {
		t.Fatalf("deliveries at epochs %v with sizes %v, want [1 %d] and [1 %d]", epochs, sizes, n+1, n)
	}
	if allocs > maxDrainAllocs {
		t.Fatalf("draining one coalesced delta of %d publishes made %d allocations, want at most %d", n, allocs, maxDrainAllocs)
	}
}
