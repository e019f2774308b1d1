package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// The step tables drive leaseState and probeState directly: synthetic
// times, no goroutine, no transport. Each row is one rule of the lease
// or of the failure detector, stepped event by event.

var t0 = time.Unix(1_000_000, 0)

// TestLeaseStep: a 30 ms lease, so rounds open every 10 ms. Each step
// is a renewal tick or a grant/refusal, then the expected held flag and
// expiry (as an offset from t0; never = none yet).
func TestLeaseStep(t *testing.T) {
	const ttl, never = 30 * time.Millisecond, time.Duration(-1)
	ms := time.Millisecond
	type step struct {
		tick   bool
		at     time.Duration
		ack    wire.LeaseAck
		held   bool
		expiry time.Duration
	}
	tick := func(at time.Duration, held bool, expiry time.Duration) step {
		return step{tick: true, at: at, held: held, expiry: expiry}
	}
	ack := func(from string, seq uint64, ok, held bool, expiry time.Duration) step {
		return step{ack: wire.LeaseAck{From: from, Seq: seq, OK: ok}, held: held, expiry: expiry}
	}
	// Five members of which two are down still count five.
	downs := newMembership("a", "", []wire.MemberInfo{{ID: "b"}, {ID: "c"}, {ID: "d"}, {ID: "e"}})
	downs.markDown("d")
	downs.markDown("e")
	for _, row := range []struct {
		name    string
		members int
		steps   []step
	}{
		{"a majority grant holds until round start + TTL and is lost at the first tick after", 3, []step{
			tick(0, false, never), ack("b", 1, true, true, ttl),
			tick(10*ms, true, ttl), tick(20*ms, true, ttl), tick(30*ms, true, ttl),
			tick(40*ms, false, ttl)}},
		{"a previous-round grant extends from its own round's start", 3, []step{
			tick(0, false, never), tick(10*ms, false, never), ack("b", 1, true, true, ttl)}},
		{"a late previous-round majority never retracts a later expiry", 3, []step{
			tick(0, false, never), tick(10*ms, false, never),
			ack("b", 2, true, true, 40*ms), ack("c", 1, true, true, 40*ms)}},
		{"a grant two rounds old changes nothing", 3, []step{
			tick(0, false, never), tick(10*ms, false, never), tick(20*ms, false, never),
			ack("b", 1, true, false, never)}},
		{"a refusal changes nothing", 3, []step{
			tick(0, false, never), ack("b", 1, false, false, never)}},
		{"a single-member cluster holds at its first round", 1, []step{
			tick(0, true, ttl), tick(10*ms, true, 40*ms)}},
		{"down members count in the denominator, a repeated grant once", downs.count(), []step{
			tick(0, false, never), ack("b", 1, true, false, never), ack("b", 1, true, false, never),
			ack("c", 1, true, true, ttl)}},
	} {
		ls := newLeaseState("a", ttl)
		for i, s := range row.steps {
			if s.tick {
				ls.tick(t0.Add(s.at), 1, row.members)
			} else {
				ls.ack(s.ack, row.members)
			}
			expiry := never
			if !ls.expiry.IsZero() {
				expiry = ls.expiry.Sub(t0)
			}
			if ls.held != s.held || expiry != s.expiry {
				t.Errorf("%s, step %d: held %v expiry %v; want %v %v", row.name, i, ls.held, expiry, s.held, s.expiry)
			}
		}
	}
}

// render is a probe step as one line: escalations, new suspects, mark
// downs, the direct ping.
func render(st probeStep) string {
	var out []string
	var ind []string
	for _, pg := range st.indirect {
		ind = append(ind, fmt.Sprintf("indirect:%s#%d", pg.Target, pg.Seq))
	}
	sort.Strings(ind)
	out = append(out, ind...)
	if st.suspects > 0 {
		out = append(out, fmt.Sprintf("suspect:+%d", st.suspects))
	}
	down := append([]string(nil), st.down...)
	sort.Strings(down)
	for _, id := range down {
		out = append(out, "down:"+id)
	}
	if st.ping != nil {
		out = append(out, fmt.Sprintf("ping:%s#%d", st.ping.Target, st.ping.Seq))
	}
	return strings.Join(out, " ")
}

// TestProbeStep: FailoverAfter 80 ms gives a 20 ms interval, a 10 ms
// timeout and a 40 ms suspicion window. Each step is a tick with the
// rendered step it must return, or an event between ticks.
func TestProbeStep(t *testing.T) {
	pc := resolveProbe(Config{FailoverAfter: 80 * time.Millisecond})
	if pc.timeout != 10*time.Millisecond || pc.suspect != 40*time.Millisecond {
		t.Fatalf("timings %+v", pc)
	}
	ms := time.Millisecond
	type step struct {
		at     time.Duration
		want   string
		alive  string // proof of life from this member instead of a tick
		acked  string // ack from this target for seq, instead of a tick
		seq    uint64
		failed uint64 // this direct ping's send failed, instead of a tick
	}
	tick := func(at time.Duration, want string) step { return step{at: at, want: want} }
	for _, row := range []struct {
		name  string
		peers []string
		steps []step
	}{
		{"direct → indirect after a timeout → suspect after another", []string{"b"}, []step{
			tick(0, "ping:b#1"), tick(9*ms, ""), tick(10*ms, "indirect:b#1"),
			tick(19*ms, ""), tick(20*ms, "suspect:+1 ping:b#2")}},
		{"a suspect is marked down once, the window from its first failure", []string{"b"}, []step{
			tick(0, "ping:b#1"), tick(10*ms, "indirect:b#1"), tick(20*ms, "suspect:+1 ping:b#2"),
			tick(30*ms, "indirect:b#2"), tick(40*ms, "ping:b#3"),
			tick(50*ms, "indirect:b#3"), tick(60*ms, "down:b"),
			tick(70*ms, "ping:b#4"), tick(80*ms, "indirect:b#4"), tick(90*ms, "suspect:+1 ping:b#5")}},
		{"an alive proof clears suspicion", []string{"b"}, []step{
			tick(0, "ping:b#1"), tick(10*ms, "indirect:b#1"), tick(20*ms, "suspect:+1 ping:b#2"),
			{alive: "b"},
			tick(30*ms, "indirect:b#2"), tick(40*ms, "suspect:+1 ping:b#3"),
			tick(50*ms, "indirect:b#3"), tick(60*ms, "ping:b#4")}},
		{"an unsendable direct ping escalates at once", []string{"b"}, []step{
			tick(0, "ping:b#1"), {failed: 1}, tick(10*ms, "suspect:+1 ping:b#2")}},
		{"round-robin skips targets with an outstanding probe", []string{"b", "c", "d"}, []step{
			tick(0, "ping:b#1"), tick(ms, "ping:c#2"), {acked: "c", seq: 2},
			tick(2*ms, "ping:d#3"), tick(3*ms, "ping:c#4")}},
	} {
		ps := newProbeState("a", pc)
		for i, s := range row.steps {
			switch {
			case s.alive != "":
				ps.alive(s.alive)
			case s.acked != "":
				ps.ack(wire.PingAck{From: s.acked, Target: s.acked, Seq: s.seq, OK: true})
			case s.failed != 0:
				ps.directFailed(t0, s.failed)
			default:
				if got := render(ps.tick(t0.Add(s.at), row.peers)); got != s.want {
					t.Errorf("%s, step %d (t=%v): %q; want %q", row.name, i, s.at, got, s.want)
				}
			}
		}
	}
}

// TestProbeStepRelay: a ping-req is served under this hub's own seq and
// its ack returns to the origin under the origin's seq; an ack for
// another target settles nothing, and a relay probe never ages into
// suspicion.
func TestProbeStepRelay(t *testing.T) {
	ps := newProbeState("p", resolveProbe(Config{FailoverAfter: 80 * time.Millisecond}))
	fwd := ps.relay(t0, wire.Ping{From: "a", Target: "c", Seq: 42})
	if fwd.From != "p" || fwd.Target != "c" || fwd.Seq == 42 {
		t.Fatalf("relayed ping %+v; want from p to c under p's own seq", fwd)
	}
	if to, _ := ps.ack(wire.PingAck{From: "d", Target: "d", Seq: fwd.Seq, OK: true}); to != "" {
		t.Fatalf("an ack for another target relayed to %q", to)
	}
	to, back := ps.ack(wire.PingAck{From: "c", Target: "c", Seq: fwd.Seq, OK: true})
	if want := (wire.PingAck{From: "p", Target: "c", Seq: 42, OK: true}); to != "a" || back != want {
		t.Fatalf("relayed ack to %q: %+v; want to a: %+v", to, back, want)
	}
	if to, _ := ps.ack(wire.PingAck{From: "c", Target: "c", Seq: fwd.Seq, OK: true}); to != "" {
		t.Fatal("a settled relay answered twice")
	}
	ps.relay(t0, wire.Ping{From: "a", Target: "c", Seq: 43})
	for at := time.Duration(0); at <= time.Second; at += 10 * time.Millisecond {
		if st := ps.tick(t0.Add(at), nil); len(st.indirect)+st.suspects+len(st.down) != 0 {
			t.Fatalf("an unanswered relay probe escalated: %s", render(st))
		}
	}
	if len(ps.pending) != 0 {
		t.Fatalf("an unanswered relay probe was never swept: %d pending", len(ps.pending))
	}
}
