package cluster

import (
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// probeConfig is the resolved failure-detection timing, derived from
// Config.FailoverAfter (see resolveProbe).
type probeConfig struct {
	enabled  bool
	interval time.Duration // one direct ping per interval, round-robin
	timeout  time.Duration // direct → indirect escalation, indirect → suspect
	suspect  time.Duration // suspicion window before mark-down
	indirect int           // proxies per indirect ping-req fan-out
	leaseTTL time.Duration
}

// resolveProbe derives the prober/lease timings from Config.
// FailoverAfter is the overall detection budget D: interval D/4,
// timeout D/8, suspicion D/2, two indirect proxies. The lease TTL
// defaults to, and is clamped to, timeout+suspect — the earliest a
// partitioned member can be marked down — so a deposed owner's last
// lease has always expired before its deputy may be promoted and arm.
func resolveProbe(cfg Config) probeConfig {
	d := cfg.FailoverAfter
	if d <= 0 {
		return probeConfig{}
	}
	pc := probeConfig{enabled: true, interval: max(d/4, 2*time.Millisecond), indirect: 2}
	pc.timeout = max(pc.interval/2, time.Millisecond)
	pc.suspect = max(d/2, 2*pc.timeout)
	pc.leaseTTL = cfg.LeaseTTL
	if pc.leaseTTL <= 0 || pc.leaseTTL > pc.timeout+pc.suspect {
		pc.leaseTTL = pc.timeout + pc.suspect
	}
	return pc
}

// probeState is the SWIM-style failure detector, as a plain value the
// node steps under its decision lock (no lock, no clock, no node of its
// own): each interval it direct-pings one live member (round-robin); a
// ping unanswered past the timeout escalates to indirect ping-reqs
// relayed through k proxy members, so one stalled or half-open link
// cannot by itself declare a live peer dead; a member that answers
// neither within another timeout becomes a suspect, and a suspect with
// no proof of life for the whole suspicion window is marked down (the
// deputy-promotion trigger). Any message a peer authored — ack, relayed
// ack, its own ping or lease traffic — is proof of life and clears its
// suspicion. Every method returns the pings to send; the node sends
// them with the lock released, since a loopback send nests the peer's
// handlers — and on a relayed ack this node's own — on its stack.
type probeState struct {
	self string
	probeConfig

	seq      uint64
	pending  map[uint64]*probe
	suspects map[string]time.Time
	rr       int
}

// probe is one outstanding ping awaiting its ack.
type probe struct {
	target     string
	sentAt     time.Time
	indirectAt time.Time // zero until escalated to ping-reqs
	// origin is set on a proxy probe serving another hub's ping-req: the
	// ack travels back to it under its own seq.
	origin    string
	originSeq uint64
}

// probeStep is what one detector round asks the node to do.
type probeStep struct {
	indirect []wire.Ping // escalated probes: fan each out to k proxies
	suspects int         // members newly suspected
	down     []string    // suspects whose window ran out: mark down
	ping     *wire.Ping  // this round's direct ping, nil with no target
}

func newProbeState(self string, pc probeConfig) *probeState {
	return &probeState{self: self, probeConfig: pc,
		pending:  make(map[uint64]*probe),
		suspects: make(map[string]time.Time)}
}

// tick is one detector round at now over the live peers (self
// excluded): sweep outstanding probes (escalate direct timeouts, fail
// indirect ones into suspicion), judge suspects against the suspicion
// window, then open one new direct probe.
func (ps *probeState) tick(now time.Time, peers []string) (st probeStep) {
	for seq, pr := range ps.pending {
		switch {
		case pr.origin != "":
			if now.Sub(pr.sentAt) >= ps.timeout {
				// The origin hears nothing and times out on its side.
				delete(ps.pending, seq)
			}
		case pr.indirectAt.IsZero():
			if now.Sub(pr.sentAt) >= ps.timeout {
				pr.indirectAt = now
				st.indirect = append(st.indirect, ps.ping(seq, pr.target))
			}
		default:
			if now.Sub(pr.indirectAt) >= ps.timeout {
				delete(ps.pending, seq)
				// The window runs from the first failed probe, not the
				// latest.
				if _, ok := ps.suspects[pr.target]; !ok {
					ps.suspects[pr.target] = now
					st.suspects++
				}
			}
		}
	}
	for id, since := range ps.suspects {
		if now.Sub(since) >= ps.suspect {
			delete(ps.suspects, id)
			st.down = append(st.down, id)
		}
	}
	if target := ps.nextTarget(peers, st.down); target != "" {
		ps.seq++
		ps.pending[ps.seq] = &probe{target: target, sentAt: now}
		pg := ps.ping(ps.seq, target)
		st.ping = &pg
	}
	return st
}

func (ps *probeState) ping(seq uint64, target string) wire.Ping {
	return wire.Ping{From: ps.self, Target: target, Seq: seq}
}

// nextTarget picks the next peer to probe, round-robin, skipping the
// ones with a probe already outstanding and the ones just condemned.
func (ps *probeState) nextTarget(peers, down []string) string {
	for range peers {
		id := peers[ps.rr%len(peers)]
		ps.rr++
		busy := false
		for _, d := range down {
			busy = busy || d == id
		}
		for _, pr := range ps.pending {
			busy = busy || (pr.origin == "" && pr.target == id)
		}
		if !busy {
			return id
		}
	}
	return ""
}

// directFailed escalates the direct probe seq at once: its ping could
// not be sent (no live session), but other members may still reach the
// target, and only their silence too may condemn it. The node fans the
// probe's ping out to the proxies.
func (ps *probeState) directFailed(now time.Time, seq uint64) {
	if pr := ps.pending[seq]; pr != nil {
		pr.indirectAt = now
	}
}

// alive clears any suspicion of id: it authored a message, so it is
// alive. Revival of a down-marked member stays handshake-driven
// (PeerSeen) — a single relayed frame does not rejoin a member.
func (ps *probeState) alive(id string) {
	delete(ps.suspects, id)
}

// relay serves a ping-req for another member: it opens a probe of the
// target under this hub's own seq, remembers whose question it was,
// and returns the ping to send the target. A probe whose ping cannot be
// sent simply ages out in tick.
func (ps *probeState) relay(now time.Time, pg wire.Ping) wire.Ping {
	ps.alive(pg.From)
	ps.seq++
	ps.pending[ps.seq] = &probe{target: pg.Target, sentAt: now, origin: pg.From, originSeq: pg.Seq}
	return ps.ping(ps.seq, pg.Target)
}

// ack settles an outstanding probe — ours, or one run on a ping-req
// origin's behalf, whose answer it returns to relay under the origin's
// seq (to is empty when there is nothing to relay).
func (ps *probeState) ack(a wire.PingAck) (to string, fwd wire.PingAck) {
	ps.alive(a.From)
	pr, ok := ps.pending[a.Seq]
	if !a.OK || !ok || pr.target != a.Target {
		return "", fwd
	}
	delete(ps.pending, a.Seq)
	ps.alive(a.Target)
	if pr.origin == "" {
		return "", fwd
	}
	return pr.origin, wire.PingAck{From: ps.self, Target: a.Target, Seq: pr.originSeq, OK: true}
}
