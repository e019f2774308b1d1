package cluster

import (
	"sync"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
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

// prober is the SWIM-style failure detector: each interval it
// direct-pings one live member (round-robin); a ping unanswered past
// the timeout escalates to indirect ping-reqs relayed through k proxy
// members, so one stalled or half-open link cannot by itself declare
// a live peer dead; a member that answers neither within another
// timeout becomes a suspect, and a suspect with no proof of life for
// the whole suspicion window is marked down (the deputy-promotion
// trigger). Any message a peer authored — ack, relayed ack, its own
// ping or lease traffic — is proof of life and clears its suspicion.
//
// Lock discipline: prober.mu is never held across sendDirect —
// loopback transports deliver synchronously, so a probe chain
// origin→proxy→target nests all three hubs' handlers on one goroutine
// stack; every handler collects under its own mu, unlocks, then sends.
type prober struct {
	n *Node
	probeConfig

	mu       sync.Mutex
	seq      uint64
	pending  map[uint64]*probe
	relays   map[uint64]relay
	suspects map[string]time.Time
	rr       int

	metProbes   *metrics.Counter
	metIndirect *metrics.Counter
	metSuspects *metrics.Counter
}

// probe is one outstanding ping awaiting its ack.
type probe struct {
	seq        uint64
	target     string
	sentAt     time.Time
	indirectAt time.Time // zero until escalated to ping-reqs
	onBehalf   bool      // a proxy probe answering another hub's ping-req
}

// relay remembers whose ping-req an onBehalf probe answers: the ack
// travels back under the origin's own seq.
type relay struct {
	origin    string
	originSeq uint64
}

func newProber(n *Node, pc probeConfig) *prober {
	p := &prober{n: n, probeConfig: pc,
		pending:  make(map[uint64]*probe),
		relays:   make(map[uint64]relay),
		suspects: make(map[string]time.Time)}
	p.metProbes = n.reg.Counter("immunity_cluster_probes_total",
		"Direct pings sent by the failure detector.")
	p.metIndirect = n.reg.Counter("immunity_cluster_probe_indirect_total",
		"Probes escalated to indirect ping-reqs through proxy members.")
	p.metSuspects = n.reg.Counter("immunity_cluster_probe_suspects_total",
		"Members entering suspicion (unreachable by direct and indirect probes).")
	return p
}

func (p *prober) run() {
	defer p.n.wg.Done()
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.n.closeCh:
			return
		case <-t.C:
		}
		p.tick()
	}
}

// tick is one detector round: sweep outstanding probes (escalate
// direct timeouts, fail indirect ones into suspicion), judge suspects
// against the suspicion window, then open one new direct probe.
func (p *prober) tick() {
	now := time.Now()
	type escalation struct {
		seq    uint64
		target string
	}
	var escalate []escalation
	var failed []string
	var dead []string
	p.mu.Lock()
	for seq, pr := range p.pending {
		switch {
		case pr.onBehalf:
			if now.Sub(pr.sentAt) >= p.timeout {
				// The origin hears nothing and times out on its side.
				delete(p.pending, seq)
				delete(p.relays, seq)
			}
		case pr.indirectAt.IsZero():
			if now.Sub(pr.sentAt) >= p.timeout {
				pr.indirectAt = now
				escalate = append(escalate, escalation{seq, pr.target})
			}
		default:
			if now.Sub(pr.indirectAt) >= p.timeout {
				delete(p.pending, seq)
				failed = append(failed, pr.target)
			}
		}
	}
	p.mu.Unlock()
	for _, e := range escalate {
		p.sendIndirect(e.seq, e.target)
	}
	for _, id := range failed {
		p.suspectPeer(id)
	}
	p.mu.Lock()
	for id, since := range p.suspects {
		if now.Sub(since) >= p.suspect {
			delete(p.suspects, id)
			dead = append(dead, id)
		}
	}
	p.mu.Unlock()
	for _, id := range dead {
		if p.n.membership.markDown(id) {
			p.n.metFailovers.Inc()
			p.n.applyMembership()
		}
	}
	if target := p.nextTarget(); target != "" {
		p.probeDirect(target)
	}
}

// probeDirect opens one direct ping. A peer with no live session
// escalates to indirect immediately — other members may still reach
// it, and only their silence too may condemn it.
func (p *prober) probeDirect(target string) {
	p.mu.Lock()
	p.seq++
	s := p.seq
	p.pending[s] = &probe{seq: s, target: target, sentAt: time.Now()}
	p.mu.Unlock()
	p.metProbes.Inc()
	err := p.n.sendDirect(target, wire.Message{Type: wire.TypePing,
		Ping: &wire.Ping{From: p.n.self, Target: target, Seq: s}})
	if err == nil {
		return // acked via handleAck, or swept into escalation
	}
	p.mu.Lock()
	if pr := p.pending[s]; pr != nil {
		pr.indirectAt = time.Now()
	}
	p.mu.Unlock()
	p.sendIndirect(s, target)
}

// sendIndirect fans a ping-req for target out to up to k reachable
// proxy members; their relayed acks come back under seq. With no
// reachable proxy the probe simply ages into suspicion.
func (p *prober) sendIndirect(seq uint64, target string) {
	p.metIndirect.Inc()
	msg := wire.Message{Type: wire.TypePing,
		Ping: &wire.Ping{From: p.n.self, Target: target, Seq: seq}}
	sent := 0
	for _, m := range p.n.membership.live() {
		if sent >= p.indirect {
			break
		}
		if m.ID == p.n.self || m.ID == target {
			continue
		}
		if p.n.sendDirect(m.ID, msg) == nil {
			sent++
		}
	}
}

// nextTarget picks the next live member to probe, round-robin, skipping
// ones with a probe already outstanding.
func (p *prober) nextTarget() string {
	live := p.n.membership.live()
	ids := make([]string, 0, len(live))
	for _, m := range live {
		if m.ID != p.n.self {
			ids = append(ids, m.ID)
		}
	}
	if len(ids) == 0 {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for range ids {
		id := ids[p.rr%len(ids)]
		p.rr++
		outstanding := false
		for _, pr := range p.pending {
			if !pr.onBehalf && pr.target == id {
				outstanding = true
				break
			}
		}
		if !outstanding {
			return id
		}
	}
	return ""
}

// suspectPeer starts (or keeps) the suspicion clock for id; the window
// runs from the first failed probe, not the latest.
func (p *prober) suspectPeer(id string) {
	p.mu.Lock()
	if _, ok := p.suspects[id]; !ok {
		p.suspects[id] = time.Now()
		p.mu.Unlock()
		p.metSuspects.Inc()
		return
	}
	p.mu.Unlock()
}

// aliveProof clears any suspicion of id: it authored a message, so it
// is alive. Revival of a down-marked member stays handshake-driven
// (PeerSeen) — a single relayed frame does not rejoin a member.
func (p *prober) aliveProof(id string) {
	if id == "" || id == p.n.self {
		return
	}
	p.mu.Lock()
	delete(p.suspects, id)
	p.mu.Unlock()
}

// handlePing answers a direct ping (Target is us) or serves a
// ping-req: probe the target with our own seq, remember whose
// question it was, and relay the ack under the origin's seq.
func (p *prober) handlePing(pg wire.Ping) {
	p.aliveProof(pg.From)
	if pg.Target == "" || pg.Target == p.n.self {
		p.n.sendDirect(pg.From, wire.Message{Type: wire.TypePingAck,
			PingAck: &wire.PingAck{From: p.n.self, Target: p.n.self, Seq: pg.Seq, OK: true}})
		return
	}
	p.mu.Lock()
	p.seq++
	s := p.seq
	p.pending[s] = &probe{seq: s, target: pg.Target, sentAt: time.Now(), onBehalf: true}
	p.relays[s] = relay{origin: pg.From, originSeq: pg.Seq}
	p.mu.Unlock()
	// On success the target's ack relays via handleAck.
	if err := p.n.sendDirect(pg.Target, wire.Message{Type: wire.TypePing,
		Ping: &wire.Ping{From: p.n.self, Target: pg.Target, Seq: s}}); err != nil {
		p.mu.Lock()
		delete(p.pending, s)
		delete(p.relays, s)
		p.mu.Unlock()
	}
}

// handleAck settles an outstanding probe — ours, or one we ran on a
// ping-req origin's behalf, whose answer we relay under its seq.
func (p *prober) handleAck(a wire.PingAck) {
	p.aliveProof(a.From)
	if !a.OK {
		return
	}
	p.mu.Lock()
	pr, ok := p.pending[a.Seq]
	if !ok || pr.target != a.Target {
		p.mu.Unlock()
		return
	}
	delete(p.pending, a.Seq)
	rel, isRelay := p.relays[a.Seq]
	delete(p.relays, a.Seq)
	p.mu.Unlock()
	p.aliveProof(a.Target)
	if isRelay {
		p.n.sendDirect(rel.origin, wire.Message{Type: wire.TypePingAck,
			PingAck: &wire.PingAck{From: p.n.self, Target: a.Target, Seq: rel.originSeq, OK: true}})
	}
}

// HandleProbe implements the probe/lease leg of
// immunity.ClusterBinding: the hub routes every ping/lease frame from
// a registered peer session here, outside Exchange.mu. Pings are
// always answered (even with the prober off — a peer running
// detection deserves the truth); lease grants are judged against our
// membership epoch whether or not we run a lease ourselves.
func (n *Node) HandleProbe(m wire.Message) {
	switch m.Type {
	case wire.TypePing:
		if m.Ping == nil {
			return
		}
		if n.prober != nil {
			n.prober.handlePing(*m.Ping)
		} else if m.Ping.Target == "" || m.Ping.Target == n.self {
			n.sendDirect(m.Ping.From, wire.Message{Type: wire.TypePingAck,
				PingAck: &wire.PingAck{From: n.self, Target: n.self, Seq: m.Ping.Seq, OK: true}})
		}
	case wire.TypePingAck:
		if m.PingAck == nil {
			return
		}
		if n.prober != nil {
			n.prober.handleAck(*m.PingAck)
		}
	case wire.TypeLease:
		if m.Lease == nil {
			return
		}
		if n.prober != nil {
			n.prober.aliveProof(m.Lease.From)
		}
		n.grantLease(*m.Lease)
	case wire.TypeLeaseAck:
		if m.LeaseAck == nil {
			return
		}
		if n.prober != nil {
			n.prober.aliveProof(m.LeaseAck.From)
		}
		if n.lease != nil {
			n.lease.ack(m.LeaseAck.From, m.LeaseAck.Seq, m.LeaseAck.OK)
		}
	}
}
