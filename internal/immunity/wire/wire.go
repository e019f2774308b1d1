// Package wire defines the versioned, transport-agnostic message set of
// the fleet signature exchange. Every conversation between a phone and a
// fleet hub — whatever carries it: the in-process loopback, the TCP
// transport, a future QUIC or broker backend — is a sequence of these
// messages, so the exchange's semantics (confirm-before-arm gating,
// resubscribe-from-epoch catch-up, provenance) are defined once, here,
// independent of how bytes move. The hub's provenance log on disk
// (ProvenanceRecord, AppendRecord, DecodeLog) is written in the same
// binary codec.
//
// # Message table
//
//	type        direction      payload                  purpose
//	----        ---------      -------                  -------
//	hello       client → hub   device, epochs per gen   subscribe; resume deltas after the
//	                                                    epoch under the hub's gen
//	ack         hub → client   ok, error, epoch         handshake result (version/device checks)
//	report      client → hub   sigs                     locally detected signatures (confirmations)
//	confirm     hub → client   key, confirmations,      receipt for one reported signature with
//	                           armed                    its current fleet provenance
//	delta       hub → client   epoch, sigs              armed signatures; epoch after applying them
//	status-req  client → hub   —                        ask for the hub status snapshot
//	status      hub → client   epoch, threshold,        hub observability: provenance, connected
//	                           devices, provenance,     devices, delta-batching counters
//	                           batching
//
// Deltas to one client are ordered and their epochs strictly increase; a
// client that reconnects sends the last epoch it applied from each hub
// incarnation in hello and receives only what it is missing. A hub may coalesce several pending
// deltas into one (batching) — the coalesced delta carries the newest
// epoch, never a stale one.
//
// # Peer messages (hub federation)
//
// A cluster of hubs (internal/immunity/cluster) federates through four
// additional messages, carried over the same transports and framing:
//
//	type            direction       payload                 purpose
//	----            ---------       -------                 -------
//	peer-hello      dialer → hub    hub, version range,     subscribe to the answering hub's
//	                                seq                     owned armings after `seq`
//	forward-report  dialer → hub    hub, device, sigs       relay a device's report to the
//	                                                        signature's owning hub, keeping
//	                                                        the original device attribution
//	forward-confirm hub → dialer    device, confirm         the owner's receipt, relayed back
//	                                                        to the reporting device
//	arm-broadcast   hub → dialer    owner, seq, sig,        an owned signature armed; every
//	                                confirmations           peer installs it and pushes it to
//	                                                        its attached devices
//
// Each hub numbers its own armings with a per-owner monotonic `seq`; a
// peer that reconnects names the last seq it applied from the answering
// hub in peer-hello, and receives only the armings it missed — the
// hub-to-hub twin of the device tier's resubscribe-from-epoch.
//
// # Membership messages (elastic clusters)
//
// A cluster is elastic: hubs join, leave, crash, and return, and the
// ownership ring follows the live membership. Three more peer messages
// carry that:
//
//	type            direction       payload                 purpose
//	----            ---------       -------                 -------
//	member-update   both            epoch, members          full membership snapshot: adopt
//	                                [{id, addr, down}]      if newer epoch, merge equal
//	                                                        epochs deterministically
//	handoff         dialer → hub    from, owned records     migrate an owned provenance
//	                                                        slice (confirmation sets, arm
//	                                                        state, owner seq) to the key's
//	                                                        new owner after a ring change
//	replicate       dialer → hub    owner, owned records    owner → deputy replication of a
//	                                                        pending (unarmed) confirmation
//	                                                        set, so arming survives an
//	                                                        owner crash
//
// # Probe and lease messages (partition-tolerant ownership)
//
// Four more peer messages make ownership partition-safe:
//
//	type            direction       payload                 purpose
//	----            ---------       -------                 -------
//	ping            both            from, target, seq       SWIM failure-detector probe:
//	                                                        direct (target == receiver) or
//	                                                        an indirect probe request the
//	                                                        receiver relays through its own
//	                                                        link to target
//	ping-ack        both            from, target, seq, ok   probe answer / relayed verdict
//	lease           both            from, epoch, seq        quorum-lease renewal: countersign
//	                                                        the sender's right to arm
//	ack             both            from, epoch, seq, ok    grant, or refusal carrying the
//	                                                        granter's newer membership epoch
//
// A hub may arm owned signatures only while a majority of its
// membership view (down members included in the denominator) has acked
// a lease renewal within the lease TTL — two partition sides can never
// both hold a quorum over the same member universe, so split-brain
// arming is structurally impossible, not merely fenced after heal.
//
// Fencing: every arm-broadcast carries the sender's membership epoch
// (`fence`). A receiver refuses a broadcast whose fence is older than
// its own membership epoch unless the sender still owns the signature
// under the receiver's ring — which is what makes a returning stale
// owner's replayed armings refusable (no double-arm, no owner-seq
// regression) while same-epoch traffic flows untouched. peer-hello
// additionally advertises the dialer's reachable address (`addr`) so an
// answering hub can admit an unknown dialer into the membership and
// third parties learn where to dial it.
//
// # Versioning
//
// The protocol has one version, Version, and one codec, the binary
// envelope of binary.go. Every message envelope carries `v`; a hello
// (or peer-hello) additionally advertises the range [min_v, max_v] its
// sender speaks. The one rule, applied by both ends: the advertised
// range must contain Version and cover the hello's own envelope `v`,
// and the ack names Version (ack `v`). Anything else is refused with
// ack{ok:false} and an error naming the versions, then the session
// closes — a mismatched endpoint fails cleanly instead of hanging on
// messages it cannot parse — and a dialer that reads any other version
// in an ack treats the handshake as failed. The range (rather than a
// bare number) is what lets a later version ship as a negotiated
// extension instead of a hard break.
//
// # Canonical form
//
// Signatures travel as their canonical textual form: the kind name plus
// one (outer, inner) call-stack key pair per thread, using the same
// ';'-joined frame encoding as the persistent history file
// (core.CallStack.Key / core.ParseCallStack). Two devices that detect
// the same bug therefore produce byte-identical wire signatures, which
// is what lets the hub count independent confirmations by key.
// FromCore produces this form and Signature.Check accepts it in one pass
// (core.CanonicalStack); anything else, a line "+5" or "007" or any
// invalid signature, goes through ToCore, the one definition of
// validity. A canonical Checked.Sig aliases the message it came from and
// the hub keeps it, so a Loopback sender must not mutate a Signature
// after Send, as with a delta view.
//
// # Framing
//
// Stream transports carry messages as length-prefixed frames. The
// 4-byte big-endian prefix packs the payload codec and length:
//
//	 0               1               2               3
//	+-+-------------+---------------+---------------+--------------+
//	|B|          payload length (31 bits, <= MaxFrame)             |
//	+-+-------------+---------------+---------------+--------------+
//	|  payload: binary envelope (B=1)                              |
//	|  ...                                                         |
//	+--------------------------------------------------------------+
//
// The B bit names the payload codec and is always set: binary is the
// only codec. A frame with B=0 fails with an "unsupported codec" error
// from the header alone, before any payload is read or parsed. MaxFrame
// (4 MiB) fits in 31 bits with room to spare; frames above it fail
// before any payload allocation, so a corrupt or hostile peer cannot
// balloon the hub's memory.
//
// The fan-out hot path never encodes per receiver: a broadcast is
// wrapped in a Shared, which encodes the message at most once and hands
// every session the same immutable []byte (see Shared).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"github.com/dimmunix/dimmunix/internal/core"
)

// Version is the one protocol version this package speaks. MinVersion
// equals it: the name survives only because bench/ advertises
// [MinVersion, Version] in its hellos, and goes when a benchmark-only
// PR stops using it.
const (
	Version    = 6
	MinVersion = Version
)

// Negotiate applies the single negotiation rule to an advertised range
// [min, max]: it returns Version and true when the range contains it.
func Negotiate(min, max int) (int, bool) {
	if min > Version || max < Version {
		return 0, false
	}
	return Version, true
}

// MaxFrame bounds one frame's payload size (4 MiB). A delta carrying
// thousands of signatures stays far below this; anything larger is a
// corrupt length prefix or an attack.
const MaxFrame = 4 << 20

// Type names a wire message.
type Type string

// The message set.
const (
	TypeHello     Type = "hello"
	TypeAck       Type = "ack"
	TypeReport    Type = "report"
	TypeConfirm   Type = "confirm"
	TypeDelta     Type = "delta"
	TypeStatusReq Type = "status-req"
	TypeStatus    Type = "status"

	// The peer (hub-to-hub) message set.
	TypePeerHello      Type = "peer-hello"
	TypeForwardReport  Type = "forward-report"
	TypeForwardConfirm Type = "forward-confirm"
	TypeArmBroadcast   Type = "arm-broadcast"

	// The elastic-membership message set.
	TypeMemberUpdate Type = "member-update"
	TypeHandoff      Type = "handoff"
	TypeReplicate    Type = "replicate"

	// The probe/lease message set (partition-tolerant ownership).
	TypePing     Type = "ping"
	TypePingAck  Type = "ping-ack"
	TypeLease    Type = "lease"
	TypeLeaseAck Type = "lease-ack"
)

// Message is the envelope: the version, the type, and exactly the one
// payload field matching the type (status-req has no payload).
type Message struct {
	V    int
	Type Type

	Hello   *Hello
	Ack     *Ack
	Report  *Report
	Confirm *Confirm
	Delta   *Delta
	Status  *Status

	PeerHello  *PeerHello
	Forward    *ForwardReport
	FwdConfirm *ForwardConfirm
	Arm        *ArmBroadcast

	Member    *MemberUpdate
	Handoff   *Handoff
	Replicate *Replicate

	Ping     *Ping
	PingAck  *PingAck
	Lease    *Lease
	LeaseAck *LeaseAck
}

// Hello subscribes a device. MinV/MaxV is the sender's supported
// version range (see Negotiate) and Epochs the fleet delta epoch the
// device has already applied, per hub incarnation (gen): empty on first
// contact, the last delta's epoch from each hub it has heard on a
// reconnect, so the hub replays only the missing armed signatures.
// Epochs are only comparable within one incarnation, so a hub that
// finds its own gen in the map resumes the device from exactly the
// right point even when the device last spoke to a different hub of
// the cluster; a missing gen means replay from zero.
type Hello struct {
	Device string
	MinV   int
	MaxV   int
	Epochs map[string]uint64

	// Token is the device's bearer credential. A hub with an auth
	// verifier resolves it to a (tenant, device) principal and refuses
	// the hello when it is missing, invalid, or its device claim does
	// not match Device; a hub with auth disabled ignores it.
	Token string
}

// Ack answers a hello or a peer-hello. On success Epoch is the hub's
// current fleet epoch (for a peer-hello: its owned-arming seq), V is
// the protocol version the session runs at (always Version; a dialer
// refuses anything else), and Gen identifies the hub incarnation — epochs and seqs are
// only comparable within one Gen, so a subscriber that sees a new Gen
// discards its stored resume point and resubscribes from zero (a
// restarted hub's counters may have regrown past the subscriber's,
// silently shrinking its catch-up). On failure Error says why the
// session was refused (version mismatch, empty device id) and the hub
// closes the session.
type Ack struct {
	OK    bool
	Error string
	Epoch uint64
	Gen   string
	V     int
}

// Report carries locally detected signatures upward. Each one counts as
// the device's independent confirmation unless the hub knows it pushed
// that signature to the device itself.
type Report struct {
	Sigs []Signature
}

// Confirm is the hub's receipt for one reported signature.
type Confirm struct {
	Key           string
	Confirmations int
	Armed         bool
}

// Delta pushes armed signatures downward. Epoch is the fleet epoch after
// applying Sigs; a client stores it and resumes from it on reconnect.
type Delta struct {
	Epoch uint64
	Sigs  []Signature
}

// PeerHello subscribes one hub to another's owned armings. Hub is the
// dialing hub's cluster id; Seq is the answering hub's arming seq the
// dialer has already applied (0 on first contact — or after the
// answerer's Gen changed — so only missed armings replay). MinV/MaxV is
// the dialer's version range (see Negotiate).
type PeerHello struct {
	Hub  string
	Seq  uint64
	MinV int
	MaxV int

	// Addr is the dialing hub's advertised wire address. An
	// answering hub that does not know the dialer admits it into the
	// membership under this address; empty means the dialer is not
	// joinable (static config or no reachable address).
	Addr string
}

// ForwardReport relays a device's report from the hub it is attached to
// toward the signature's owning hub, preserving the original device
// attribution — the owner deduplicates confirmations by (device,
// signature), so a report that travels through any number of forwarding
// paths still counts at most once.
type ForwardReport struct {
	Hub    string
	Device string
	Sigs   []Signature

	// Hops counts forwarding legs. Ownership can move while a
	// forward sits in a retry outbox; a receiver that no longer owns a
	// forwarded signature re-forwards it to the current owner as long as
	// Hops stays below a small bound, then counts it locally — churn
	// degrades to one extra hop, never a forwarding loop.
	Hops int

	// Tenant scopes the forwarded confirmations: the owner books
	// them under the tenant's entry, never another tenant's.
	Tenant string
}

// ForwardConfirm is the owner's receipt for one forwarded signature,
// addressed to the device that reported it; the forwarding hub relays
// it to the device's session as a plain confirm.
type ForwardConfirm struct {
	Device  string
	Confirm Confirm

	// Tenant addresses the receipt: device ids are only unique
	// within a tenant, so the relaying hub looks the session up under
	// (tenant, device).
	Tenant string
}

// ArmBroadcast announces that the owning hub armed one of its owned
// signatures. Seq is the owner's monotonic arming sequence (the peer
// resume point); Confirmations is the count at arming, replicated so
// non-owner hubs can answer echo reports without a round trip.
type ArmBroadcast struct {
	Owner         string
	Seq           uint64
	Confirmations int
	Sig           Signature

	// Fence is the sender's membership epoch at broadcast time. A
	// receiver whose membership epoch is newer refuses the broadcast
	// unless the sender still owns the signature under the receiver's
	// ring — the rule that fences a returning stale owner's replays.
	Fence uint64

	// Tenant scopes the arming: receivers install it under the
	// tenant's canonical key and push it only to that tenant's devices.
	Tenant string
}

// MemberInfo is one hub's entry in the membership: its cluster id, its
// advertised wire address (empty if not dialable), and whether the
// failure detector has marked it down. Down members stay listed — the
// ownership ring is computed over live members only, and a completed
// handshake with a down member revives it.
type MemberInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
	Down bool   `json:"down,omitempty"`
}

// MemberUpdate is a full membership snapshot at a membership epoch.
// Receivers adopt a strictly newer epoch wholesale; two snapshots at
// the same epoch that differ are merged deterministically (union of
// members, down wins, longest address wins) and the merge bumps the
// epoch — a join-semilattice, so concurrent membership changes converge
// without consensus. Ownership mistakes during convergence are safe by
// construction: confirmations are per-device unions, arming is
// idempotent, and stale owners are fenced.
type MemberUpdate struct {
	Epoch   uint64
	Members []MemberInfo
}

// OwnedRecord is one signature's owned provenance slice as it travels
// in a handoff or a replicate: the pending confirmation set, the arm
// state, and the owner seq it was armed at (0 if unarmed).
type OwnedRecord struct {
	Sig         Signature
	FirstSeen   string
	ConfirmedBy []string
	Armed       bool
	OwnerSeq    uint64

	// Tenant keeps a migrated or replicated record in its tenant's
	// namespace — the receiver re-derives the canonical key from
	// (Tenant, Sig), so handoff and failover never leak state across
	// tenants.
	Tenant string
}

// Handoff migrates owned provenance records from a hub that stopped
// owning them (membership changed under it) to their new owner. The
// receiver merges by union, so at-least-once delivery and out-of-order
// arrival are harmless; a record already past threshold arms at the
// receiver on import.
type Handoff struct {
	From    string
	Records []OwnedRecord
}

// Replicate is the owner → deputy copy of a pending (unarmed) owned
// confirmation set, sent on every fresh confirmation so the deputy can
// resume counting — and arm at threshold — if the owner dies.
type Replicate struct {
	Owner   string
	Records []OwnedRecord
}

// Ping is one failure-detector probe. From is the probing hub.
// When Target equals the receiver's id the ping is direct and the
// receiver answers with a ping-ack over its own link to From. When
// Target names a third hub the ping is an indirect probe request
// (SWIM's ping-req): the receiver probes Target over its own link and
// relays the verdict back to From — which is what keeps one stalled
// TCP link from reading as a dead hub. Seq matches acks to probes; it
// is meaningful only to the hub that issued it.
type Ping struct {
	From   string
	Target string
	Seq    uint64
}

// PingAck answers a ping. From is the answering hub, Target the
// hub whose liveness is being vouched for (== From for a direct ack;
// the probed third hub for a relayed indirect verdict), and Seq echoes
// the probe's Seq. OK is false only on a relayed verdict whose proxy
// probe timed out.
type PingAck struct {
	From   string
	Target string
	Seq    uint64
	OK     bool
}

// Lease asks a peer to countersign the sender's quorum lease: the
// sender may arm owned signatures and accept handoffs only while a
// majority of the membership view has acked a lease renewal within the
// lease TTL. Epoch is the sender's membership epoch — a granter with a
// newer view refuses, which keeps a healed-but-stale hub parked until
// it has merged the partition-era membership changes. Seq matches acks
// to renewals.
type Lease struct {
	From  string
	Epoch uint64
	Seq   uint64
}

// LeaseAck answers a lease renewal. OK grants; a refusal carries
// the granter's own Epoch so the requester knows it is behind on
// membership rather than partitioned.
type LeaseAck struct {
	From  string
	Epoch uint64
	Seq   uint64
	OK    bool
}

// Status is the hub's observability snapshot.
type Status struct {
	Epoch      uint64      `json:"epoch"`
	Threshold  int         `json:"threshold"`
	Devices    []string    `json:"devices"`
	Provenance []SigStatus `json:"provenance"`
	Batching   Batching    `json:"batching"`

	// Hub and Cluster are set when the hub is part of a federated
	// cluster: Hub is its cluster id and Cluster the federation view.
	Hub     string         `json:"hub,omitempty"`
	Cluster *ClusterStatus `json:"cluster,omitempty"`

	// Tenants is the per-tenant view: one summary per non-default
	// tenant with provenance on this hub. A single-tenant fleet (every
	// session under the default "" tenant) has none.
	Tenants []TenantStatus `json:"tenants,omitempty"`
}

// TenantStatus is one tenant's slice of the hub status.
type TenantStatus struct {
	Tenant    string `json:"tenant"`
	Sigs      int    `json:"sigs"`
	Armed     int    `json:"armed"`
	Threshold int    `json:"threshold"`
	Devices   int    `json:"devices"`
}

// ClusterStatus is the federation slice of a hub's status.
type ClusterStatus struct {
	// Members is the full ownership-ring membership (self included).
	Members []string `json:"members"`
	// Peers lists the hubs with a live inbound peer session.
	Peers []string `json:"peers"`
	// OwnerSeq is this hub's arming sequence for the signatures it owns.
	OwnerSeq uint64 `json:"owner_seq"`
	// Owned and Remote count provenance entries this hub owns vs. armed
	// entries replicated from peer owners.
	Owned  int `json:"owned"`
	Remote int `json:"remote"`
	// Forwards counts device-reported signatures relayed to their owner.
	Forwards uint64 `json:"forwards"`

	// MembershipEpoch is the hub's membership epoch and Ring the
	// full membership with liveness — the /status view an operator reads
	// to answer "who is in the cluster and who is alive".
	MembershipEpoch uint64       `json:"membership_epoch,omitempty"`
	Ring            []MemberInfo `json:"ring,omitempty"`
	// Fenced counts stale arm-broadcasts refused by the fencing rule.
	Fenced uint64 `json:"fenced,omitempty"`
}

// SigStatus is one signature's fleet provenance as reported by status.
// Owner is the cluster id of the owning hub ("" outside a cluster).
type SigStatus struct {
	Key           string   `json:"key"`
	Kind          string   `json:"kind"`
	FirstSeen     string   `json:"first_seen"`
	Confirmations int      `json:"confirmations"`
	ConfirmedBy   []string `json:"confirmed_by"`
	Armed         bool     `json:"armed"`
	Owner         string   `json:"owner,omitempty"`

	// Tenant is the fleet the signature belongs to ("" = default).
	Tenant string `json:"tenant,omitempty"`
}

// Batching reports the hub's delta coalescing: Batches delta messages
// sent carrying Signatures signatures total (Signatures/Batches > 1
// means publish storms were coalesced).
type Batching struct {
	Batches    uint64 `json:"batches"`
	Signatures uint64 `json:"signatures"`
}

// Signature is the canonical wire form of one deadlock antibody.
type Signature struct {
	Kind  string
	Pairs []SigPair
}

// SigPair is one thread's (outer, inner) call-stack pair, each stack in
// its canonical key form.
type SigPair struct {
	Outer string
	Inner string
}

// FromCore encodes a core signature canonically.
func FromCore(s *core.Signature) Signature {
	out := Signature{Kind: s.Kind.String(), Pairs: make([]SigPair, len(s.Pairs))}
	for i, p := range s.Pairs {
		out.Pairs[i] = SigPair{Outer: p.Outer.Key(), Inner: p.Inner.Key()}
	}
	return out
}

// ToCore decodes and validates the signature.
func (s Signature) ToCore() (*core.Signature, error) {
	kind, err := core.ParseSigKind(s.Kind)
	if err != nil {
		return nil, fmt.Errorf("wire signature: %w", err)
	}
	sig := &core.Signature{Kind: kind, Pairs: make([]core.SigPair, len(s.Pairs))}
	for i, p := range s.Pairs {
		outer, err := core.ParseCallStack(p.Outer)
		if err != nil {
			return nil, fmt.Errorf("wire signature pair %d outer: %w", i, err)
		}
		inner, err := core.ParseCallStack(p.Inner)
		if err != nil {
			return nil, fmt.Errorf("wire signature pair %d inner: %w", i, err)
		}
		sig.Pairs[i] = core.SigPair{Outer: outer, Inner: inner}
	}
	if err := core.ValidateShape(kind, len(sig.Pairs)); err != nil {
		return nil, fmt.Errorf("wire signature: %w", err)
	}
	return sig, nil
}

// Checked is a signature that passed Check: its kind, its key
// (core.Signature.Key) and its canonical wire form.
type Checked struct {
	Kind core.SigKind
	Key  string
	Sig  Signature
}

// Check validates s as ToCore does, with the same error, but builds no
// core.Signature for a canonical s (see the package comment): Sig is s
// itself and the key is the only allocation.
func (s Signature) Check() (Checked, error) {
	if kind, err := core.ParseSigKind(s.Kind); err == nil && core.ValidateShape(kind, len(s.Pairs)) == nil {
		outers := make([]string, 0, 4)
		for _, p := range s.Pairs {
			if !core.CanonicalStack(p.Outer) || !core.CanonicalStack(p.Inner) {
				break
			}
			outers = append(outers, p.Outer)
		}
		if len(outers) == len(s.Pairs) {
			return Checked{Kind: kind, Key: core.SignatureKey(kind, outers), Sig: s}, nil
		}
	}
	sig, err := s.ToCore()
	if err != nil {
		return Checked{}, err
	}
	return Checked{Kind: sig.Kind, Key: sig.Key(), Sig: FromCore(sig)}, nil
}

// Validate checks the envelope's structural invariants: a known type and
// exactly the payload that type requires. It does not check the version
// — that is a session-level decision made at hello.
func (m Message) Validate() error {
	payloads := 0
	for _, p := range []bool{m.Hello != nil, m.Ack != nil, m.Report != nil,
		m.Confirm != nil, m.Delta != nil, m.Status != nil,
		m.PeerHello != nil, m.Forward != nil, m.FwdConfirm != nil, m.Arm != nil,
		m.Member != nil, m.Handoff != nil, m.Replicate != nil,
		m.Ping != nil, m.PingAck != nil, m.Lease != nil, m.LeaseAck != nil} {
		if p {
			payloads++
		}
	}
	want := func(p bool) error {
		if !p {
			return fmt.Errorf("wire message %s: missing payload", m.Type)
		}
		if payloads != 1 {
			return fmt.Errorf("wire message %s: %d payloads, want 1", m.Type, payloads)
		}
		return nil
	}
	switch m.Type {
	case TypeHello:
		return want(m.Hello != nil)
	case TypeAck:
		return want(m.Ack != nil)
	case TypeReport:
		return want(m.Report != nil)
	case TypeConfirm:
		return want(m.Confirm != nil)
	case TypeDelta:
		return want(m.Delta != nil)
	case TypeStatus:
		return want(m.Status != nil)
	case TypePeerHello:
		return want(m.PeerHello != nil)
	case TypeForwardReport:
		return want(m.Forward != nil)
	case TypeForwardConfirm:
		return want(m.FwdConfirm != nil)
	case TypeArmBroadcast:
		return want(m.Arm != nil)
	case TypeMemberUpdate:
		return want(m.Member != nil)
	case TypeHandoff:
		return want(m.Handoff != nil)
	case TypeReplicate:
		return want(m.Replicate != nil)
	case TypePing:
		return want(m.Ping != nil)
	case TypePingAck:
		return want(m.PingAck != nil)
	case TypeLease:
		return want(m.Lease != nil)
	case TypeLeaseAck:
		return want(m.LeaseAck != nil)
	case TypeStatusReq:
		if payloads != 0 {
			return fmt.Errorf("wire message %s: unexpected payload", m.Type)
		}
		return nil
	default:
		return fmt.Errorf("wire message: unknown type %q", m.Type)
	}
}

// binaryFlag is the codec bit of a frame header (see the package
// comment's framing diagram); every frame carries it. MaxFrame needs 23
// bits, so the top bit of the length prefix is free.
const binaryFlag = 1 << 31

// AppendFrame appends one framed message to dst and returns the
// extended slice.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := appendBinary(dst, m)
	if err != nil {
		return dst[:start], err
	}
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("wire frame: %d bytes exceeds max %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(dst[start:start+4], binaryFlag|uint32(n))
	return dst, nil
}

// WriteFrame writes one framed message to w as a single Write (one
// packet on an unbuffered socket).
func WriteFrame(w io.Writer, m Message) error {
	b, err := AppendFrame(nil, m)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("wire write: %w", err)
	}
	return nil
}

// parseHeader unpacks and validates a frame header: the codec flag and
// the payload length. It is the single reading of the header layout —
// the buffered and unbuffered read paths must never disagree about
// frame validity.
func parseHeader(hdr [4]byte) (uint32, error) {
	n := binary.BigEndian.Uint32(hdr[:])
	if n&binaryFlag == 0 {
		return 0, fmt.Errorf("wire read: unsupported codec (frame header %#08x lacks the binary flag)", n)
	}
	n &^= binaryFlag
	if n == 0 {
		return 0, fmt.Errorf("wire read: zero-length frame")
	}
	if n > MaxFrame {
		return 0, fmt.Errorf("wire read: frame %d bytes exceeds max %d", n, MaxFrame)
	}
	return n, nil
}

// ReadFrame reads one framed message from r without reading ahead —
// callers that own the stream should use Reader, which buffers and
// reuses its payload scratch. Oversized or zero-length frames fail
// before any payload allocation.
func ReadFrame(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err // io.EOF passes through for clean close detection
	}
	n, err := parseHeader(hdr)
	if err != nil {
		return Message{}, err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return Message{}, fmt.Errorf("wire read: %w", err)
	}
	return DecodeBinary(b)
}

// maxScratch caps the payload buffer a Reader keeps between frames: the
// common frame reuses it allocation-free, a rare jumbo frame gets a
// transient buffer that is not retained.
const maxScratch = 64 << 10

// Reader reads frames from one stream. It owns a buffered reader — the
// header and body of a small frame cost one read from the kernel, not
// two — and a reused, size-capped scratch buffer, so steady-state frame
// reads allocate only what the decoded message itself needs. Decoded
// messages never alias the scratch — the decoder copies what it keeps,
// each signature's strings as one copy of that signature's bytes — which
// is what makes the reuse safe.
type Reader struct {
	br      *bufio.Reader
	scratch []byte
}

// NewReader wraps r; an existing *bufio.Reader is used as-is.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 32<<10)
	}
	return &Reader{br: br}
}

// ReadFrame reads and decodes the next frame.
func (r *Reader) ReadFrame() (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return Message{}, err // io.EOF passes through for clean close detection
	}
	n, err := parseHeader(hdr)
	if err != nil {
		return Message{}, err
	}
	buf := r.scratch
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
		if n <= maxScratch {
			r.scratch = buf
		}
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return Message{}, fmt.Errorf("wire read: %w", err)
	}
	return DecodeBinary(buf)
}

// Ready reports whether ReadFrame would return without reading the
// stream: a whole frame, or a header ReadFrame refuses, is already
// buffered. A session uses it to take the frames that arrived together
// without blocking on the next one.
func (r *Reader) Ready() bool {
	if r.br.Buffered() < 4 {
		return false
	}
	hdr, _ := r.br.Peek(4)
	n, err := parseHeader([4]byte(hdr))
	return err != nil || r.br.Buffered()-4 >= int(n)
}

// Shared is an encode-once broadcast frame: one immutable message,
// encoded at most once, with every session handed the same []byte. It
// is what turns a hub fan-out from O(subscribers) marshals into one:
// the exchange wraps each delta and arm-broadcast in a Shared and
// enqueues the handle, and each session's drain takes the frame at
// write time.
//
// The wrapped message and the returned frame are immutable: callers
// must never modify the bytes (they are concurrently written to other
// sessions) and must not mutate the message after wrapping it.
type Shared struct {
	msg Message

	once  sync.Once
	frame []byte
	err   error
}

// NewShared wraps m (payload pointers included) as an immutable
// broadcast, stamped at Version whatever m.V says.
func NewShared(m Message) *Shared {
	m.V = Version
	return &Shared{msg: m}
}

// Msg returns the wrapped message. The payload is shared: read-only.
func (s *Shared) Msg() Message { return s.msg }

// Frame returns the full encoded frame (header included), encoding at
// most once however many sessions share it. The returned bytes are
// immutable. The argument is vestigial — bench/ still passes the
// session version — and goes with MinVersion.
func (s *Shared) Frame(int) ([]byte, error) {
	s.once.Do(func() { s.frame, s.err = AppendFrame(nil, s.msg) })
	return s.frame, s.err
}
