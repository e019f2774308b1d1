package immunity

import (
	"errors"
	"fmt"
	"sort"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// The hub's decision half (see the package comment's "Decision point"):
// plain data, with no mutex, goroutine, clock, store, session or metrics
// registry. The Exchange calls one method per event under its own mu
// and applies the effects it filled in; tests drive it with a fake ring.

// ErrFenced reports that a peer arm-broadcast was refused by the
// membership fencing rule: its fence epoch was stale and its sender no
// longer owns the signature. The link layer treats it as a refusal —
// counted, cursor not advanced — not a session error.
var ErrFenced = errors.New("exchange: stale owner arm-broadcast fenced")

// Provenance is one fleet signature's audit record.
type Provenance struct {
	// Key is the signature's canonical identity (core.Signature.Key).
	Key string
	// Kind is the signature kind.
	Kind core.SigKind
	// FirstSeen is the device that first reported the signature.
	FirstSeen string
	// Confirmations is the number of distinct devices that independently
	// reported it. On a non-owning hub of a cluster this is the count
	// replicated at arming, not a live view.
	Confirmations int
	// ConfirmedBy lists those devices, sorted. Only the owning hub holds
	// the authoritative set; a replicated armed entry's is empty.
	ConfirmedBy []string
	// Armed reports whether the signature has been armed fleet-wide.
	Armed bool
	// Owner is the cluster id of the hub that owns the signature's
	// confirm-before-arm bookkeeping ("" outside a cluster).
	Owner string
	// Tenant scopes the record to one tenant's fleet ("" for the
	// default tenant). Tenants' records never mix: confirmations,
	// arming, and pushes all stay within the record's tenant.
	Tenant string
}

// fleetSig is the hub-side state of one signature.
type fleetSig struct {
	// key is the entry's map key: tenantKey(tenant, signature key), so
	// two tenants reporting the byte-identical signature hold two
	// independent entries — confirmations, thresholds, and armings never
	// cross.
	key    string
	tenant string
	kind   core.SigKind
	// ws is the canonical wire form, interned when the record is created:
	// the catch-up, broadcast, delta, and provenance paths reuse it
	// instead of re-deriving every call-stack key per message.
	ws          wire.Signature
	seq         int // first-report order, 1-based
	firstSeen   string
	confirmedBy map[string]bool
	armed       bool
	// armEpoch is the fleet epoch assigned at arming (0 while unarmed):
	// the entry's place in every device's delivery prefix.
	armEpoch uint64

	// Cluster fields. owner is the cluster id of the hub owning the
	// signature's confirm bookkeeping ("" outside a cluster); ownerSeq is
	// the owner's monotonic arming sequence (0 while unarmed) — for owned
	// entries it orders peer catch-up replay, for replicated entries it is
	// the peer resume point, and it always lives in owner's namespace
	// (reown resets it). remoteConfirms caches the confirmation count an
	// arm-broadcast carried, so a non-owner hub can answer echo reports
	// without a round trip to the owner.
	owner          string
	ownerSeq       uint64
	remoteConfirms int
}

// confirmations is the externally visible count: the live set, or the
// count the owner's broadcast carried when that is all this hub holds.
func (e *fleetSig) confirmations() int { return max(len(e.confirmedBy), e.remoteConfirms) }

// reown moves e under owner, leaving the previous owner's seq namespace.
func (e *fleetSig) reown(owner string) {
	if e.owner != owner {
		e.owner, e.ownerSeq = owner, 0
	}
}

// ownedRecord snapshots e's provenance slice in its wire form (handoff
// and deputy replication).
func (e *fleetSig) ownedRecord() wire.OwnedRecord {
	return wire.OwnedRecord{
		Sig:         e.ws,
		FirstSeen:   e.firstSeen,
		ConfirmedBy: sortedKeys(e.confirmedBy),
		Armed:       e.armed,
		OwnerSeq:    e.ownerSeq,
		Tenant:      e.tenant,
	}
}

// tenantKey derives a signature's canonical hub key: the plain
// signature key for the default tenant (so a single-tenant provenance
// log keeps its keys), a tenant-prefixed key otherwise. The prefix rides
// through the ownership ring hash, forwarding, replication, and handoff
// untouched — tenancy is a property of the key, so every cluster path is
// tenant-aware for free.
func tenantKey(tenant, key string) string {
	if tenant == "" {
		return key
	}
	return "t=" + tenant + "|" + key
}

// deviceKey is the store key of one device's delivery-cursor record. No
// signature key can take this form — those start with a kind name or
// tenantKey's "t=" — and the quoted tenant keeps (tenant, device) pairs
// apart whatever bytes either holds.
func deviceKey(tenant, device string) string { return fmt.Sprintf("device=%q|%s", tenant, device) }

// delivery is what the hub has pushed to one device (the package
// comment's "Delivery cursor"): every armed signature of its tenant
// while a session is open, and otherwise exactly those armed at or
// below cursor, the fleet epoch at its last detach.
type delivery struct {
	open   bool
	cursor uint64
}

// pushed reports whether the hub delivered e to the device. A report
// from it is then not an independent observation — it is the push
// coming back, possibly via the device's persistent store after a
// reconnect or reboot — and never counts as a confirmation.
func (d delivery) pushed(e *fleetSig) bool { return e.armed && (d.open || e.armEpoch <= d.cursor) }

// maxForwardHops bounds forwarding legs for one report: the device's
// own hub plus one re-forward after an ownership move. A report still
// not home after that is counted where it stands — with set-union
// confirmations and idempotent arming that costs at worst a slightly
// split count, never a loop.
const maxForwardHops = 2

// ringView is all the arbiter sees of the cluster: the pure queries of
// ClusterBinding.
type ringView interface {
	Owns(key string) bool
	OwnerOf(key string) string
	Epoch() uint64
	MayArm() bool
}

// armLog is one tenant's armed signatures in fleet-epoch order, with
// each one's armEpoch (the package comment's "Arming log"). It only
// grows, so every delta a device receives is a view of it.
type armLog struct {
	sigs   []wire.Signature
	epochs []uint64
}

// tenantDelta is one event's armings in one tenant: a view of the
// tenant's log that goes to every attached device of the tenant.
type tenantDelta struct {
	tenant string
	view[wire.Signature]
}

// tally counts what one event did, for the shell's stats and metrics.
type tally struct {
	reports, confirms, echoes, forwards uint64
	armed, decisions, remoteInstalls    uint64
	fenced, replicas, handoffs, parks   uint64
}

// effects is everything one event asks the shell to do. The first class
// — deltas, broadcasts, catchup — is enqueued on session push queues
// before Exchange.mu is released, in slice order, so per-session order
// is decision order; the rest runs after.
type effects struct {
	deltas     []tenantDelta // one per tenant that armed
	broadcasts []*wire.ArmBroadcast
	catchup    view[wire.Signature] // attach only: the hello's catch-up delta, if any

	persist  []ProvenanceRecord // in mutation order
	confirms []*wire.Confirm    // one receipt per reported signature
	forward  struct {           // foreign signatures to relay to their owners
		tenant, device string
		hops           int
		sigs           []wire.Signature
		keys           []string
	}
	replKeys []string // owned pending sets to copy to their deputies
	replRecs []wire.OwnedRecord
	handoffs map[string][]wire.OwnedRecord // rebind only: demoted slices by new owner
	n        tally
}

// arbiter is the hub's fleet state and the rules that change it.
type arbiter struct {
	threshold        int
	tenantThresholds map[string]int

	entries map[string]*fleetSig
	order   []string           // keys in first-report order
	epoch   uint64             // fleet arm counter: the delta epoch, == armed entries
	logs    map[string]*armLog // by tenant
	// devices is every device's delivery state, by tenant (device ids
	// are only unique within one). A device is open from attach to
	// detach; its state changes only there, never at an arming.
	devices map[string]map[string]delivery

	// Cluster state (nil/zero standalone). ownerSeq numbers this hub's own
	// armings for peer catch-up. parked holds the owned keys at threshold
	// whose fresh decision MayArm refused; they leave by arming (here on
	// lease acquisition, or by the new owner's broadcast) or by demotion.
	ring     ringView
	selfID   string
	ownerSeq uint64
	parked   map[string]bool
}

func newArbiter(threshold int) *arbiter {
	return &arbiter{
		threshold: threshold,
		entries:   make(map[string]*fleetSig),
		logs:      make(map[string]*armLog),
		devices:   make(map[string]map[string]delivery),
		parked:    make(map[string]bool),
	}
}

// thresholdFor is the confirm-before-arm threshold for one tenant.
func (a *arbiter) thresholdFor(tenant string) int {
	if t, ok := a.tenantThresholds[tenant]; ok {
		return t
	}
	return a.threshold
}

// foreign reports whether another hub owns e's bookkeeping.
func (a *arbiter) foreign(e *fleetSig) bool { return e.owner != "" && e.owner != a.selfID }

// entry returns key's entry, creating an empty one (no owner, no
// firstSeen, room for confirms confirmations) if the hub has never seen
// the signature.
func (a *arbiter) entry(key, tenant string, kind core.SigKind, ws wire.Signature, confirms int) *fleetSig {
	e, ok := a.entries[key]
	if !ok {
		e = &fleetSig{
			key:         key,
			tenant:      tenant,
			kind:        kind,
			ws:          ws,
			seq:         len(a.order) + 1,
			confirmedBy: make(map[string]bool, confirms),
		}
		a.entries[key] = e
		a.order = append(a.order, key)
	}
	return e
}

// armBroadcast is e's arming as the owner announces it to peers.
func (a *arbiter) armBroadcast(e *fleetSig, fence uint64) *wire.ArmBroadcast {
	return &wire.ArmBroadcast{Owner: a.selfID, Seq: e.ownerSeq,
		Confirmations: len(e.confirmedBy), Sig: e.ws, Fence: fence, Tenant: e.tenant}
}

// settle is the decision point: every event that touched e ends here,
// and nothing else arms, parks, sequences or announces. decided means a
// hub with the right to decide already armed the signature (a peer's
// broadcast, a handoff record armed by the previous owner), so
// installing it is not a fresh decision. The rule:
//
//   - A key another hub owns is never decided here: it leaves the parked
//     set, arms only by installing a decided arming, and never takes a
//     seq from this hub's namespace.
//   - An owned (or standalone) unarmed key arms when decided, or when its
//     confirmation set has reached the tenant's threshold and the ring
//     grants MayArm; at threshold without the grant it parks.
//   - An owned armed key carries a seq of this hub's namespace, and an
//     arming that happened in this call is broadcast.
//
// It reports whether e is left pending: owned in a cluster and unarmed,
// the state whose confirmation set the deputy shadows.
func (a *arbiter) settle(fx *effects, e *fleetSig, decided bool) (pending bool) {
	clustered := a.ring != nil
	if clustered && e.owner != a.selfID {
		a.unpark(e.key)
		if decided && !e.armed {
			a.arm(fx, e)
			fx.n.remoteInstalls++
		}
		return false
	}
	fresh := !e.armed
	if fresh {
		switch {
		case decided:
		case len(e.confirmedBy) < a.thresholdFor(e.tenant):
			return clustered
		case clustered && !a.ring.MayArm():
			if !a.parked[e.key] {
				a.parked[e.key] = true
				fx.n.parks++
			}
			return true
		default:
			fx.n.decisions++
		}
		a.arm(fx, e)
	}
	a.unpark(e.key)
	if clustered {
		if e.ownerSeq == 0 {
			a.ownerSeq++
			e.ownerSeq = a.ownerSeq
		}
		if fresh {
			fx.broadcasts = append(fx.broadcasts, a.armBroadcast(e, a.ring.Epoch()))
		}
	}
	return false
}

// arm is an arming's device-facing half: the next fleet epoch, an
// append to the tenant's log, and the event's delta to the tenant's
// attached devices grown by one — only that tenant's: arming in tenant
// A must be invisible to tenant B's devices. The fleet epoch therefore
// counts arm events exactly once per signature per hub: epoch ==
// armed-signature count is the no-double-arm invariant.
func (a *arbiter) arm(fx *effects, e *fleetSig) {
	e.armed = true
	a.epoch++
	e.armEpoch = a.epoch
	fx.n.armed++
	l := a.logOf(e.tenant)
	l.sigs, l.epochs = append(l.sigs, e.ws), append(l.epochs, a.epoch)
	n := len(l.sigs)
	for i := range fx.deltas {
		if d := &fx.deltas[i]; d.tenant == e.tenant {
			d.log, d.epoch = l.sigs[:n:n], a.epoch
			return
		}
	}
	fx.deltas = append(fx.deltas, tenantDelta{e.tenant, view[wire.Signature]{l.sigs[:n:n], n - 1, a.epoch}})
}

// logOf returns tenant's arming log, creating an empty one.
func (a *arbiter) logOf(tenant string) *armLog {
	l := a.logs[tenant]
	if l == nil {
		l = &armLog{}
		a.logs[tenant] = l
	}
	return l
}

func (a *arbiter) unpark(key string) {
	if len(a.parked) > 0 {
		delete(a.parked, key)
	}
}

// record snapshots e as a provenance record.
func (a *arbiter) record(e *fleetSig) ProvenanceRecord {
	rec := ProvenanceRecord{
		Seq:            e.seq,
		Key:            e.key,
		Sig:            e.ws,
		FirstSeen:      e.firstSeen,
		ConfirmedBy:    sortedKeys(e.confirmedBy),
		Armed:          e.armed,
		ArmEpoch:       e.armEpoch,
		Owner:          e.owner,
		OwnerSeq:       e.ownerSeq,
		RemoteConfirms: e.remoteConfirms,
		Tenant:         e.tenant,
	}
	if a.foreign(e) && e.armed {
		// Replicated armed entry: persist only the slim record — the
		// signature, its owner, and the arming — never the confirmation
		// bookkeeping, which is the owner's alone. An *unarmed* foreign
		// entry keeps its set: that is the deputy's shadow copy, and it
		// must survive a deputy restart to keep the failover promise.
		rec.ConfirmedBy = nil
		rec.FirstSeen = ""
	}
	return rec
}

// touched queues e's current state for the provenance store.
func (a *arbiter) touched(fx *effects, e *fleetSig) {
	fx.persist = append(fx.persist, a.record(e))
}

// load installs a provenance store's records, before any other event.
// A device record still open is a session the previous incarnation
// crashed under: it is closed at the loaded fleet epoch — every arming
// the log holds was pushed to it, by catch-up or live — and the close is
// persisted, so a later incarnation's armings never join it.
func (a *arbiter) load(fx *effects, recs []ProvenanceRecord) error {
	a.entries = make(map[string]*fleetSig, len(recs))
	a.order = make([]string, 0, len(recs))
	for _, rec := range recs {
		if rec.Device != "" {
			a.setDelivery(nil, rec.Tenant, rec.Device, delivery{open: rec.Open, cursor: rec.Cursor})
			continue
		}
		c, err := rec.Sig.Check()
		if err != nil {
			return fmt.Errorf("provenance record %q: %w", rec.Key, err)
		}
		if key := tenantKey(rec.Tenant, c.Key); key != rec.Key {
			return fmt.Errorf("provenance record %q: its signature's key is %q", rec.Key, key)
		}
		e := a.entry(rec.Key, rec.Tenant, c.Kind, rec.Sig, len(rec.ConfirmedBy))
		e.seq, e.firstSeen = rec.Seq, rec.FirstSeen
		e.armed, e.armEpoch = rec.Armed, rec.ArmEpoch
		e.owner, e.ownerSeq, e.remoteConfirms = rec.Owner, rec.OwnerSeq, rec.RemoteConfirms
		for _, d := range rec.ConfirmedBy {
			e.confirmedBy[d] = true
		}
		if rec.ArmEpoch > a.epoch {
			a.epoch = rec.ArmEpoch
		}
	}
	var armed []*fleetSig
	for _, key := range a.order {
		if e := a.entries[key]; e.armed {
			armed = append(armed, e)
		}
	}
	sort.Slice(armed, func(i, j int) bool { return armed[i].armEpoch < armed[j].armEpoch })
	for _, e := range armed {
		l := a.logOf(e.tenant)
		l.sigs, l.epochs = append(l.sigs, e.ws), append(l.epochs, e.armEpoch)
	}
	for tenant, ds := range a.devices {
		for device, d := range ds {
			if d.open {
				a.setDelivery(fx, tenant, device, delivery{cursor: a.epoch})
			}
		}
	}
	return nil
}

// setDelivery records one device's delivery state and, unless fx is
// nil (a reload), queues its record for the store.
func (a *arbiter) setDelivery(fx *effects, tenant, device string, d delivery) {
	if a.devices[tenant] == nil {
		a.devices[tenant] = make(map[string]delivery)
	}
	a.devices[tenant][device] = d
	if fx != nil {
		fx.persist = append(fx.persist, ProvenanceRecord{Key: deviceKey(tenant, device),
			Tenant: tenant, Device: device, Open: d.open, Cursor: d.cursor})
	}
}

// bind federates the hub under ring as selfID and reconciles reloaded
// provenance with it: entries this hub owns get their owner stamped
// and — for armed entries a pre-cluster hub never sequenced — an arming
// seq in armEpoch order, so a freshly clustered or restarted owner
// replays its full owned armed set to peers.
func (a *arbiter) bind(fx *effects, ring ringView, selfID string) {
	a.ring, a.selfID = ring, selfID
	var unsequenced []*fleetSig
	for _, key := range a.order {
		e := a.entries[key]
		if e.owner == selfID && e.ownerSeq > a.ownerSeq {
			a.ownerSeq = e.ownerSeq
		}
		if ring.Owns(key) {
			e.reown(selfID)
			if e.armed && e.ownerSeq == 0 {
				unsequenced = append(unsequenced, e)
			}
		}
	}
	sort.Slice(unsequenced, func(i, j int) bool { return unsequenced[i].armEpoch < unsequenced[j].armEpoch })
	for _, e := range unsequenced {
		a.settle(fx, e, false)
		a.touched(fx, e)
	}
}

// attach registers a device session and sets fx.catchup to the suffix
// of its tenant's log that the device's epoch predates, found by binary
// search. Catch-up is tenant-scoped; the fleet epoch counter is global,
// so a tenant's client may see epoch gaps — harmless, resume is
// strictly "armEpoch greater than mine". The device is open from here
// to its detach, and that one record is all attach persists: since came
// from this incarnation's gen, so it is at most the device's cursor,
// and the catch-up completes the prefix from there.
func (a *arbiter) attach(fx *effects, tenant, device string, since uint64) {
	a.setDelivery(fx, tenant, device, delivery{open: true})
	if l := a.logs[tenant]; l != nil {
		n := len(l.sigs)
		if i := sort.Search(n, func(i int) bool { return l.epochs[i] > since }); i < n {
			fx.catchup = view[wire.Signature]{l.sigs[:n:n], i, a.epoch}
		}
	}
}

// detach closes an open device's session at the current fleet epoch:
// it has been pushed exactly the armings up to here. Detaching a device
// that is not open changes nothing.
func (a *arbiter) detach(fx *effects, tenant, device string) {
	if a.devices[tenant][device].open {
		a.setDelivery(fx, tenant, device, delivery{cursor: a.epoch})
	}
}

// report records the batch as confirmations by device, with a confirm
// receipt per signature.
//
// In a cluster the hub arbitrates only the signatures it owns. A
// foreign signature's report is relayed to its owner (the receipt
// arrives later as a forward-confirm) — unless this hub already
// delivered the signature to that device, in which case the report is
// the push coming back and is answered locally as an echo. hops counts
// forwarding legs already taken: ownership can move while a forward
// sits in a retry outbox, so a forwarded report for a signature this
// hub no longer owns is re-forwarded to the current owner while hops <
// maxForwardHops, then counted locally — churn degrades to one extra
// hop, never a forwarding loop. Every fresh confirmation of an owned,
// still-unarmed signature is replicated to the key's deputy so arming
// survives an owner crash; each copy carries the whole set, so a lost or
// reordered one is repaired by the next.
func (a *arbiter) report(fx *effects, tenant, device string, sigs []wire.Checked, hops int) {
	fx.confirms = make([]*wire.Confirm, 0, len(sigs))
	fx.forward.tenant, fx.forward.device, fx.forward.hops = tenant, device, hops+1
	delivered := a.devices[tenant][device]
	for _, sig := range sigs {
		// The hub key carries the tenant prefix; the device-facing confirm
		// carries the plain signature key the device reported — tenancy
		// never leaks into the device protocol.
		plainKey := sig.Key
		key := tenantKey(tenant, plainKey)
		fx.n.reports++
		e, known := a.entries[key]
		if a.ring != nil && hops < maxForwardHops && !a.ring.Owns(key) {
			if known && (delivered.pushed(e) || e.confirmedBy[device]) {
				// The device only holds the signature because this hub (or
				// a previous forward) already accounted for it: echo.
				fx.n.echoes++
				fx.confirms = append(fx.confirms, &wire.Confirm{Key: plainKey,
					Confirmations: e.confirmations(), Armed: e.armed})
				continue
			}
			fx.n.forwards++
			fx.forward.sigs = append(fx.forward.sigs, sig.Sig)
			fx.forward.keys = append(fx.forward.keys, key)
			continue
		}
		if !known {
			e = a.entry(key, tenant, sig.Kind, sig.Sig, 0)
			e.firstSeen, e.owner = device, a.selfID
		}
		if e.confirmedBy[device] || delivered.pushed(e) {
			// Already counted, or the device only has the signature because
			// the hub pushed it there: not an independent observation.
			fx.n.echoes++
		} else {
			e.confirmedBy[device] = true
			fx.n.confirms++
			if a.settle(fx, e, false) {
				fx.replKeys = append(fx.replKeys, key)
				fx.replRecs = append(fx.replRecs, e.ownedRecord())
			}
			a.touched(fx, e)
		}
		fx.confirms = append(fx.confirms, &wire.Confirm{Key: plainKey, Confirmations: len(e.confirmedBy), Armed: e.armed})
	}
}

// remoteArm applies one peer arm-broadcast for key: the signature is
// recorded as armed under its owner at the owner's seq. Re-delivered
// broadcasts only refresh the replicated metadata. It reports whether
// the broadcast newly armed the signature here.
//
// The fencing rule: a broadcast whose Fence (the sender's membership
// epoch) is older than this hub's membership epoch is refused with
// ErrFenced — unless the sender still owns the signature under this
// hub's ring, in which case the sender is merely behind on membership
// gossip, not deposed. A returning stale owner therefore cannot arm a
// signature the cluster re-owned while it was dead, and — because an
// owner change enters the new owner's seq namespace instead of taking a
// cross-owner max — it cannot regress or inflate the owner seq either.
func (a *arbiter) remoteArm(fx *effects, key string, kind core.SigKind, b wire.ArmBroadcast) (bool, error) {
	if a.ring != nil && b.Fence < a.ring.Epoch() && a.ring.OwnerOf(key) != b.Owner {
		fx.n.fenced++
		return false, ErrFenced
	}
	e := a.entry(key, b.Tenant, kind, b.Sig, 0)
	e.reown(b.Owner)
	e.ownerSeq = max(e.ownerSeq, b.Seq)
	e.remoteConfirms = max(e.remoteConfirms, b.Confirmations)
	applied := !e.armed
	a.settle(fx, e, true)
	a.touched(fx, e)
	return applied, nil
}

// decodedRecord is one owned provenance record with its signature
// decoded and keyed — replica and handoff batches decode before the
// shell takes the hub lock.
type decodedRecord struct {
	key  string
	kind core.SigKind
	rec  wire.OwnedRecord
}

func decodeOwnedRecords(from string, recs []wire.OwnedRecord) ([]decodedRecord, error) {
	out := make([]decodedRecord, 0, len(recs))
	for _, rec := range recs {
		c, err := rec.Sig.Check()
		if err != nil {
			return nil, fmt.Errorf("exchange: owned record from %s: %w", from, err)
		}
		out = append(out, decodedRecord{tenantKey(rec.Tenant, c.Key), c.Kind, rec})
	}
	return out, nil
}

// merge folds an owned record into its entry: confirmation sets by
// union, so at-least-once delivery and reordering are harmless.
func (a *arbiter) merge(d decodedRecord) *fleetSig {
	e := a.entry(d.key, d.rec.Tenant, d.kind, d.rec.Sig, 0)
	if e.firstSeen == "" {
		e.firstSeen = d.rec.FirstSeen
	}
	for _, dev := range d.rec.ConfirmedBy {
		e.confirmedBy[dev] = true
	}
	return e
}

// replica applies an owner→deputy replicate batch: each record's
// pending confirmation set is merged into the local shadow entry under
// the sender's ownership. A replica normally just sits until the owner
// either arms the signature (broadcast) or dies (the membership change
// re-owns the key and rebind promotes the shadow); a replica arriving
// after this hub already took ownership counts immediately and can arm
// at threshold.
func (a *arbiter) replica(fx *effects, owner string, ds []decodedRecord) {
	for _, d := range ds {
		e := a.merge(d)
		if e.owner != a.selfID {
			e.reown(owner)
		}
		fx.n.replicas++
		a.settle(fx, e, false)
		a.touched(fx, e)
	}
}

// importOwned applies a handoff batch: provenance slices for keys whose
// ownership moved to this hub. Confirmation sets merge by union and arm
// state by or — a record already armed by the previous owner is
// installed (its decision, so the lease does not gate it) and
// re-sequenced into this owner's namespace, a pending record past
// threshold arms now, and everything else resumes counting exactly
// where the previous owner stopped. A record this hub does not own
// under its current ring (the sender's membership was behind) is kept
// as a shadow replica of the true owner instead of being dropped.
func (a *arbiter) importOwned(fx *effects, _ string, ds []decodedRecord) {
	for _, d := range ds {
		e := a.merge(d)
		fx.n.handoffs++
		if a.ring.Owns(d.key) {
			e.reown(a.selfID)
		} else if e.owner != a.selfID {
			e.reown(a.ring.OwnerOf(d.key))
		}
		a.settle(fx, e, d.rec.Armed)
		a.touched(fx, e)
	}
}

// rebind re-evaluates every entry against the current live ring after
// a membership change. Keys this hub gained are promoted — an armed
// replica is re-sequenced into this owner's namespace, a pending shadow
// set past threshold arms (the deputy assuming a dead owner's keys is
// exactly this path; a fresh decision, safe against the deposed owner's
// residual lease because the suspicion window outlives the lease TTL) —
// and keys it lost are demoted, their provenance slices filed in
// fx.handoffs by new owner; the new owner re-sequences on import and
// its broadcasts re-stamp the entry.
func (a *arbiter) rebind(fx *effects) {
	fx.handoffs = make(map[string][]wire.OwnedRecord)
	for _, key := range a.order {
		e := a.entries[key]
		owner := a.ring.OwnerOf(key)
		if (owner == a.selfID) == (e.owner == a.selfID) {
			continue
		}
		if owner != a.selfID {
			fx.handoffs[owner] = append(fx.handoffs[owner], e.ownedRecord())
		}
		e.reown(owner)
		a.settle(fx, e, false)
		a.touched(fx, e)
	}
}

// leaseAcquired re-decides the parked set, in key order: this hub's
// threshold crossings deferred while it sat on the minority side of a
// partition. A key stays parked only if the lease flapped away again.
func (a *arbiter) leaseAcquired(fx *effects) {
	for _, key := range sortedKeys(a.parked) {
		if e := a.entries[key]; !a.settle(fx, e, false) {
			a.touched(fx, e)
		}
	}
}

// peerReplay is the hub-to-hub twin of the device catch-up: every owned
// armed signature a peer whose cursor is since has missed, one
// arm-broadcast each, oldest first.
func (a *arbiter) peerReplay(since uint64) []*wire.ArmBroadcast {
	var missed []*fleetSig
	for _, key := range a.order {
		if e := a.entries[key]; e.armed && e.owner == a.selfID && e.ownerSeq > since {
			missed = append(missed, e)
		}
	}
	sort.Slice(missed, func(i, j int) bool { return missed[i].ownerSeq < missed[j].ownerSeq })
	out := make([]*wire.ArmBroadcast, len(missed))
	fence := a.ring.Epoch()
	for i, e := range missed {
		out[i] = a.armBroadcast(e, fence)
	}
	return out
}

// armSeq is this hub's latest owned-arming seq: the cursor a peer-hello
// ack hands the dialer.
func (a *arbiter) armSeq() uint64 { return a.ownerSeq }

// parkedCount is the number of threshold crossings awaiting the lease.
func (a *arbiter) parkedCount() int { return len(a.parked) }

// remoteSeqs returns, per foreign owner hub, the highest arming seq
// this hub has applied.
func (a *arbiter) remoteSeqs() map[string]uint64 {
	out := make(map[string]uint64)
	for _, e := range a.entries {
		if a.foreign(e) && e.ownerSeq > out[e.owner] {
			out[e.owner] = e.ownerSeq
		}
	}
	return out
}

// view is the audit record of every signature, in first-report order.
// Only the owning hub exposes the confirmation set — a deputy's shadow
// copy is an implementation detail of failover, and showing it would
// break the operator contract that exactly one hub holds the
// authoritative set.
func (a *arbiter) view() []Provenance {
	out := make([]Provenance, 0, len(a.order))
	for _, key := range a.order {
		e := a.entries[key]
		p := Provenance{Key: key, Kind: e.kind, FirstSeen: e.firstSeen, Confirmations: e.confirmations(),
			Armed: e.armed, Owner: e.owner, Tenant: e.tenant}
		if !a.foreign(e) {
			p.ConfirmedBy = sortedKeys(e.confirmedBy)
		}
		out = append(out, p)
	}
	return out
}
