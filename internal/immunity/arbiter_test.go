package immunity

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// fakeRing is the arbiter's whole view of a cluster, settable field by
// field: keys missing from owners belong to self.
type fakeRing struct {
	self   string
	owners map[string]string
	epoch  uint64
	held   bool
}

func (r *fakeRing) OwnerOf(key string) string {
	if o, ok := r.owners[key]; ok {
		return o
	}
	return r.self
}
func (r *fakeRing) Owns(key string) bool { return r.OwnerOf(key) == r.self }
func (r *fakeRing) Epoch() uint64        { return r.epoch }
func (r *fakeRing) MayArm() bool         { return r.held }

// leaseStub is fence_test's stubBinding with a settable lease.
type leaseStub struct {
	*stubBinding
	held bool
}

func (s *leaseStub) MayArm() bool { return s.held }

// TestDemotedParkedKeyIsNotArmedOnLeaseReturn: a key that parked at
// threshold while the lease was away, and whose ownership then moved to
// another hub, must not be decided here when the lease returns — it
// would arm on a non-owner with no broadcast and stamp the entry with a
// seq of this hub's namespace under the new owner's name, so that after
// a restart the peer-hello would resume the new owner past armings this
// hub never saw.
func TestDemotedParkedKeyIsNotArmedOnLeaseReturn(t *testing.T) {
	hub := newTestHub(t, 2)
	bind := &leaseStub{&stubBinding{self: "local", epoch: 1, owners: map[string]string{}}, true}
	hub.BindCluster(bind)

	// Five owned armings first, so this hub's own seq counter stands at 5.
	for i := 1; i <= 5; i++ {
		hub.report("d1", testSig(i))
		hub.report("d2", testSig(i))
	}
	if got := hub.ArmedCount(); got != 5 {
		t.Fatalf("warm-up armed %d, want 5", got)
	}

	sig := testSig(0)
	key := sig.Key()
	bind.held = false
	hub.report("d1", sig)
	if _, armed := hub.report("d2", sig); armed {
		t.Fatal("armed at threshold without the lease")
	}
	if got := hub.Stats().Parked; got != 1 {
		t.Fatalf("parked = %d, want 1", got)
	}

	bind.epoch, bind.owners[key] = 2, "hub-b"
	if handoffs := hub.RebindOwnership(); len(handoffs["hub-b"]) != 1 {
		t.Fatalf("handoffs = %v, want the key handed to hub-b", handoffs)
	}
	if got := hub.Stats().Parked; got != 0 {
		t.Fatalf("parked = %d after demotion, want 0", got)
	}
	bind.held = true
	hub.LeaseAcquired()

	entry := func() Provenance {
		for _, p := range hub.Provenance() {
			if p.Key == key {
				return p
			}
		}
		t.Fatalf("no provenance entry for %s", key)
		return Provenance{}
	}
	if p := entry(); p.Armed || p.Owner != "hub-b" {
		t.Fatalf("demoted key after lease return: armed=%v owner=%q, want unarmed under hub-b", p.Armed, p.Owner)
	}
	if got := hub.ArmedCount(); got != 5 {
		t.Fatalf("armed count = %d, want 5", got)
	}
	if got := hub.RemoteSeqs()["hub-b"]; got != 0 {
		t.Fatalf("resume cursor for hub-b = %d before any hub-b arming, want 0", got)
	}

	// The new owner's decision installs at the new owner's seq.
	applied, err := hub.InstallRemote(wire.ArmBroadcast{Owner: "hub-b", Seq: 1, Confirmations: 2, Sig: wire.FromCore(sig), Fence: 2})
	if err != nil || !applied {
		t.Fatalf("hub-b's broadcast: applied=%v err=%v, want applied", applied, err)
	}
	if got := hub.RemoteSeqs()["hub-b"]; got != 1 {
		t.Fatalf("resume cursor for hub-b = %d, want 1", got)
	}
	if p := entry(); !p.Armed {
		t.Fatal("hub-b's broadcast did not arm the key")
	}
}

// outcome is what one event did to one key, effects included.
type outcome struct {
	armed, parked  bool
	owner          string
	ownerSeq       uint64
	armings        int
	broadcast      string // "owner/seq/confirmations/fence" of the one broadcast, "" if none
	replicates     int
	forwards       int
	handoffTo      string
	persists       int
	remoteInstalls uint64
	receipt        string // "confirmations/armed" of the one confirm receipt, "" if none
}

// TestArbiterDecisionTable drives each cause of a settle through each
// lease state and ownership, and asserts the exact effects. Threshold
// is 2, the hub is hub-a at membership epoch 7, and d1 has already
// confirmed the key unless the cause says otherwise. Causes that only a
// clustered hub can see (the shell refuses them standalone) have no
// standalone row.
func TestArbiterDecisionTable(t *testing.T) {
	sig := testSig(0)
	ws := wire.FromCore(sig)
	key := sig.Key()
	rec := func(armed bool, devices ...string) []decodedRecord {
		return []decodedRecord{{key, sig.Kind, wire.OwnedRecord{Sig: ws, FirstSeen: devices[0], ConfirmedBy: devices, Armed: armed}}}
	}
	// The setups: the ring gives the key to hub-b (and this hub holds
	// hub-b's shadow set), or leaves it with this hub.
	hubBs := func(a *arbiter, r *fakeRing) { r.owners[key] = "hub-b" }
	shadow := func(devices ...string) func(*arbiter, *fakeRing) {
		return func(a *arbiter, r *fakeRing) {
			hubBs(a, r)
			a.replica(&effects{}, "hub-b", rec(false, devices...))
		}
	}
	owned := func(a *arbiter, r *fakeRing) { a.report(&effects{}, "", "d1", checked(sig), 0) }
	parkedOwned := func(a *arbiter, r *fakeRing) {
		held := r.held
		r.held = false
		a.report(&effects{}, "", "d1", checked(sig), 0)
		a.report(&effects{}, "", "d2", checked(sig), 0)
		r.held = held
	}
	reportD2 := func(hops int) func(*arbiter, *fakeRing, *effects) {
		return func(a *arbiter, r *fakeRing, fx *effects) { a.report(fx, "", "d2", checked(sig), hops) }
	}
	replica := func(a *arbiter, r *fakeRing, fx *effects) { a.replica(fx, "hub-b", rec(false, "d1", "d2")) }
	handoff := func(armed bool, devices ...string) func(*arbiter, *fakeRing, *effects) {
		return func(a *arbiter, r *fakeRing, fx *effects) { a.importOwned(fx, "hub-b", rec(armed, devices...)) }
	}
	moveTo := func(owner string) func(*arbiter, *fakeRing, *effects) {
		return func(a *arbiter, r *fakeRing, fx *effects) {
			r.owners[key] = owner
			a.rebind(fx)
		}
	}
	lease := func(a *arbiter, r *fakeRing, fx *effects) { a.leaseAcquired(fx) }

	const standalone, self, foreign = "standalone", "self", "foreign"
	cases := []struct {
		cause, owner string
		held         bool
		setup        func(*arbiter, *fakeRing)
		event        func(*arbiter, *fakeRing, *effects)
		want         outcome
	}{
		{"report", standalone, false, owned, reportD2(0),
			outcome{armed: true, armings: 1, persists: 1, receipt: "2/true"}},
		{"report", self, true, owned, reportD2(0),
			outcome{armed: true, owner: "hub-a", ownerSeq: 1, armings: 1, broadcast: "hub-a/1/2/7", persists: 1, receipt: "2/true"}},
		{"report", self, false, owned, reportD2(0),
			outcome{parked: true, owner: "hub-a", replicates: 1, persists: 1, receipt: "2/false"}},
		{"report", foreign, true, shadow("d1"), reportD2(0),
			outcome{owner: "hub-b", forwards: 1}},
		{"report", foreign, false, shadow("d1"), reportD2(0),
			outcome{owner: "hub-b", forwards: 1}},
		{"report-hops-exhausted", foreign, true, shadow("d1"), reportD2(maxForwardHops),
			outcome{owner: "hub-b", persists: 1, receipt: "2/false"}},
		{"report-hops-exhausted", foreign, false, shadow("d1"), reportD2(maxForwardHops),
			outcome{owner: "hub-b", persists: 1, receipt: "2/false"}},

		{"replica", self, true, owned, replica,
			outcome{armed: true, owner: "hub-a", ownerSeq: 1, armings: 1, broadcast: "hub-a/1/2/7", persists: 1}},
		{"replica", self, false, owned, replica,
			outcome{parked: true, owner: "hub-a", persists: 1}},
		{"replica", foreign, true, hubBs, replica, outcome{owner: "hub-b", persists: 1}},
		{"replica", foreign, false, hubBs, replica, outcome{owner: "hub-b", persists: 1}},

		// The previous owner's decision is installed with or without the
		// lease: it is not a fresh one.
		{"handoff-armed", self, true, nil, handoff(true, "d1", "d2"),
			outcome{armed: true, owner: "hub-a", ownerSeq: 1, armings: 1, broadcast: "hub-a/1/2/7", persists: 1}},
		{"handoff-armed", self, false, nil, handoff(true, "d1", "d2"),
			outcome{armed: true, owner: "hub-a", ownerSeq: 1, armings: 1, broadcast: "hub-a/1/2/7", persists: 1}},
		{"handoff-armed", foreign, true, hubBs, handoff(true, "d1", "d2"),
			outcome{armed: true, owner: "hub-b", armings: 1, persists: 1, remoteInstalls: 1}},
		{"handoff-armed", foreign, false, hubBs, handoff(true, "d1", "d2"),
			outcome{armed: true, owner: "hub-b", armings: 1, persists: 1, remoteInstalls: 1}},

		// The merged set crosses the threshold here: a fresh decision.
		{"handoff-crossing", self, true, owned, handoff(false, "d2"),
			outcome{armed: true, owner: "hub-a", ownerSeq: 1, armings: 1, broadcast: "hub-a/1/2/7", persists: 1}},
		{"handoff-crossing", self, false, owned, handoff(false, "d2"),
			outcome{parked: true, owner: "hub-a", persists: 1}},
		{"handoff-crossing", foreign, true, shadow("d1"), handoff(false, "d2"), outcome{owner: "hub-b", persists: 1}},
		{"handoff-crossing", foreign, false, shadow("d1"), handoff(false, "d2"), outcome{owner: "hub-b", persists: 1}},

		// The ring moves a shadow set at threshold to this hub (owner
		// "self"), or a parked owned key away from it (owner "foreign").
		{"promotion", self, true, shadow("d1", "d2"), moveTo("hub-a"),
			outcome{armed: true, owner: "hub-a", ownerSeq: 1, armings: 1, broadcast: "hub-a/1/2/7", persists: 1}},
		{"promotion", self, false, shadow("d1", "d2"), moveTo("hub-a"),
			outcome{parked: true, owner: "hub-a", persists: 1}},
		{"demotion", foreign, true, parkedOwned, moveTo("hub-b"),
			outcome{owner: "hub-b", handoffTo: "hub-b", persists: 1}},
		{"demotion", foreign, false, parkedOwned, moveTo("hub-b"),
			outcome{owner: "hub-b", handoffTo: "hub-b", persists: 1}},

		{"unpark", self, true, parkedOwned, lease,
			outcome{armed: true, owner: "hub-a", ownerSeq: 1, armings: 1, broadcast: "hub-a/1/2/7", persists: 1}},
		{"unpark", self, false, parkedOwned, lease, outcome{parked: true, owner: "hub-a"}},
		{"unpark", foreign, true, func(a *arbiter, r *fakeRing) {
			parkedOwned(a, r)
			moveTo("hub-b")(a, r, &effects{})
		}, lease, outcome{owner: "hub-b"}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s/held=%v", tc.cause, tc.owner, tc.held), func(t *testing.T) {
			a := newArbiter(2)
			ring := &fakeRing{self: "hub-a", owners: map[string]string{}, epoch: 7, held: tc.held}
			if tc.owner != standalone {
				a.bind(&effects{}, ring, ring.self)
			}
			if tc.setup != nil {
				tc.setup(a, ring)
			}
			var fx effects
			tc.event(a, ring, &fx)

			e := a.entries[key]
			got := outcome{armed: e.armed, parked: a.parked[key], owner: e.owner, ownerSeq: e.ownerSeq,
				armings: armingsIn(&fx), replicates: len(fx.replRecs), forwards: len(fx.forward.sigs),
				persists: len(fx.persist), remoteInstalls: fx.n.remoteInstalls}
			if len(fx.broadcasts) > 1 || len(fx.confirms) > 1 || len(fx.handoffs) > 1 {
				t.Fatalf("more than one broadcast, receipt or handoff target: %+v", fx)
			}
			for _, b := range fx.broadcasts {
				got.broadcast = fmt.Sprintf("%s/%d/%d/%d", b.Owner, b.Seq, b.Confirmations, b.Fence)
			}
			for _, c := range fx.confirms {
				got.receipt = fmt.Sprintf("%d/%v", c.Confirmations, c.Armed)
			}
			for to := range fx.handoffs {
				got.handoffTo = to
			}
			if got != tc.want {
				t.Fatalf("\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// armingsIn counts the armings of one event's deltas.
func armingsIn(fx *effects) (n int) {
	for _, d := range fx.deltas {
		n += len(d.sigs())
	}
	return n
}

var walkSeed = flag.Int64("arbiter.seed", -1, "replay one TestArbiterRandomWalk seed")

// TestArbiterRandomWalk feeds seeded random event sequences — every
// arbiter event, with the ring and the lease flipped mid-run — to an
// arbiter and checks the safety invariants after every step. A failure
// names its seed; -arbiter.seed=N replays exactly that walk.
func TestArbiterRandomWalk(t *testing.T) {
	if *walkSeed >= 0 {
		walk(t, *walkSeed)
		return
	}
	for seed := int64(0); seed < 2500; seed++ {
		walk(t, seed)
		if t.Failed() {
			return
		}
	}
}

// walker is one random walk's arbiter plus what the test remembers to
// judge it: the fake ring, the persisted log, the previous step's state,
// and the explicit pushed-to sets the delivery cursors stand in for.
type walker struct {
	t    *testing.T
	seed int64
	step int
	rng  *rand.Rand
	a    *arbiter
	ring *fakeRing // nil for a standalone walk

	log        map[string]ProvenanceRecord // last persisted record per key
	file       []byte                      // every persisted record, encoded as a provenance log
	confirmed  map[string]map[string]bool  // every confirmation each key has ever held
	armedAt    map[string]bool             // keys armed before this step
	lastEpoch  uint64                      // last arming epoch emitted
	lastSeq    uint64                      // last broadcast seq emitted
	peerSeqs   map[string]uint64           // next arming seq of each fake peer hub
	peerArmed  map[string]map[uint64]bool  // "owner|key" -> seqs that owner broadcast for key
	ringMoved  bool                        // ring changed since the last rebind
	decidedNow map[string]bool             // keys this step carried another hub's decision for

	// The shadow of the delivery cursors, by (tenant, device): open
	// sessions, the fleet epoch at each one's last detach, and every
	// entry key an arming or a catch-up delivered to it.
	open     map[[2]string]bool
	detached map[[2]string]uint64
	pushed   map[[2]string]map[string]bool
}

func (w *walker) failf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("seed %d step %d (replay with -arbiter.seed=%d): %s", w.seed, w.step, w.seed, fmt.Sprintf(format, args...))
}

var (
	walkDevices = []string{"d0", "d1", "d2", "d3", "d4"}
	walkTenants = []string{"", "t1"} // thresholds 2 and 3
	walkPeers   = []string{"hub-b", "hub-c"}
)

func walk(t *testing.T, seed int64) {
	w := &walker{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), a: newArbiter(2),
		log: map[string]ProvenanceRecord{}, file: []byte(wire.LogHeader),
		confirmed: map[string]map[string]bool{}, armedAt: map[string]bool{},
		peerSeqs: map[string]uint64{}, peerArmed: map[string]map[uint64]bool{},
		open: map[[2]string]bool{}, detached: map[[2]string]uint64{}, pushed: map[[2]string]map[string]bool{}}
	w.a.tenantThresholds = map[string]int{"t1": 3}
	if seed%4 != 0 {
		w.ring = &fakeRing{self: "hub-a", owners: map[string]string{}, epoch: 1, held: true}
		w.a.bind(&effects{}, w.ring, w.ring.self)
	}
	for w.step = 1; w.step <= 60; w.step++ {
		var fx effects
		w.decidedNow = map[string]bool{}
		leaseReturned := w.event(&fx)
		w.check(&fx, leaseReturned)
	}
	w.checkReload()
}

func (w *walker) pick(from []string) string { return from[w.rng.Intn(len(from))] }

func (w *walker) sig() (tenant string, sig *core.Signature, key string) {
	tenant, sig = w.pick(walkTenants), testSig(w.rng.Intn(5))
	return tenant, sig, tenantKey(tenant, sig.Key())
}

func (w *walker) someDevices() []string {
	var out []string
	for _, d := range walkDevices {
		if w.rng.Intn(3) == 0 {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []string{w.pick(walkDevices)}
	}
	return out
}

// event applies one random event and reports whether it was a lease
// acquisition that held throughout.
func (w *walker) event(fx *effects) (leaseReturned bool) {
	a, r := w.a, w.ring
	n := 10
	if r == nil {
		n = 4 // a standalone hub only sees devices
	}
	switch w.rng.Intn(n) {
	case 0, 1, 2:
		tenant, sig, _ := w.sig()
		a.report(fx, tenant, w.pick(walkDevices), checked(sig), w.rng.Intn(maxForwardHops+1))
	case 3:
		dev := [2]string{w.pick(walkTenants), w.pick(walkDevices)}
		if w.rng.Intn(2) == 1 {
			a.detach(fx, dev[0], dev[1])
			if w.open[dev] {
				w.detached[dev] = a.epoch
				delete(w.open, dev)
			}
			break
		}
		// A hello resumes from an epoch this incarnation handed the
		// device: at most its last detach's, any while it is still open.
		limit := w.detached[dev]
		if w.open[dev] {
			limit = a.epoch
		}
		a.attach(fx, dev[0], dev[1], uint64(w.rng.Int63n(int64(limit)+1)))
		w.open[dev] = true
		for _, ws := range fx.catchup.sigs() {
			w.deliver(dev, ws)
		}
	case 4:
		tenant, sig, key := w.sig()
		owner := w.pick(walkPeers)
		w.peerSeqs[owner]++
		b := wire.ArmBroadcast{Owner: owner, Seq: w.peerSeqs[owner], Confirmations: 2 + w.rng.Intn(2),
			Sig: wire.FromCore(sig), Fence: r.epoch - uint64(w.rng.Intn(2)), Tenant: tenant}
		if _, err := a.remoteArm(fx, key, sig.Kind, b); err == nil {
			w.decidedNow[key] = true
			ok := owner + "|" + key
			if w.peerArmed[ok] == nil {
				w.peerArmed[ok] = map[uint64]bool{}
			}
			w.peerArmed[ok][b.Seq] = true
		}
	case 5, 6:
		tenant, sig, key := w.sig()
		devices := w.someDevices()
		d := decodedRecord{key, sig.Kind, wire.OwnedRecord{Sig: wire.FromCore(sig), FirstSeen: devices[0],
			ConfirmedBy: devices, Tenant: tenant}}
		if w.rng.Intn(2) == 0 {
			a.replica(fx, w.pick(walkPeers), []decodedRecord{d})
			break
		}
		if d.rec.Armed = w.rng.Intn(3) == 0; d.rec.Armed {
			d.rec.OwnerSeq = uint64(1 + w.rng.Intn(9))
			w.decidedNow[key] = true
		}
		a.importOwned(fx, w.pick(walkPeers), []decodedRecord{d})
	case 7:
		// A membership change: some keys move, the epoch advances, and the
		// rebind usually — not always — follows at once.
		for i := 0; i < 1+w.rng.Intn(3); i++ {
			_, _, key := w.sig()
			if w.rng.Intn(2) == 0 {
				delete(r.owners, key)
			} else {
				r.owners[key] = w.pick(walkPeers)
			}
		}
		r.epoch++
		w.ringMoved = true
		if w.rng.Intn(3) == 0 {
			break
		}
		fallthrough
	case 8:
		a.rebind(fx)
		w.ringMoved = false
	case 9:
		if r.held = !r.held; r.held {
			a.leaseAcquired(fx)
			return true
		}
	}
	return false
}

// check asserts the invariants that must hold after every event.
func (w *walker) check(fx *effects, leaseReturned bool) {
	a, r := w.a, w.ring
	clustered := r != nil
	selfOwned := func(e *fleetSig) bool { return !clustered || e.owner == a.selfID }

	for _, rec := range fx.persist {
		w.log[rec.Key] = rec
		w.file = wire.AppendRecord(w.file, rec)
	}
	w.checkLogs(a, "")
	var epochs []uint64
	for _, d := range fx.deltas {
		logged := a.logs[d.tenant].epochs[d.from:len(d.log)]
		if d.epoch != logged[len(logged)-1] {
			w.failf("%q delta at epoch %d, its last arming at %d", d.tenant, d.epoch, logged[len(logged)-1])
		}
		epochs = append(epochs, logged...)
		for _, ws := range d.sigs() {
			for dev := range w.open {
				if dev[0] == d.tenant {
					w.deliver(dev, ws)
				}
			}
		}
	}
	slices.Sort(epochs)
	for _, epoch := range epochs {
		if epoch != w.lastEpoch+1 {
			w.failf("arming epoch %d after %d: not consecutive", epoch, w.lastEpoch)
		}
		w.lastEpoch = epoch
	}
	w.checkDeliveries(a, "")
	for tenant, ds := range a.devices {
		for device, d := range ds {
			if rec := w.log[deviceKey(tenant, device)]; rec.Tenant != tenant || rec.Device != device ||
				rec.Open != d.open || rec.Cursor != d.cursor {
				w.failf("%s/%s: live delivery %+v differs from its last persisted record %+v", tenant, device, d, rec)
			}
		}
	}
	for _, b := range fx.broadcasts {
		if b.Owner != a.selfID || b.Seq <= w.lastSeq || b.Fence != r.epoch {
			w.failf("broadcast %+v after seq %d at membership epoch %d", b, w.lastSeq, r.epoch)
		}
		w.lastSeq = b.Seq
	}

	var armed uint64
	armEpochs, seqs := map[uint64]bool{}, map[uint64]bool{}
	for key, e := range a.entries {
		if key != e.key {
			w.failf("entry %q filed under %q", e.key, key)
		}
		if e.armed {
			armed++
			if e.armEpoch == 0 || armEpochs[e.armEpoch] {
				w.failf("%s: arm epoch %d is zero or shared", key, e.armEpoch)
			}
			armEpochs[e.armEpoch] = true
		} else if e.armEpoch != 0 {
			w.failf("%s: unarmed with arm epoch %d", key, e.armEpoch)
		}
		// A fresh decision: armed in this step, and not because another
		// hub had decided.
		if e.armed && !w.armedAt[key] && !w.decidedNow[key] {
			if clustered && !r.held {
				w.failf("%s: fresh arming without the lease", key)
			}
			if !selfOwned(e) {
				w.failf("%s: fresh arming of a key owned by %q", key, e.owner)
			}
			if len(e.confirmedBy) < a.thresholdFor(e.tenant) {
				w.failf("%s: fresh arming at %d confirmations, threshold %d", key, len(e.confirmedBy), a.thresholdFor(e.tenant))
			}
		}
		w.armedAt[key] = e.armed
		switch {
		case !clustered:
			if e.ownerSeq != 0 || e.owner != "" {
				w.failf("%s: standalone entry with owner %q seq %d", key, e.owner, e.ownerSeq)
			}
		case e.owner == a.selfID:
			if e.armed != (e.ownerSeq != 0) || seqs[e.ownerSeq] && e.armed || e.ownerSeq > a.ownerSeq {
				w.failf("%s: owned, armed=%v, seq %d (hub at %d): want a unique seq iff armed", key, e.armed, e.ownerSeq, a.ownerSeq)
			}
			seqs[e.ownerSeq] = true
		default:
			if e.ownerSeq != 0 && !w.peerArmed[e.owner+"|"+key][e.ownerSeq] {
				w.failf("%s: owned by %q but carries seq %d, which %q never broadcast for it", key, e.owner, e.ownerSeq, e.owner)
			}
		}
		// Confirmation sets only grow, and never by a report from a
		// device the hub itself pushed the signature to (checked in
		// TestArbiterPushedDeviceNeverConfirms; merges from other hubs may
		// legitimately carry such a device).
		if w.confirmed[key] == nil {
			w.confirmed[key] = map[string]bool{}
		}
		for d := range e.confirmedBy {
			w.confirmed[key][d] = true
		}
		if len(w.confirmed[key]) != len(e.confirmedBy) {
			w.failf("%s: confirmed by %v now, by %v so far", key, sortedKeys(e.confirmedBy), sortedKeys(w.confirmed[key]))
		}
		if got, ok := w.log[key]; !ok || !sameRecord(got, a.record(e)) {
			w.failf("%s: live state differs from its last persisted record\n live %+v\n log  %+v", key, a.record(e), got)
		}
	}
	if armed != a.epoch || len(a.entries) != len(a.order) {
		w.failf("epoch %d with %d armed entries; %d entries, %d ordered", a.epoch, armed, len(a.entries), len(a.order))
	}
	for key := range a.parked {
		e := a.entries[key]
		if e.armed || e.owner != a.selfID || len(e.confirmedBy) < a.thresholdFor(e.tenant) || !clustered {
			w.failf("%s parked: armed=%v owner=%q confirmations=%d", key, e.armed, e.owner, len(e.confirmedBy))
		}
	}
	if leaseReturned && len(a.parked) != 0 {
		w.failf("%d keys still parked after the lease returned", len(a.parked))
	}
	if clustered {
		var last uint64
		for _, b := range a.peerReplay(0) {
			if b.Seq <= last || b.Owner != a.selfID {
				w.failf("peer replay out of order or foreign: %+v after seq %d", b, last)
			}
			last = b.Seq
		}
	}
}

// sameRecord is reflect.DeepEqual for provenance records, without the
// reflection on the slices (the walk compares every entry every step).
func sameRecord(x, y ProvenanceRecord) bool {
	slicesEqual := slices.Equal(x.ConfirmedBy, y.ConfirmedBy) && slices.Equal(x.Sig.Pairs, y.Sig.Pairs)
	x.ConfirmedBy, x.Sig.Pairs = nil, nil
	y.ConfirmedBy, y.Sig.Pairs = nil, nil
	return slicesEqual && reflect.DeepEqual(x, y)
}

// deliver adds one pushed signature to dev's explicit set.
func (w *walker) deliver(dev [2]string, ws wire.Signature) {
	sig, err := ws.ToCore()
	if err != nil {
		w.failf("pushed signature: %v", err)
	}
	if w.pushed[dev] == nil {
		w.pushed[dev] = map[string]bool{}
	}
	w.pushed[dev][tenantKey(dev[0], sig.Key())] = true
}

// checkDeliveries is the differential: for every entry and every device
// of its tenant, a's delivery cursor gives the echo verdict the explicit
// pushed-to set does.
func (w *walker) checkDeliveries(a *arbiter, when string) {
	for key, e := range a.entries {
		for _, device := range walkDevices {
			dev := [2]string{e.tenant, device}
			if got, want := a.devices[e.tenant][device].pushed(e), w.pushed[dev][key]; got != want {
				w.failf("%s%s to %q/%s: the cursor says pushed=%v, the explicit set %v", when, key, e.tenant, device, got, want)
			}
		}
	}
}

// checkLogs asserts that each tenant's arming log is exactly the
// tenant's armed entries sorted by armEpoch.
func (w *walker) checkLogs(a *arbiter, when string) {
	want := map[string][]*fleetSig{}
	for _, key := range a.order {
		if e := a.entries[key]; e.armed {
			want[e.tenant] = append(want[e.tenant], e)
		}
	}
	if len(a.logs) != len(want) {
		w.failf("%s%d tenant logs for %d tenants with armings", when, len(a.logs), len(want))
	}
	for tenant, es := range want {
		slices.SortFunc(es, func(x, y *fleetSig) int { return int(x.armEpoch) - int(y.armEpoch) })
		l := a.logs[tenant]
		if l == nil || len(l.sigs) != len(es) || len(l.epochs) != len(es) {
			w.failf("%s%q log does not hold its %d armed entries: %+v", when, tenant, len(es), l)
		}
		for i, e := range es {
			if l.epochs[i] != e.armEpoch || !reflect.DeepEqual(l.sigs[i], e.ws) {
				w.failf("%s%q log[%d] at epoch %d, want %s at %d", when, tenant, i, l.epochs[i], e.key, e.armEpoch)
			}
		}
	}
}

// checkReload is "a restart loses nothing": a fresh arbiter loaded from
// the log of every record the walk asked to persist, dead ones included,
// through the loader FileProvenance uses, shows the same view and gives
// every (entry, device) pair the same echo verdict — a session still
// open is the crash case. The one difference allowed is the documented
// slimming of a replicated armed entry, whose confirmation bookkeeping
// is the owner's to keep.
func (w *walker) checkReload() {
	fresh, err := reload(w.a, w.file, &effects{})
	if err != nil {
		w.failf("reload: %v", err)
	}
	w.checkDeliveries(fresh, "after reload: ")
	w.checkLogs(fresh, "after reload: ")
	if !reflect.DeepEqual(fresh.logs, w.a.logs) {
		w.failf("reload: tenant logs differ\n live     %+v\n reloaded %+v", w.a.logs, fresh.logs)
	}
	fresh.ring, fresh.selfID = w.a.ring, w.a.selfID
	live, reloaded := w.a.view(), fresh.view()
	for i := range live {
		if p := &live[i]; p.Armed && p.Owner != "" && p.Owner != w.a.selfID {
			p.FirstSeen, p.Confirmations = reloaded[i].FirstSeen, reloaded[i].Confirmations
		}
	}
	if fresh.epoch != w.a.epoch || !reflect.DeepEqual(live, reloaded) {
		w.failf("reload: epoch %d → %d\n live     %+v\n reloaded %+v", w.a.epoch, fresh.epoch, live, reloaded)
	}
}

// reload is a restart: a fresh arbiter configured like a, loaded from
// an encoded provenance log.
func reload(a *arbiter, log []byte, fx *effects) (*arbiter, error) {
	recs, _, intact, err := wire.DecodeLog(log)
	if err != nil {
		return nil, err
	}
	if intact != len(log) {
		return nil, fmt.Errorf("log intact to byte %d of %d", intact, len(log))
	}
	fresh := newArbiter(a.threshold)
	fresh.tenantThresholds = a.tenantThresholds
	return fresh, fresh.load(fx, recs)
}

// journal is an arbiter with its encoded provenance log, restartable
// from it.
type journal struct {
	a   *arbiter
	log []byte
}

func newJournal() *journal { return &journal{a: newArbiter(1), log: []byte(wire.LogHeader)} }

// do runs one event and appends the records it persists.
func (j *journal) do(event func(fx *effects)) effects {
	var fx effects
	event(&fx)
	for _, rec := range fx.persist {
		j.log = wire.AppendRecord(j.log, rec)
	}
	return fx
}

// report is one device's report of sig, threshold permitting an arming.
func (j *journal) report(device string, sig *core.Signature) effects {
	return j.do(func(fx *effects) { j.a.report(fx, "", device, checked(sig), 0) })
}

// restart replaces the arbiter with a fresh one loaded from the log.
func (j *journal) restart(t *testing.T) {
	j.do(func(fx *effects) {
		fresh, err := reload(j.a, j.log, fx)
		if err != nil {
			t.Fatal(err)
		}
		j.a = fresh
	})
}

// TestArbiterPushedDeviceNeverConfirms: once the hub has delivered a
// signature to a device — by a live delta, a catch-up, or either before
// a crash — that device's report of it is an echo, whatever the lease
// and ownership say; a device that left before the arming never got it,
// and its report confirms.
func TestArbiterPushedDeviceNeverConfirms(t *testing.T) {
	sig := testSig(0)
	attach := func(j *journal) {
		if fx := j.do(func(fx *effects) { j.a.attach(fx, "", "late", 0) }); len(fx.persist) != 1 {
			t.Fatalf("attach persisted %d records, want 1", len(fx.persist))
		}
	}
	detach := func(j *journal) { j.do(func(fx *effects) { j.a.detach(fx, "", "late") }) }
	arm := func(j *journal) { j.report("first", sig) }
	cases := []struct {
		name  string
		steps []func(*journal)
		echo  bool
	}{
		{"live delta", []func(*journal){attach, arm}, true},
		{"catch-up", []func(*journal){arm, attach}, true},
		{"catch-up, then left", []func(*journal){arm, attach, detach}, true},
		{"left before the arming", []func(*journal){attach, detach, arm}, false},
		{"open at a crash", []func(*journal){attach, arm, func(j *journal) { j.restart(t) }}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newJournal()
			for _, step := range tc.steps {
				step(j)
			}
			fx := j.report("late", sig)
			e := j.a.entries[sig.Key()]
			if tc.echo && (len(e.confirmedBy) != 1 || fx.n.echoes != 1 || len(fx.persist) != 0) ||
				!tc.echo && (len(e.confirmedBy) != 2 || fx.n.confirms != 1) {
				t.Fatalf("confirmations %d echoes %d persists %d, want echo=%v", len(e.confirmedBy), fx.n.echoes, len(fx.persist), tc.echo)
			}
		})
	}

	// The crash close is persisted: a signature the restarted hub arms
	// while the device stays away was never pushed to it, however many
	// restarts later it reports it.
	j := newJournal()
	attach(j)
	arm(j)
	j.restart(t)
	j.report("first", testSig(1))
	j.restart(t)
	if fx := j.report("late", testSig(1)); fx.n.confirms != 1 {
		t.Fatalf("an arming after the crash counted as pushed to the crashed session (echoes %d)", fx.n.echoes)
	}
}

// TestArbiterPurity keeps the decision half free of I/O: arbiter.go may
// import only core, wire, and side-effect-free standard packages, starts
// no goroutine, and names none of the shell's types.
func TestArbiterPurity(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "arbiter.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"sort": true, "fmt": true, "errors": true, "strings": true,
		"github.com/dimmunix/dimmunix/internal/core":          true,
		"github.com/dimmunix/dimmunix/internal/immunity/wire": true,
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); !allowed[path] {
			t.Errorf("arbiter.go imports %s", path)
		}
	}
	shell := map[string]bool{"Exchange": true, "Conn": true, "ProvenanceStore": true, "hubMetrics": true, "ClusterBinding": true}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("arbiter.go starts a goroutine")
		case *ast.Ident:
			if shell[n.Name] {
				t.Errorf("arbiter.go names the shell type %s", n.Name)
			}
		}
		return true
	})
}

// TestHubNeverBuildsCoreSignatures: the hub decides on wire.Checked
// values, so neither of its files converts a signature to or from
// core's form. wire.Signature.Check is the one way in.
func TestHubNeverBuildsCoreSignatures(t *testing.T) {
	for _, name := range []string{"arbiter.go", "exchange.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "ToCore" || sel.Sel.Name == "FromCore") {
					t.Errorf("%s calls %s", name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
