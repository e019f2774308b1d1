package workload

import (
	"crypto/tls"
	"fmt"
	"reflect"
	"slices"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// Scenario is one row of the fleet table: a federation shape, the steps
// run over it and the checks it ends with. FleetImmunity and ReportStorm
// build the rows other packages run, usually against daemons by setting
// Dial; the package's own rows are in rows.go.
type Scenario struct {
	// Dial, when set, runs the row against running daemons (immunityd
	// -serve) instead of an in-process federation: a comma-separated
	// address list across which devices attach round-robin over TCP,
	// observed through wire status requests. The daemons own the
	// threshold and the topology.
	Dial string
	// Token rides every phone's hello as its bearer credential.
	Token string
	// TLS dials every daemon connection (device sessions and status
	// requests) under this config; nil dials plaintext.
	TLS *tls.Config
	// Timeout bounds every wait.
	Timeout time.Duration

	fedConfig
	devices int // phones when procs > 0, raw report sessions otherwise
	procs   int // live processes per phone
	sigs    int // the report set of a raw-device row
	steps   []step
}

// Outcome is what a run measured, for its caller's own checks.
type Outcome struct {
	// Armed is the least rise of a hub's epoch over the row's start, as
	// of the row's last arming wait.
	Armed int
	// RemoteArmedBeforeThreshold counts processes on the phones that
	// had not detected the deadlock found armed below the threshold.
	RemoteArmedBeforeThreshold int
	// Provenance is the hubs' merged audit trail at the end of the run.
	Provenance []wire.SigStatus
	// TimeToImmunity is a fleet-immunity row's timeline: from the first
	// detection, on phone 0, until every process on every phone held the
	// signature (the last install), each moment as the row's waiter saw
	// it. Zero for a row without both moments.
	TimeToImmunity time.Duration
}

// step is one action of a row over the run state. Steps come only from
// the constructors below; there is no registry.
type step func(*run) error

// run is one execution of a row.
type run struct {
	Scenario
	view     hubView
	fed      *federation // nil against daemons
	w        waiter
	base     []uint64 // every hub's epoch when the row started
	sigs     []wire.Signature
	keys     []string
	slice    []string // the keys the last hub owns: the victim's or the minority's
	fleet    stormFleet
	phones   []*phone
	detected []time.Time          // when each detection was accepted, in order
	held     map[string]time.Time // when each wait's condition held
	out      Outcome
}

// Run executes the row's steps in order; the first that fails ends the
// run with its error. An in-process row on more than one hub or over TCP
// must also make its 1-hub loopback twin's decisions (matchTwin); the
// twin runs first, as the single-hub reference always ran before the
// federation it judges.
func (s Scenario) Run() (Outcome, error) {
	r := &run{Scenario: s, held: make(map[string]time.Time)}
	var ref Outcome
	twinned := s.Dial == "" && (s.hubs > 1 || s.tcp)
	if twinned {
		var err error
		if ref, err = s.twin().Run(); err != nil {
			return r.out, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if s.Dial != "" {
		view, err := dialHubs(s.Dial, s.TLS, s.Timeout)
		if err != nil {
			return r.out, fmt.Errorf("%s: %w", s.name, err)
		}
		r.view = view
	} else {
		f, err := newFederation(s.fedConfig)
		if err != nil {
			return r.out, fmt.Errorf("%s: %w", s.name, err)
		}
		r.view, r.fed = f, f
	}
	defer r.close()
	r.w = waiter{s.Timeout, r.view}
	r.sigs, r.keys = propagationSet(s.sigs)
	if r.fed != nil && s.hubs > 1 {
		ring := r.fed.nodes[0].Ring()
		for _, key := range r.keys {
			if ring.Owner(key) == r.fed.id(s.hubs-1) {
				r.slice = append(r.slice, key)
			}
		}
	}
	var err error
	if r.base, err = epochs(r.view); err != nil {
		return r.out, fmt.Errorf("%s: baseline status: %w", s.name, err)
	}
	for _, st := range s.steps {
		if err := st(r); err != nil {
			return r.out, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if twinned {
		if err := matchTwin(r, ref); err != nil {
			return r.out, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	if r.out.Provenance, err = provenance(r.view); err != nil {
		return r.out, fmt.Errorf("%s: %w", s.name, err)
	}
	if at, ok := r.held[fleetArmed]; ok && len(r.detected) > 0 {
		r.out.TimeToImmunity = at.Sub(r.detected[0])
	}
	return r.out, nil
}

func (r *run) close() {
	r.fleet.close()
	for i := len(r.phones) - 1; i >= 0; i-- {
		r.phones[i].close()
	}
	if r.fed != nil {
		r.fed.close()
	}
}

// attach dials the row's devices round-robin over the first k hubs, or
// over all of them when k is 0: raw report sessions, or phones with
// live processes when the row has procs.
func attach(k int) step {
	return func(r *run) error {
		trs := r.view.transports()
		if k > 0 {
			trs = trs[:k]
		}
		var err error
		if r.procs == 0 {
			r.fleet, err = dialFleet(trs, r.devices)
			return err
		}
		for i := 0; i < r.devices && err == nil; i++ {
			var ph *phone
			if ph, err = newPhone(fmt.Sprintf("phone%d", i), r.procs, trs[i%len(trs)], r.Token); ph != nil {
				r.phones = append(r.phones, ph)
			}
		}
		return err
	}
}

// report sends the whole set from devices [from, to), one report
// message per signature per device, device after device.
func report(from, to int) step {
	return func(r *run) error { return r.fleet[from:to].reportEach(r.sigs) }
}

// flood has every device send the whole set at once; see drive for
// what warmup and full change.
func flood(warmup, full time.Duration) step {
	return func(r *run) error {
		errs := make(chan error, len(r.fleet))
		for _, dev := range r.fleet {
			go func() { errs <- dev.drive(warmup, full, r.sigs) }()
		}
		for range r.fleet {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	}
}

// detect injects the deadlock on phone i and waits for its service to
// accept the signature.
func detect(i int) step {
	return func(r *run) error {
		ph := r.phones[i]
		before := ph.svc.Epoch()
		if _, err := injectDeadlock(ph.zygote); err != nil {
			return err
		}
		at, err := r.w.until(fmt.Sprintf("detection on phone%d", i), func() bool { return ph.svc.Epoch() > before })
		r.detected = append(r.detected, at)
		return err
	}
}

// spared drives the injected deadlock's interleaving again, on a fresh
// fork on phone i, which must be armed by now: the fork must be spared
// the deadlock. Its core yields one thread, the gate lets the other
// through, both threads finish, and nothing new is detected — neither
// in the fork's core nor as a publication to the phone's service.
func spared(i int) step {
	return func(r *run) error {
		ph := r.phones[i]
		before := ph.svc.Epoch()
		p, err := injectDeadlock(ph.zygote)
		if err != nil {
			return err
		}
		if !p.Join(r.Timeout) {
			return fmt.Errorf("phone%d not spared: the fork froze on the injected deadlock", i)
		}
		st := p.Dimmunix().Stats()
		if st.Yields == 0 || st.DeadlocksDetected != 0 || ph.svc.Epoch() != before {
			return fmt.Errorf("phone%d not spared: %d yields, %d deadlocks detected, service epoch %d → %d",
				i, st.Yields, st.DeadlocksDetected, before, ph.svc.Epoch())
		}
		return nil
	}
}

// kill crashes hub i; restart brings it back over its provenance store,
// and its node rejoins through its seed peers.
func kill(i int) step {
	return func(r *run) error { r.fed.kill(i); return nil }
}

func restart(i int) step {
	return func(r *run) error { return r.fed.start(i) }
}

// partition cuts hub i off from every other hub: both directions at
// once, or with oneWay only its outbound paths, so it still hears its
// peers but nothing it says gets out. heal lifts every fault and
// replaces the sessions they touched.
func partition(i int, oneWay bool) step {
	return func(r *run) error {
		var rest []string
		for j := range r.fed.hubs {
			if j != i {
				rest = append(rest, r.fed.id(j))
			}
		}
		if !oneWay {
			r.fed.net.Partition(rest, []string{r.fed.id(i)})
			return nil
		}
		for _, id := range rest {
			r.fed.net.Block(r.fed.id(i), id)
		}
		return nil
	}
}

func heal() step {
	return func(r *run) error { r.fed.net.Heal(); return nil }
}

// flap blinks one direction of the hub0→hub1 link while inner runs, and
// returns once both are done. A blink is failoverAfter/5, well under the
// suspicion window (failoverAfter/2 by derivation), so a down-mark can
// only come from the detector overreacting.
func flap(inner step) step {
	const cycles = 16
	return func(r *run) error {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for c := 0; c < 2*cycles; c++ {
				if c%2 == 0 {
					r.fed.net.Block(r.fed.id(0), r.fed.id(1))
				} else {
					r.fed.net.Unblock(r.fed.id(0), r.fed.id(1))
				}
				time.Sleep(failoverAfter / 5)
			}
		}()
		err := inner(r)
		<-done
		return err
	}
}

// wait polls cond until it holds, for at most the row's Timeout.
func wait(what string, cond func(*run) bool) step {
	return func(r *run) error {
		at, err := r.w.until(what, func() bool { return cond(r) })
		r.held[what] = at
		return err
	}
}

// check fails the run unless ok holds now; like a wait's timeout, the
// error says what should have held and carries the hubs' state.
func check(what string, ok func(*run) bool) step {
	return func(r *run) error {
		if !ok(r) {
			return fmt.Errorf("check failed: %s;%s", what, r.view.state())
		}
		return nil
	}
}

// hubsArmed is what armedOver waits for.
const hubsArmed = "this run's armings on every hub"

// armedOver is the arming wait storm and fleet-immunity rows share:
// every hub's epoch has risen by n over the baseline read when the row
// started, so armings that predate the run — a daemon's earlier runs,
// another tenant's — never count. A daemon restarted mid-run reads as no
// progress.
func armedOver(n int) step {
	return wait(hubsArmed, func(r *run) bool {
		now, err := epochs(r.view)
		if err != nil || len(now) != len(r.base) {
			return false
		}
		r.out.Armed = n
		for i, e := range now {
			r.out.Armed = min(r.out.Armed, int(max(e, r.base[i])-r.base[i]))
		}
		return r.out.Armed >= n
	})
}

// armed holds once each live hub of the first k armed the full set.
func armed(k int) func(*run) bool {
	return func(r *run) bool {
		for _, hub := range r.fed.hubs[:k] {
			if hub != nil && hub.ArmedCount() < len(r.sigs) {
				return false
			}
		}
		return true
	}
}

// see holds once each of the first k hubs sees n live members.
func see(k, n int) func(*run) bool {
	return func(r *run) bool {
		for _, node := range r.fed.nodes[:k] {
			if len(node.Members()) != n {
				return false
			}
		}
		return true
	}
}

// twin is the row's 1-hub loopback twin, the reference its decisions
// must reproduce under any fault or transport: for a phone row the same
// phones on one hub, for a raw-device row every device reporting the
// whole set to one hub.
func (s Scenario) twin() Scenario {
	if s.procs > 0 {
		t := FleetImmunity(s.devices, s.procs, s.threshold)
		t.name = "twin"
		return t
	}
	return Scenario{Timeout: s.Timeout, fedConfig: fedConfig{name: "twin", threshold: s.threshold},
		devices: s.devices, sigs: s.sigs,
		steps: []step{attach(0), report(0, s.devices), wait("the full set to arm", armed(1))}}
}

// matchTwin is the one equivalence check, against the twin's outcome:
// every hub must have armed exactly the twin's set with a delta epoch
// equal to its armed count — a hub's epoch counts its armings, so no
// failover, replay or heal armed anything twice. A phone row's merged
// provenance, owner aside, must equal the twin's too: the same armed
// signature, confirmation count, confirming devices and first sighting.
func matchTwin(r *run, twin Outcome) error {
	ref := armedKeys(twin.Provenance)
	sts, _ := r.fed.statuses()
	for i, st := range sts {
		got := armedKeys(st.Provenance)
		if !slices.Equal(got, ref) {
			return fmt.Errorf("%s armed set diverged from the twin's (%d vs %d keys)", r.fed.id(i), len(got), len(ref))
		}
		if st.Epoch != uint64(len(got)) {
			return fmt.Errorf("%s delta epoch %d != armed count %d (double-arm)", r.fed.id(i), st.Epoch, len(got))
		}
	}
	if r.procs == 0 {
		return nil
	}
	prov, _ := provenance(r.fed)
	if got, want := ownerless(prov), ownerless(twin.Provenance); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("arming decisions diverge:\nrow:  %+v\ntwin: %+v", got, want)
	}
	return nil
}

// ownerless strips the one provenance field that legitimately differs
// across topologies: the owning hub's id.
func ownerless(provs []wire.SigStatus) []wire.SigStatus {
	out := slices.Clone(provs)
	for i := range out {
		out[i].Owner = ""
	}
	return out
}
