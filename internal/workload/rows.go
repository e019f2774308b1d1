package workload

import (
	"strings"
	"time"
)

// FleetImmunity is the fleet-immunity row: phones phones with procs
// live processes each, the deadlock injected on the first threshold of
// them one at a time. No process on another phone may arm before the
// threshold-completing detection, and every process on every phone must
// arm after it, without a restart. Against daemons, threshold is only
// how many phones detect; the daemons must gate at it for the gating
// check to mean anything.
func FleetImmunity(phones, procs, threshold int) Scenario {
	s := Scenario{Timeout: 30 * time.Second, fedConfig: fedConfig{name: "fleet immunity", threshold: threshold},
		devices: phones, procs: procs}
	stale := "no hub already has this scenario's signature armed (stale state from an earlier run? restart it with a fresh provenance store)"
	s.steps = []step{check(stale, notArmedYet), attach(0), detect(0), wait(phone0Armed, phonesArmed(1))}
	if threshold > 1 {
		s.steps = append(s.steps, check("no process on another phone armed below the threshold", gated))
	}
	for i := 1; i < threshold; i++ {
		s.steps = append(s.steps, detect(i))
	}
	s.steps = append(s.steps, armedOver(1), wait(fleetArmed, phonesArmed(phones)))
	return s
}

// ReportStorm is the report-storm row: devices raw sessions each send
// the same sigs signatures as fast as the hubs admit them, and every
// signature must arm on every hub. With warmup or full set, each device
// first trickles paced single-signature reports for warmup, which keeps
// the storm running while a drill acts on the hubs, and then sends
// full-set batches back to back for full, the flood proper. In process
// the hubs confirm at 2.
func ReportStorm(devices, sigs int, warmup, full time.Duration) Scenario {
	return Scenario{Timeout: time.Minute, fedConfig: fedConfig{name: "storm", threshold: 2}, devices: devices, sigs: sigs,
		steps: []step{attach(0), flood(warmup, full), armedOver(sigs)}}
}

// Row returns the table's row of that name, for callers outside the
// package that run it in process (the root benchmarks).
func Row(name string) (Scenario, bool) {
	s, ok := rows[name]
	return s, ok
}

// rows is the package's table, keyed by the name its test runs it by;
// the part of a key after "/" is that test's subtest name.
var rows = map[string]Scenario{
	"chaos":                chaos(1),
	"chaos repeated kills": chaos(3),
	"partition symmetric":  split("partition symmetric", partition(last, false)),
	"partition asymmetric": split("partition asymmetric", partition(last, true)),
	"partition flap":       partitionFlap(),
	"storm/hubs=1":         ReportStorm(8, 32, 100*time.Millisecond, 100*time.Millisecond),
	"storm/hubs=2":         onHubs(ReportStorm(8, 32, 0, 0), 2, false),
	"fleet immunity": checked(FleetImmunity(4, 3, 2),
		check("one record, armed at exactly the threshold, first seen on phone0", oneArmedRecord), check("the propagation timeline", timeline),
		spared(1), spared(2), spared(3)),
	"fleet immunity threshold 1": checked(FleetImmunity(2, 2, 1), check("the propagation timeline", timeline), spared(1)),

	"transport/default threshold 2":  onHubs(FleetImmunity(4, 3, 2), 1, true),
	"transport/threshold 1":          onHubs(FleetImmunity(2, 2, 1), 1, true),
	"transport/threshold 3 of 3":     onHubs(FleetImmunity(3, 1, 3), 1, true),
	"federation/threshold1_loopback": onHubs(FleetImmunity(3, 1, 1), 3, false),
	"federation/threshold1_tcp":      onHubs(FleetImmunity(3, 1, 1), 3, true),
	"federation/threshold2_loopback": onHubs(FleetImmunity(3, 1, 2), 3, false),
	"federation/threshold2_tcp":      onHubs(FleetImmunity(3, 1, 2), 3, true),
	"federation/threshold3_loopback": onHubs(FleetImmunity(3, 1, 3), 3, false),
	"federation/threshold3_tcp":      onHubs(FleetImmunity(3, 1, 3), 3, true),
}

// onHubs runs a row on n in-process hubs, over TCP when tcp is set.
func onHubs(s Scenario, n int, tcp bool) Scenario {
	s.hubs, s.tcp = n, tcp
	return s
}

// checked appends steps to a row.
func checked(s Scenario, steps ...step) Scenario {
	s.steps = append(s.steps, steps...)
	return s
}

// The chaos, partition and flap rows share one shape: 6 devices report
// 24 signatures, confirmed at 3, to 3 hubs. The last hub is the victim
// or the minority, and it owns a slice of the set. The first
// threshold-1 devices report before the fault (phase 1, mid-confirmation:
// every signature ends pending one confirmation short of arming, the
// slice replicated to its deputies), the rest after it (phase 2), so
// the slice can arm only through the failover or the promotion.
const (
	shapeHubs, shapeDevices, shapeSigs, shapeThreshold = 3, 6, 24, 3
	last, early                                        = shapeHubs - 1, shapeThreshold - 1
)

// shape is the shared shape's row with the early devices attached over
// the first k hubs and phase 1 done: they report, and the row waits until
// every signature's owner holds their confirmations and every deputy of
// the slice holds the shadow set. The one confirmation still missing is
// then exactly what crosses the threshold after the fault.
func shape(name string, opts fedConfig, k int, before ...step) Scenario {
	opts.name, opts.hubs, opts.threshold = name, shapeHubs, shapeThreshold
	s := Scenario{Timeout: time.Minute, fedConfig: opts, devices: shapeDevices, sigs: shapeSigs}
	s.steps = append(before, check("the last hub owns part of the set", sliceOwned), attach(k),
		report(0, early), wait("phase-1 confirmations on every owner and deputy", settled))
	return s
}

// chaos kills the victim mid-confirmation. Devices attach to the
// survivors only, so its death takes no device session with it and
// every lost arming is the federation's fault; the late devices report
// while it is dead, so its slice can arm only on the deputies from the
// replicated pending sets. It restarts over the same provenance store,
// rejoins, takes its keys back by handoff and resyncs from its resume
// seqs. Kills after the first find the set armed already and prove the
// resync converges from there too.
func chaos(kills int) Scenario {
	s := shape("chaos", fedConfig{durable: true}, last)
	for k := 0; k < kills; k++ {
		s.steps = append(s.steps, kill(last), wait("survivors to fail the victim over", see(last, last)))
		if k == 0 {
			s.steps = append(s.steps, report(early, shapeDevices), wait("survivors to arm the full set", armed(last)))
		}
		s.steps = append(s.steps, restart(last), wait("the restarted victim to rejoin", see(shapeHubs, shapeHubs)))
	}
	return checked(s, wait("cluster-wide convergence", armed(shapeHubs)))
}

// split cuts the minority off mid-confirmation. Devices attach to every
// hub, the minority included, which is what forces arming decisions
// onto the wrong side of the split. The minority's own lease round dies
// first (its renewals cannot reach a majority), so it loses the right
// to arm before anyone could promote against it, and every crossing on
// it parks: zero arms over there while the majority promotes its keys —
// the double-arm window the lease closes.
//
// Heal: redials land, handshakes replay the missed armings from their
// cursors, membership re-merges, the minority's lease comes back, and
// every parked decision settles (armed by the replayed broadcast, or
// re-armed by the lease-regain sweep) before every hub converges to the
// twin.
func split(name string, cut step) Scenario {
	s := shape(name, fedConfig{faults: true}, 0, wait("federation links and leases to come up", linked))
	s.steps = append(s.steps, cut, wait("the majority to mark the minority down", see(last, last)))
	return checked(s, wait("the minority to lose its lease", leaseLost),
		report(early, shapeDevices), wait("the majority side to arm the full set", armed(last)),
		wait("the minority to park its crossings", parked), check("the minority armed nothing with its lease lost (the double-arm window)", armsNothing),
		heal(), wait("post-heal convergence", healed), check("the minority lost its lease during the split", leaseWasLost))
}

// partitionFlap blinks a majority link while phase 2 reports: indirect
// probes through the third hub must keep every member alive — no
// down-marks, no lease losses — and the set must arm as if the link were
// clean. The heal then replaces every session the blinking link touched:
// the reverse-direction session sat half-deaf through the blocks,
// silently missing broadcasts, and only its re-handshake (replaying from
// the cursor) gets them back.
func partitionFlap() Scenario {
	s := shape("partition flap", fedConfig{faults: true}, 0, wait("federation links and leases to come up", linked))
	return checked(s, flap(report(early, shapeDevices)), check("the flap marked no member down and cost no lease", nobodyCondemned),
		heal(), wait("post-flap convergence", armed(shapeHubs)))
}

// settled is phase 1's condition (see shape).
func settled(r *run) bool {
	ring := r.fed.nodes[0].Ring()
	held := make(map[string]map[string]int, len(r.fed.hubs)) // hub id → key → confirmations
	for i, hub := range r.fed.hubs {
		held[r.fed.id(i)] = make(map[string]int)
		for _, p := range hub.Provenance() {
			held[r.fed.id(i)][p.Key] = len(p.ConfirmedBy)
		}
	}
	for _, key := range r.keys {
		if held[ring.Owner(key)][key] < early {
			return false
		}
	}
	for _, key := range r.slice {
		if _, ok := held[ring.Deputy(key)][key]; !ok {
			return false
		}
	}
	return true
}

// linked holds once every link has handshaken and every node holds its
// lease: the steady state a fault hits.
func linked(r *run) bool {
	for _, n := range r.fed.nodes {
		for _, ps := range n.Status() {
			if !ps.Connected {
				return false
			}
		}
		if held, _, _ := n.LeaseStats(); !held {
			return false
		}
	}
	return true
}

func sliceOwned(r *run) bool  { return len(r.slice) > 0 }
func armsNothing(r *run) bool { return r.fed.hubs[last].ArmedCount() == 0 }
func parked(r *run) bool      { return r.fed.hubs[last].Stats().Parked > 0 }

func leaseLost(r *run) bool {
	held, _, lost := r.fed.nodes[last].LeaseStats()
	return !held && lost >= 1
}

func leaseWasLost(r *run) bool {
	_, _, lost := r.fed.nodes[last].LeaseStats()
	return lost >= 1
}

func healed(r *run) bool {
	held, _, _ := r.fed.nodes[last].LeaseStats()
	return see(shapeHubs, shapeHubs)(r) && armed(shapeHubs)(r) && !parked(r) && held
}

func nobodyCondemned(r *run) bool {
	for _, n := range r.fed.nodes {
		if _, _, lost := n.LeaseStats(); lost != 0 {
			return false
		}
	}
	return see(shapeHubs, shapeHubs)(r)
}

// The fleet-immunity waits whose moments the timeline reads.
const (
	phone0Armed = "phone0 processes armed"
	fleetArmed  = "all fleet processes armed"
)

// phonesArmed holds once every process on the first n phones holds the
// injected deadlock's signature.
func phonesArmed(n int) func(*run) bool {
	key := buggyKey()
	return func(r *run) bool {
		for _, ph := range r.phones[:n] {
			for _, p := range ph.procs {
				if !armedWith(p, key) {
					return false
				}
			}
		}
		return true
	}
}

// notArmedYet holds unless a hub already armed the row's signature (an
// earlier run, or a provenance store from one): the injected deadlock
// would be avoided instead of detected, and the run would time out with
// a misleading error. Only the phones' own tenant counts (another
// tenant's arming is never pushed to them), and a tenant's record is
// keyed with a tenant prefix, so the key is matched as a suffix. An
// unreachable hub passes; the attach that follows reports it.
func notArmedYet(r *run) bool {
	provs, _ := provenance(r.view)
	key, tenant := buggyKey(), tokenTenant(r.Token)
	for _, p := range provs {
		if p.Armed && p.Tenant == tenant && strings.HasSuffix(p.Key, key) {
			return false
		}
	}
	return true
}

// gated counts the processes on the phones that have not detected yet
// which are armed anyway; below the threshold there must be none.
// Propagation gets a real chance to misbehave before the sample.
func gated(r *run) bool {
	time.Sleep(20 * time.Millisecond)
	key := buggyKey()
	for _, ph := range r.phones[1:] {
		for _, p := range ph.procs {
			if armedWith(p, key) {
				r.out.RemoteArmedBeforeThreshold++
			}
		}
	}
	return r.out.RemoteArmedBeforeThreshold == 0
}

func oneArmedRecord(r *run) bool {
	provs, err := provenance(r.view)
	return err == nil && len(provs) == 1 && provs[0].Armed && provs[0].Confirmations == r.threshold && provs[0].FirstSeen == "phone0"
}

// timeline holds when the first detection armed its own phone (device
// immunity) and the threshold-completing one armed the hubs (fleet arm)
// no later than every phone (fleet immunity).
func timeline(r *run) bool {
	first, final := r.detected[0], r.detected[len(r.detected)-1]
	device, arm, fleet := r.held[phone0Armed].Sub(first), r.held[hubsArmed].Sub(final), r.held[fleetArmed].Sub(final)
	return device > 0 && fleet > 0 && arm <= fleet
}
