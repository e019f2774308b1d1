// Command immunityd is the fleet immunity daemon and its test harness.
//
// In serve mode it is a long-running hub: the signature exchange served
// over TCP (the versioned wire protocol of internal/immunity/wire),
// durable provenance in a file store so a daemon restart loses no
// confirmation and never re-arms below threshold, and an HTTP server
// with three endpoints: /status exposing the fleet epoch, per-signature
// provenance, connected devices, delta-batching counters, and the live
// per-second rate windows as JSON; /metrics exposing the hub's full
// instrument registry (internal/immunity/metrics) in Prometheus text
// format — session gauges, push-queue depth/in-flight, drain batch-size
// and coalesce-ratio histograms, report-handling latency (wait-included
// and wait-excluded), per-peer forward outbox lag and redial counters,
// persist/compaction errors, admission verdicts, build info, uptime,
// windowed rate gauges (immunity_hub_reports_per_second{window="1m"}
// and friends), and SLO state; and /slo exposing each objective's
// ok/warn/breach verdict, breach count, and last transition as JSON.
//
// Report-path admission control is enabled with -admit N: at most N
// report messages (device reports and peer forward-reports) are
// processed concurrently, an over-capacity message waits up to
// -admit-wait (the device sees a slow ack; TCP sees backpressure), and
// a message still waiting at the deadline is shed — dropped without
// killing the session, recovered by the client's full-history re-report
// on its next reconnect. A report storm therefore degrades to bounded
// delay instead of unbounded hub memory; watch it live in the
// immunity_hub_admission_* series on /metrics.
//
// -admit auto replaces the fixed capacity with an AIMD controller: the
// daemon samples its own counters every -slo-interval, evaluates the
// report-latency objective (p99 wait-included report handling ≤
// -slo-target over sliding windows) and the shed-zero objective, and
// resizes the admission pool on each verdict — additive increase while
// latency is ok and sessions were queueing, multiplicative decrease on
// breach or shed. Capacity converges to the widest value the latency
// target tolerates; the immunity_hub_admission_aimd_* counters on
// /metrics trace every step of the controller.
//
// With -hub and -peers, serve mode federates the daemon into a hub
// cluster (internal/immunity/cluster): each signature is owned by
// exactly one hub via a rendezvous ring over the member ids, non-owner
// hubs forward device reports to the owner, and the owner's armings are
// broadcast cluster-wide. Devices may attach to any hub. A 3-hub
// cluster on one machine:
//
//	immunityd -serve -hub hub0 -listen :7676 -http :7677 -peers hub1=localhost:7686,hub2=localhost:7696
//	immunityd -serve -hub hub1 -listen :7686 -http :7687 -peers hub0=localhost:7676,hub2=localhost:7696
//	immunityd -serve -hub hub2 -listen :7696 -http :7697 -peers hub0=localhost:7676,hub1=localhost:7686
//
// Membership is elastic: -peers (or its alias -join) is a seed, not the
// final roster — a joining hub may name a single existing member and
// learns the rest from membership snapshots, and every hub dials
// members it discovers at the address they advertise with -advertise
// (defaults to -listen; set it explicitly when -listen is a wildcard).
// With -failover-after D each hub runs a SWIM-style failure detector
// over its peer links: members are probed round-robin with direct
// pings, a missed ack triggers indirect ping-reqs relayed through
// other members, and only a member that answers nobody through the
// suspicion window is condemned — a slow or flapping link alone
// convicts no one. A condemned member's keys fail over to their
// deputies (which already hold replicas of the pending confirmation
// sets). Arming authority is a quorum lease: a hub arms and hands off
// only while a majority of the membership has acked its lease, so the
// minority side of a partition parks its threshold crossings (instead
// of arming a double) until the heal, when the parked decisions drain
// against the majority's arms; epoch fencing of a stale owner's
// replayed broadcasts remains as the backstop, and -no-lease restores
// the fencing-only merge semantics. -probe-interval/-probe-timeout/
// -probe-suspect/-probe-indirect and -lease-ttl override the windows
// derived from -failover-after. -leave makes shutdown graceful: the
// hub down-marks itself, hands its owned slice off, and drains its
// outboxes before exiting. The /status document shows the membership
// ring (members, liveness, epoch) and the peer links; /status?owner=
// KEY answers which hub owns — and which hub is deputy for — a
// signature key. -fault-isolate AFTER:DUR scripts a deterministic
// outage into a live hub (internal/immunity/fault): AFTER into the
// run its outbound peer links are cut — the asymmetric partition, it
// hears its peers while its acks, lease renewals, and broadcasts
// vanish — and DUR later the links heal; acceptance drives watch the
// log markers and the immunity_cluster_lease_* counters.
//
// The trust fabric is opt-in per daemon. -tls-cert/-tls-key serve the
// exchange listener under TLS; adding -tls-ca turns the cluster mutual:
// outbound peer links dial with the hub's own certificate, inbound
// peer-hellos must present a fleet-CA client certificate whose common
// name matches the claimed hub id, and a wrong-CA or misclaimed peer is
// refused and counted (immunity_hub_auth_failures_total{reason=
// "peer-identity"}). -auth-key (or -auth-keyring, a kid:key rotation
// file) requires every device hello to carry a bearer token minted
// under that key; the token's tenant claim scopes the session into an
// isolated tenant fleet — per-tenant signature keys, provenance,
// thresholds (-tenant-threshold tenant=N,...), pushes, and /status
// views. Two utilities mint the material and exit:
//
//	immunityd -gen-ca DIR                          # fleet CA → DIR/ca.pem + DIR/ca-key.pem
//	immunityd -gen-cert NAME -ca DIR [-hosts ...]  # leaf → DIR/NAME.pem + DIR/NAME-key.pem
//	immunityd -mint-token -auth-key K [-tenant T] [-device D] [-ttl D]
//
// Client and storm modes take -tls-ca (verify the daemons' server
// certificates) and -token (the bearer token every device hello
// carries) to drive authenticated daemons.
//
// On SLO breach/clear transitions serve mode can page: -alert-url POSTs
// the alert as JSON to a webhook, -alert-exec runs a shell command with
// the alert in IMMUNITY_ALERT_* env vars; a cooldown dedup guard keeps
// a flapping objective from paging repeatedly, and deliveries are
// counted in immunity_slo_alerts_total. Backlog objectives (-slo-backlog)
// watch the push-queue depth and summed forward-outbox lag; with -admit
// auto the AIMD controller retreats on backlog breaches too, not just
// report latency.
//
// -chaos runs the kill/restart acceptance drive in-process: a
// federation of -hubs hubs storms -sigs signatures from -phones
// devices while the owner of an in-flight slice is killed
// mid-confirmation and restarted (-kills cycles), then asserts
// federation equivalence — every hub converges to the single-hub
// reference's armed set with zero double-arms. -chaos -partition S
// swaps the kill for a network partition driven by the deterministic
// fault layer: S is symmetric (the minority hub is cut off entirely,
// loses its lease, and parks every crossing), asymmetric (only its
// outbound word is cut — it still hears the majority while its lease
// quietly dies), or flap (the link blinks faster than the suspicion
// window and nobody may be condemned). Each scenario asserts zero
// double-arms during the split and convergence to the single-hub
// reference after the heal; add -no-lease for the fencing-only
// regression baseline in which both sides arm and the union merge
// must still converge.
//
// In client mode it runs the fleet immunity workload against such
// daemons across real sockets; -connect takes one address — or a
// comma-separated list, across which the workload's phones attach
// round-robin to exercise a cluster. Without either flag it runs the
// self-contained simulation (in-process hub or cluster, loopback or TCP
// transport).
//
// -storm floods the exchange with per-signature report messages from
// -phones concurrent devices (against the daemons in -connect, or an
// in-process hub/cluster otherwise) and verifies every signature still
// arms cluster-wide — the admission-control acceptance drive. In the
// in-process form the admission counters are printed; against external
// daemons they are scraped from /metrics. With -ramp-warmup/-ramp-flood
// the storm is shaped instead of flat: a paced single-signature warmup
// at -ramp-rate reports/s (the demand signal that lets an AIMD
// controller grow), then a full-batch flood (the overload that makes it
// retreat) — pair it with in-process -admit auto, or aim it at daemons
// serving with -admit auto, to watch capacity adapt end to end.
//
// Usage:
//
//	immunityd -serve [-listen ADDR] [-http ADDR] [-threshold N] [-provenance FILE] [-admit N|auto -admit-wait D] [-slo-target D -slo-interval D -slo-backlog N] [-alert-url URL] [-alert-exec CMD] [-tls-cert F -tls-key F [-tls-ca F]] [-auth-key K | -auth-keyring F] [-tenant-threshold T=N,...] [-hub ID -peers ID=ADDR,... [-advertise ADDR] [-failover-after D] [-probe-interval D -probe-timeout D -probe-suspect D -probe-indirect N] [-lease-ttl D] [-no-lease] [-fault-isolate AFTER:DUR] [-leave]]
//	immunityd -connect ADDR[,ADDR...] [-phones N] [-procs N] [-threshold N] [-timeout D] [-tls-ca F] [-token T]
//	immunityd -storm [-connect ADDR[,ADDR...]] [-phones N] [-sigs N] [-threshold N] [-hubs N] [-admit N|auto -admit-wait D] [-ramp-warmup D -ramp-flood D -ramp-rate N] [-timeout D] [-tls-ca F] [-token T]
//	immunityd -gen-ca DIR | -gen-cert NAME -ca DIR [-hosts H,...] | -mint-token -auth-key K [-tenant T] [-device D] [-ttl D]
//	immunityd -chaos [-phones N] [-sigs N] [-threshold N] [-hubs N] [-kills N] [-failover-after D] [-timeout D]
//	immunityd -chaos -partition symmetric|asymmetric|flap [-no-lease] [-phones N] [-sigs N] [-threshold N] [-hubs N] [-failover-after D] [-timeout D]
//	immunityd [-phones N] [-procs N] [-threshold N] [-timeout D] [-transport loopback|tcp] [-hubs N]
//	immunityd -propagation [-procs N] [-sigs N] [-tcp]
package main

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/cluster"
	"github.com/dimmunix/dimmunix/internal/immunity/fault"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "immunityd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("immunityd", flag.ContinueOnError)
	phones := fs.Int("phones", 4, "simulated phones in the fleet")
	procs := fs.Int("procs", 3, "live application processes per phone")
	threshold := fs.Int("threshold", 2, "distinct devices that must confirm a signature before fleet-wide arming")
	timeout := fs.Duration("timeout", 30*time.Second, "scenario deadline")
	transport := fs.String("transport", "loopback", "simulation transport: loopback or tcp")
	propagation := fs.Bool("propagation", false, "measure only the publish→all-armed latency")
	sigs := fs.Int("sigs", 64, "signatures to publish in -propagation mode")
	tcp := fs.Bool("tcp", false, "with -propagation: measure the cross-device tier over TCP instead of the on-device tier")
	serve := fs.Bool("serve", false, "run as a long-lived exchange daemon")
	listen := fs.String("listen", "127.0.0.1:7676", "with -serve: TCP listen address for the exchange wire protocol")
	httpAddr := fs.String("http", "127.0.0.1:7677", "with -serve: HTTP listen address for /status (empty disables)")
	provenance := fs.String("provenance", "", "with -serve: provenance store file (empty keeps fleet state in memory only)")
	hubID := fs.String("hub", "", "with -serve: this hub's cluster id (required with -peers)")
	peers := fs.String("peers", "", "with -serve: comma-separated id=addr peer hubs to federate with (a seed — the rest of the membership is learned)")
	join := fs.String("join", "", "with -serve: alias of -peers (a joining hub may name a single existing member)")
	advertise := fs.String("advertise", "", "with -serve and federation: the address other members dial this hub at (default: the -listen address)")
	failoverAfter := fs.Duration("failover-after", 0, "with -serve and federation (or -chaos): declare a member dead after its peer link is down this long and fail its keys over to deputies (0 disables)")
	leave := fs.Bool("leave", false, "with -serve and federation: leave the membership gracefully on shutdown (hand off owned keys, drain outboxes)")
	hubs := fs.Int("hubs", 1, "simulation: federate the in-process exchange into this many hubs")
	connect := fs.String("connect", "", "run the fleet workload in client mode against the exchange daemon(s) at this comma-separated address list")
	admit := fs.String("admit", "", "report-path admission: a pool capacity, or 'auto' for AIMD adaptive capacity driven by the latency SLO (empty disables; applies to -serve and the in-process -storm)")
	admitWait := fs.Duration("admit-wait", 5*time.Second, "bounded wait before an over-capacity report is shed (keep well below the 30s wire write timeout)")
	sloTarget := fs.Duration("slo-target", 25*time.Millisecond, "latency SLO: p99 report-handling time (admission wait included) must stay at or under this")
	sloInterval := fs.Duration("slo-interval", time.Second, "SLO evaluation and rate-sampling tick")
	storm := fs.Bool("storm", false, "flood the exchange with per-signature reports from -phones devices and verify arming still completes")
	chaos := fs.Bool("chaos", false, "in-process kill/restart drive: storm a federation while killing and restarting an owner hub, then assert federation equivalence")
	kills := fs.Int("kills", 1, "with -chaos: kill/restart cycles")
	partition := fs.String("partition", "", "with -chaos: run a network-partition scenario (symmetric, asymmetric, or flap) instead of kill/restart — split the federation mid-storm, assert the minority parks under its lost lease, heal, assert convergence")
	probeInterval := fs.Duration("probe-interval", 0, "with federation failure detection: round-robin probe period (0 derives from -failover-after)")
	probeTimeout := fs.Duration("probe-timeout", 0, "with federation failure detection: direct ping-ack deadline before indirect probing (0 derives from -failover-after)")
	probeSuspect := fs.Duration("probe-suspect", 0, "with federation failure detection: suspicion hold before a silent member is condemned (0 derives from -failover-after)")
	probeIndirect := fs.Int("probe-indirect", 0, "with federation failure detection: proxy members asked to relay indirect ping-reqs per suspicion (0 = default 2)")
	leaseTTL := fs.Duration("lease-ttl", 0, "with federation failure detection: quorum-lease lifetime (0 derives from the probe windows; always clamped to probe-timeout+probe-suspect)")
	noLease := fs.Bool("no-lease", false, "with federation failure detection: disable the quorum lease and fall back to epoch fencing alone (both partition sides keep arming)")
	faultIsolate := fs.String("fault-isolate", "", "with -serve federation: AFTER:DUR — cut this hub's outbound peer links AFTER into the run and heal them DUR later (deterministic fault injection for acceptance drives)")
	rampWarmup := fs.Duration("ramp-warmup", 0, "with -storm: paced single-signature warmup phase before the flood")
	rampFlood := fs.Duration("ramp-flood", 0, "with -storm: continuous full-batch flood phase after the warmup")
	rampRate := fs.Int("ramp-rate", 20, "with -storm: warmup reports per second per device")
	genCA := fs.String("gen-ca", "", "utility: mint a dev fleet CA into this directory (ca.pem + ca-key.pem) and exit")
	genCert := fs.String("gen-cert", "", "utility: issue a leaf certificate with this name (the mutual-TLS peer identity) under the CA in -ca, writing NAME.pem + NAME-key.pem beside it, and exit")
	caDir := fs.String("ca", "", "with -gen-cert: directory holding ca.pem + ca-key.pem (as written by -gen-ca; defaults to the -gen-ca directory when both are given)")
	hostsFlag := fs.String("hosts", "", "with -gen-cert: comma-separated SAN hosts/IPs (default 127.0.0.1,::1,localhost)")
	mintToken := fs.Bool("mint-token", false, "utility: mint a device bearer token signed by -auth-key and exit (claims from -tenant, -device, -ttl)")
	tenantFlag := fs.String("tenant", "", "with -mint-token: the token's tenant claim (empty = the default tenant)")
	deviceFlag := fs.String("device", "*", "with -mint-token: the token's device claim ('*' = any device in the tenant)")
	ttl := fs.Duration("ttl", 0, "with -mint-token: token lifetime (0 = never expires)")
	tlsCert := fs.String("tls-cert", "", "with -serve: serve the exchange listener under TLS with this certificate (PEM; requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "with -serve: the TLS certificate's private key (PEM)")
	tlsCA := fs.String("tls-ca", "", "trust anchors (PEM): with -serve, verifies peer-hub client certificates and outbound peer dials (mutual TLS); with -connect, verifies the daemons' server certificates")
	authKey := fs.String("auth-key", "", "with -serve: require token-authenticated hellos, verified under this static HMAC key (also the signing key for -mint-token)")
	authKeyring := fs.String("auth-keyring", "", "with -serve: require token-authenticated hellos, verified against this kid:key keyring file")
	tenantThresholdsFlag := fs.String("tenant-threshold", "", "with -serve: per-tenant confirm thresholds as tenant=N[,tenant=N...] (unlisted tenants use -threshold)")
	alertURL := fs.String("alert-url", "", "with -serve: POST SLO breach/clear alerts to this webhook URL as JSON")
	alertExec := fs.String("alert-exec", "", "with -serve: run this shell command on SLO breach/clear (alert in IMMUNITY_ALERT_* env)")
	tokenFlag := fs.String("token", "", "with -connect: bearer token each device's hello carries (for daemons serving with -auth-key/-auth-keyring)")
	backlogTarget := fs.Int("slo-backlog", 1024, "with -serve: backlog SLO target — the push-queue depth and the summed forward-outbox lag must each stay at or under this many frames")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *genCA != "" || *genCert != "" {
		return runGenTLS(*genCA, *genCert, *caDir, *hostsFlag)
	}
	if *mintToken {
		return runMintToken(*authKey, *tenantFlag, *deviceFlag, *ttl)
	}
	admitCap, admitAuto, err := parseAdmit(*admit)
	if err != nil {
		return err
	}

	if *serve {
		if *chaos {
			return fmt.Errorf("-chaos is an in-process drive, not a serve mode")
		}
		seed := *peers
		if *join != "" {
			if seed != "" {
				seed += ","
			}
			seed += *join
		}
		// Auth and TLS material come first: peer transports are built
		// from the seed below and must dial with the hub's certificate
		// when the cluster runs mutual TLS.
		var verifier auth.Verifier
		switch {
		case *authKey != "" && *authKeyring != "":
			return fmt.Errorf("-auth-key and -auth-keyring are mutually exclusive")
		case *authKey != "":
			verifier = auth.NewStatic([]byte(*authKey))
		case *authKeyring != "":
			var err error
			if verifier, err = auth.LoadKeyring(*authKeyring); err != nil {
				return err
			}
		}
		var serveTLS *tls.Config
		var peerDial []immunity.TCPOption
		peerAuth := false
		if *tlsCert != "" || *tlsKey != "" {
			if *tlsCert == "" || *tlsKey == "" {
				return fmt.Errorf("-tls-cert and -tls-key go together")
			}
			cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
			if err != nil {
				return fmt.Errorf("tls keypair: %w", err)
			}
			var pool *x509.CertPool
			if *tlsCA != "" {
				if pool, err = loadCertPool(*tlsCA); err != nil {
					return err
				}
			}
			serveTLS = auth.ServerConfig(cert, pool)
			if pool != nil {
				// Mutual TLS material is complete: outbound peer links
				// dial with the hub's own certificate, and inbound
				// peer-hellos must carry a fleet-CA certificate naming
				// the claimed hub.
				peerDial = []immunity.TCPOption{immunity.WithDialTLS(auth.PeerConfig(cert, pool, ""))}
				peerAuth = true
			}
		} else if *tlsCA != "" {
			return fmt.Errorf("-tls-ca with -serve requires -tls-cert/-tls-key (the hub's own certificate)")
		}
		members, err := parsePeers(seed, peerDial...)
		if err != nil {
			return err
		}
		if len(members) > 0 && *hubID == "" {
			return fmt.Errorf("-peers/-join requires -hub (this hub's cluster id)")
		}
		if len(members) == 0 && (*advertise != "" || *failoverAfter != 0 || *leave) {
			return fmt.Errorf("-advertise/-failover-after/-leave apply to a federated hub (-peers/-join)")
		}
		if len(members) == 0 && (*probeInterval != 0 || *probeTimeout != 0 || *probeSuspect != 0 ||
			*probeIndirect != 0 || *leaseTTL != 0 || *noLease || *faultIsolate != "") {
			return fmt.Errorf("-probe-*/-lease-ttl/-no-lease/-fault-isolate apply to a federated hub (-peers/-join)")
		}
		if *partition != "" {
			return fmt.Errorf("-partition is an in-process -chaos scenario, not a serve mode")
		}
		faultAfter, faultDur, err := parseFaultIsolate(*faultIsolate)
		if err != nil {
			return err
		}
		if faultAfter > 0 && *failoverAfter == 0 {
			return fmt.Errorf("-fault-isolate needs -failover-after (without detection the isolation is just a stalled outbox)")
		}
		adv := *advertise
		if adv == "" {
			adv = *listen
		}
		sc := serveConfig{
			listen: *listen, httpAddr: *httpAddr, threshold: *threshold,
			provenance: *provenance, hubID: *hubID, peers: members,
			advertise: adv, failoverAfter: *failoverAfter, leave: *leave,
			probeInterval: *probeInterval, probeTimeout: *probeTimeout,
			probeSuspect: *probeSuspect, probeIndirect: *probeIndirect,
			leaseTTL: *leaseTTL, noLease: *noLease,
			faultAfter: faultAfter, faultDur: faultDur,
			admit: admitCap, admitAuto: admitAuto,
			admitWait: *admitWait, sloTarget: *sloTarget, sloInterval: *sloInterval,
			backlogTarget: *backlogTarget, alertURL: *alertURL, alertExec: *alertExec,
			verifier: verifier, serveTLS: serveTLS, peerDial: peerDial, peerAuth: peerAuth,
		}
		if sc.tenantThresholds, err = parseTenantThresholds(*tenantThresholdsFlag); err != nil {
			return err
		}
		return runServe(sc)
	}
	if *peers != "" || *join != "" || *hubID != "" {
		return fmt.Errorf("-hub/-peers/-join only apply to -serve (use -hubs N for the simulation)")
	}
	if (*advertise != "" || *leave) && !*serve {
		return fmt.Errorf("-advertise/-leave only apply to -serve")
	}
	if *tlsCert != "" || *tlsKey != "" || *authKey != "" || *authKeyring != "" ||
		*tenantThresholdsFlag != "" || *alertURL != "" || *alertExec != "" {
		return fmt.Errorf("-tls-cert/-tls-key/-auth-key/-auth-keyring/-tenant-threshold/-alert-url/-alert-exec only apply to -serve (or the -gen-ca/-gen-cert/-mint-token utilities)")
	}
	if (*tokenFlag != "" || *tlsCA != "") && *connect == "" {
		return fmt.Errorf("-token/-tls-ca outside -serve require -connect (client mode against authenticated daemons)")
	}
	var clientTLS *tls.Config
	if *tlsCA != "" {
		pool, err := loadCertPool(*tlsCA)
		if err != nil {
			return err
		}
		clientTLS = auth.ClientConfig(pool, "")
	}

	if *chaos {
		if *connect != "" {
			return fmt.Errorf("-chaos is in-process only (point -storm at external daemons and SIGKILL one instead)")
		}
		if *partition != "" {
			pcfg := workload.DefaultPartitionConfig()
			pcfg.Devices = *phones
			pcfg.Sigs = *sigs
			pcfg.ConfirmThreshold = *threshold
			if *hubs > 1 {
				pcfg.Hubs = *hubs
			}
			pcfg.Scenario = *partition
			pcfg.NoLease = *noLease
			if *failoverAfter > 0 {
				pcfg.FailoverAfter = *failoverAfter
			}
			pcfg.Timeout = *timeout
			res, err := workload.RunPartitionStorm(pcfg)
			if err != nil {
				return err
			}
			fmt.Print(workload.FormatPartition(res))
			return nil
		}
		cfg := workload.DefaultChaosConfig()
		cfg.Devices = *phones
		cfg.Sigs = *sigs
		cfg.ConfirmThreshold = *threshold
		if *hubs > 1 {
			cfg.Hubs = *hubs
		}
		cfg.Kills = *kills
		if *failoverAfter > 0 {
			cfg.FailoverAfter = *failoverAfter
		}
		cfg.Timeout = *timeout
		res, err := workload.RunChaosStorm(cfg)
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatChaos(res))
		return nil
	}
	if *failoverAfter != 0 {
		return fmt.Errorf("-failover-after only applies to -serve federation and -chaos")
	}
	if *kills != 1 {
		return fmt.Errorf("-kills only applies to -chaos")
	}
	if *partition != "" || *noLease {
		return fmt.Errorf("-partition/-no-lease only apply to -chaos (or, for -no-lease, -serve federation)")
	}
	if *probeInterval != 0 || *probeTimeout != 0 || *probeSuspect != 0 || *probeIndirect != 0 || *leaseTTL != 0 {
		return fmt.Errorf("-probe-*/-lease-ttl only apply to -serve federation")
	}
	if *faultIsolate != "" {
		return fmt.Errorf("-fault-isolate only applies to -serve federation")
	}

	if *storm {
		cfg := workload.StormConfig{
			Devices:          *phones,
			Sigs:             *sigs,
			ConfirmThreshold: *threshold,
			Hubs:             *hubs,
			AdmitCapacity:    admitCap,
			AdmitAuto:        admitAuto,
			AdmitWait:        *admitWait,
			SLOTarget:        *sloTarget,
			SLOInterval:      *sloInterval,
			Timeout:          *timeout,
			Dial:             *connect,
			Token:            *tokenFlag,
			TLS:              clientTLS,
		}
		if *rampWarmup > 0 || *rampFlood > 0 {
			cfg.Ramp = &workload.StormRamp{
				Warmup: *rampWarmup, WarmupRate: *rampRate, Flood: *rampFlood,
			}
		}
		res, err := workload.RunReportStorm(cfg)
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatStorm(res))
		return nil
	}
	if *admit != "" {
		return fmt.Errorf("-admit only applies to -serve and the in-process -storm")
	}
	if *rampWarmup != 0 || *rampFlood != 0 {
		return fmt.Errorf("-ramp-warmup/-ramp-flood only apply to -storm")
	}

	if *propagation {
		var res workload.PropagationResult
		var err error
		if *tcp {
			res, err = workload.PropagationLatencyTCP(*procs, *sigs)
		} else {
			res, err = workload.PropagationLatency(*procs, *sigs)
		}
		if err != nil {
			return err
		}
		fmt.Print(workload.FormatPropagation(res))
		return nil
	}

	cfg := workload.FleetImmunityConfig{
		Phones:           *phones,
		ProcsPerPhone:    *procs,
		ConfirmThreshold: *threshold,
		Timeout:          *timeout,
		Transport:        workload.FleetTransport(*transport),
		Hubs:             *hubs,
		Dial:             *connect,
		Token:            *tokenFlag,
		TLS:              clientTLS,
	}
	res, err := workload.RunFleetImmunity(cfg)
	if err != nil {
		return err
	}
	fmt.Print(workload.FormatFleetImmunity(res))
	return nil
}

// runGenTLS is the -gen-ca / -gen-cert utility: mint a dev fleet CA
// and issue leaf certificates under it. Both may be given at once
// (mint the CA, then issue a first leaf under it).
func runGenTLS(genCADir, certName, caDir, hosts string) error {
	if genCADir != "" {
		if err := os.MkdirAll(genCADir, 0o755); err != nil {
			return err
		}
		// Name the CA after its directory so two fleets' CAs get
		// distinct subjects: a peer dialing with a foreign-CA leaf then
		// withholds it (no acceptable issuer) and is refused at the
		// hello identity gate instead of failing mid-handshake.
		name := filepath.Base(filepath.Clean(genCADir))
		if name == "." || name == string(filepath.Separator) {
			name = "immunity-fleet-ca"
		}
		ca, err := auth.NewCA(name)
		if err != nil {
			return err
		}
		certFile := filepath.Join(genCADir, "ca.pem")
		keyFile := filepath.Join(genCADir, "ca-key.pem")
		if err := ca.Save(certFile, keyFile); err != nil {
			return err
		}
		fmt.Printf("immunityd: fleet CA written to %s (key %s)\n", certFile, keyFile)
		if caDir == "" {
			caDir = genCADir
		}
	}
	if certName == "" {
		return nil
	}
	if caDir == "" {
		return fmt.Errorf("-gen-cert requires -ca DIR (or a -gen-ca in the same run)")
	}
	ca, err := auth.LoadCA(filepath.Join(caDir, "ca.pem"), filepath.Join(caDir, "ca-key.pem"))
	if err != nil {
		return err
	}
	var sans []string
	for _, h := range strings.Split(hosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			sans = append(sans, h)
		}
	}
	if len(sans) == 0 {
		sans = []string{"127.0.0.1", "::1", "localhost"}
	}
	certPEM, keyPEM, err := ca.Issue(certName, sans)
	if err != nil {
		return err
	}
	certFile := filepath.Join(caDir, certName+".pem")
	keyFile := filepath.Join(caDir, certName+"-key.pem")
	if err := os.WriteFile(certFile, certPEM, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(keyFile, keyPEM, 0o600); err != nil {
		return err
	}
	fmt.Printf("immunityd: certificate %q written to %s (key %s)\n", certName, certFile, keyFile)
	return nil
}

// runMintToken is the -mint-token utility: sign a bearer token for a
// device (or a tenant-wide wildcard) under the -auth-key and print it.
func runMintToken(key, tenant, device string, ttl time.Duration) error {
	if key == "" {
		return fmt.Errorf("-mint-token requires -auth-key (the signing key the hubs verify with)")
	}
	c := auth.Claims{Tenant: tenant, Device: device}
	if ttl > 0 {
		c.Exp = time.Now().Add(ttl).Unix()
	}
	token, err := auth.Mint([]byte(key), c)
	if err != nil {
		return err
	}
	fmt.Println(token)
	return nil
}

// parseAdmit parses the -admit flag: "" disables, "auto" selects the
// AIMD adaptive pool, anything else is a fixed capacity.
func parseAdmit(s string) (capacity int, auto bool, err error) {
	switch s {
	case "":
		return 0, false, nil
	case "auto":
		return 0, true, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, false, fmt.Errorf("-admit %q: want a capacity or 'auto'", s)
	}
	return n, false, nil
}

// parsePeers parses "-peers id=addr,id=addr" into cluster members whose
// transports dial with the given options (mutual-TLS material when the
// cluster is authenticated).
func parsePeers(s string, dial ...immunity.TCPOption) ([]cluster.Member, error) {
	var out []cluster.Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("malformed -peers entry %q (want id=addr)", part)
		}
		out = append(out, cluster.Member{ID: id, Transport: immunity.NewTCPTransport(addr, dial...)})
	}
	return out, nil
}

// parseTenantThresholds parses "-tenant-threshold tenant=N[,tenant=N]"
// into the per-tenant confirm-threshold map.
func parseTenantThresholds(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tenant, val, ok := strings.Cut(part, "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("malformed -tenant-threshold entry %q (want tenant=N)", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-tenant-threshold %q: want a positive count", part)
		}
		out[tenant] = n
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// loadCertPool reads a PEM bundle of trust anchors.
func loadCertPool(path string) (*x509.CertPool, error) {
	pem, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tls ca: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("tls ca: no certificates in %s", path)
	}
	return pool, nil
}

// daemon is a running serve-mode instance.
type daemon struct {
	hub      *immunity.Exchange
	node     *cluster.Node
	srv      *immunity.ExchangeServer
	httpSrv  *http.Server
	httpLn   net.Listener
	rates    *metrics.Rates
	eval     *metrics.Evaluator
	adaptive *metrics.AdaptivePool
	alerter  *metrics.Alerter
	// faultStop cancels a pending -fault-isolate script on shutdown.
	faultStop chan struct{}
}

// Addr returns the exchange's bound TCP address.
func (d *daemon) Addr() string { return d.srv.Addr() }

// HTTPAddr returns the bound /status address, or "".
func (d *daemon) HTTPAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// Close tears the daemon down.
func (d *daemon) Close() {
	if d.faultStop != nil {
		close(d.faultStop)
	}
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	if d.node != nil {
		d.node.Close()
	}
	d.srv.Close()
	d.hub.Close()
	d.rates.Stop()
	if d.alerter != nil {
		d.alerter.Close()
	}
}

// serveConfig carries everything serve mode needs. Zero sloTarget and
// sloInterval re-default in startDaemon (25ms / 1s), so tests building
// the struct directly get working objectives.
type serveConfig struct {
	listen, httpAddr string
	threshold        int
	provenance       string
	hubID            string
	peers            []cluster.Member
	advertise        string
	failoverAfter    time.Duration
	probeInterval    time.Duration
	probeTimeout     time.Duration
	probeSuspect     time.Duration
	probeIndirect    int
	leaseTTL         time.Duration
	noLease          bool
	faultAfter       time.Duration
	faultDur         time.Duration
	leave            bool
	admit            int
	admitAuto        bool
	admitWait        time.Duration
	sloTarget        time.Duration
	sloInterval      time.Duration
	backlogTarget    int
	alertURL         string
	alertExec        string
	serveTLS         *tls.Config
	peerDial         []immunity.TCPOption
	peerAuth         bool
	verifier         auth.Verifier
	tenantThresholds map[string]int
}

// buildVersion stamps the immunity_build_info gauge; bump it with the
// roadmap's PR sequence.
const buildVersion = "0.10.0"

// parseFaultIsolate parses the -fault-isolate AFTER:DUR script: block
// the hub's outbound peer links AFTER into the run, heal them DUR
// later. Empty input means no script.
func parseFaultIsolate(s string) (after, dur time.Duration, err error) {
	if s == "" {
		return 0, 0, nil
	}
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf("-fault-isolate wants AFTER:DUR (e.g. 5s:3s), got %q", s)
	}
	if after, err = time.ParseDuration(s[:i]); err != nil {
		return 0, 0, fmt.Errorf("-fault-isolate AFTER: %w", err)
	}
	if dur, err = time.ParseDuration(s[i+1:]); err != nil {
		return 0, 0, fmt.Errorf("-fault-isolate DUR: %w", err)
	}
	if after <= 0 || dur <= 0 {
		return 0, 0, fmt.Errorf("-fault-isolate AFTER and DUR must both be positive, got %s:%s", after, dur)
	}
	return after, dur, nil
}

// startDaemon boots the exchange server, the optional cluster node, and
// the /status + /metrics + /slo endpoints. One registry is shared by
// the hub, the cluster links, the provenance store, and the rate/SLO
// control plane, so /metrics is the whole daemon on one page.
func startDaemon(sc serveConfig) (*daemon, error) {
	if sc.sloTarget <= 0 {
		sc.sloTarget = 25 * time.Millisecond
	}
	if sc.sloInterval <= 0 {
		sc.sloInterval = time.Second
	}
	if sc.backlogTarget <= 0 {
		sc.backlogTarget = 1024
	}
	reg := metrics.NewRegistry()
	reg.Info("immunity_build_info", "Build and protocol metadata (value is always 1).",
		[2]string{"version", buildVersion},
		[2]string{"wire_min", strconv.Itoa(wire.MinVersion)},
		[2]string{"wire_max", strconv.Itoa(wire.Version)})

	// The rate sampler turns the registry's counters into windowed
	// per-second gauges and feeds the SLO evaluator; both tick on
	// sloInterval. Families are resolved lazily, so tracking before the
	// hub registers them is fine, and per-peer series appear as peers do.
	rates := metrics.NewRates(reg, metrics.RatesConfig{Interval: sc.sloInterval})
	for _, name := range []string{
		"immunity_hub_reports_total",
		"immunity_hub_confirmations_total",
		"immunity_hub_armed_total",
		"immunity_hub_echoes_total",
		"immunity_hub_forwards_total",
		"immunity_hub_remote_installs_total",
		"immunity_hub_admission_shed_total",
		"immunity_cluster_peer_forwards_total",
		"immunity_cluster_applied_total",
	} {
		rates.TrackCounter(name)
	}
	rates.TrackHistogram("immunity_hub_report_seconds")
	rates.TrackHistogram("immunity_hub_report_handle_seconds")
	eval := metrics.NewEvaluator(reg, rates, []metrics.SLO{
		{Name: "report-latency", QuantileOf: "immunity_hub_report_seconds",
			Target: sc.sloTarget.Seconds()},
		{Name: "shed-zero", RateOf: "immunity_hub_admission_shed_total", Target: 0},
		// Backlog objectives read the queue-depth gauges directly: the
		// push queue serving devices and the summed per-peer forward
		// outboxes. Either one growing past the target means the hub is
		// falling behind even if report latency still looks fine.
		{Name: "push-backlog", GaugeOf: "immunity_hub_push_pending",
			Target: float64(sc.backlogTarget)},
		{Name: "forward-backlog", GaugeOf: "immunity_cluster_forward_pending",
			Target: float64(sc.backlogTarget)},
	})
	uptime := reg.FloatGauge("immunity_hub_uptime_seconds", "Seconds since daemon start.")
	started := time.Now()
	rates.OnTick(func() { uptime.Set(time.Since(started).Seconds()) })

	opts := []immunity.ExchangeOption{immunity.WithMetricsRegistry(reg)}
	if sc.provenance != "" {
		opts = append(opts, immunity.WithProvenanceStore(immunity.NewFileProvenance(sc.provenance,
			immunity.WithCompactionCounters(
				reg.Counter("immunity_provenance_compactions_total", "Provenance log compactions."),
				reg.Counter("immunity_provenance_compact_errors_total", "Failed provenance log compactions.")))))
	}
	var adaptive *metrics.AdaptivePool
	if sc.admitAuto {
		adaptive = metrics.NewAdaptivePool(reg, "immunity_hub_admission", sc.admitWait,
			metrics.AIMDConfig{SLO: "report-latency",
				SLOs: []string{"push-backlog", "forward-backlog"}})
		adaptive.Bind(eval)
		opts = append(opts, immunity.WithAdmissionPool(adaptive.Pool))
	} else if sc.admit > 0 {
		opts = append(opts, immunity.WithAdmission(sc.admit, sc.admitWait))
	}
	if sc.verifier != nil {
		opts = append(opts, immunity.WithAuthVerifier(sc.verifier))
	}
	if sc.peerAuth {
		opts = append(opts, immunity.WithPeerAuth())
	}
	for tenant, threshold := range sc.tenantThresholds {
		opts = append(opts, immunity.WithTenantThreshold(tenant, threshold))
	}
	hub, err := immunity.NewExchange(sc.threshold, opts...)
	if err != nil {
		return nil, err
	}
	var node *cluster.Node
	var fnet *fault.Network
	if len(sc.peers) > 0 {
		// Federate before the listener is up: the ring must be bound
		// before the first device report or inbound peer-hello arrives.
		// Resolve lets the node dial members it did not start with — a
		// joiner admitted from its peer-hello, a member learned from a
		// membership snapshot — at the address they advertise.
		peers := sc.peers
		if sc.faultAfter > 0 {
			// -fault-isolate: thread every outbound peer transport through
			// a fault network so the script below can cut this hub's
			// outbound word (the asymmetric-partition shape: it still
			// hears its peers, but its acks, lease renewals, and
			// broadcasts vanish) and later heal it.
			fnet = fault.NewNetwork()
			peers = make([]cluster.Member, len(sc.peers))
			for i, m := range sc.peers {
				m.Transport = fnet.Wrap(sc.hubID, m.ID, m.Transport)
				peers[i] = m
			}
		}
		node, err = cluster.New(cluster.Config{
			Self: sc.hubID, SelfAddr: sc.advertise, Hub: hub, Peers: peers,
			Resolve: func(m wire.MemberInfo) immunity.Transport {
				if m.Addr == "" {
					return nil
				}
				t := immunity.NewTCPTransport(m.Addr, sc.peerDial...)
				if fnet != nil {
					return fnet.Wrap(sc.hubID, m.ID, t)
				}
				return t
			},
			FailoverAfter: sc.failoverAfter,
			ProbeInterval: sc.probeInterval, ProbeTimeout: sc.probeTimeout,
			ProbeSuspect: sc.probeSuspect, ProbeIndirect: sc.probeIndirect,
			LeaseTTL: sc.leaseTTL, NoLease: sc.noLease,
			Metrics: reg,
		})
		if err != nil {
			hub.Close()
			return nil, err
		}
	}
	var serveOpts []immunity.ServeOption
	if sc.serveTLS != nil {
		serveOpts = append(serveOpts, immunity.WithServeTLS(sc.serveTLS))
	}
	srv, err := immunity.ServeTCP(hub, sc.listen, serveOpts...)
	if err != nil {
		if node != nil {
			node.Close()
		}
		hub.Close()
		return nil, err
	}
	d := &daemon{hub: hub, node: node, srv: srv,
		rates: rates, eval: eval, adaptive: adaptive}
	if fnet != nil {
		// The -fault-isolate script: AFTER into the run, cut this hub's
		// outbound word to every member it knows (the asymmetric
		// partition — inbound sessions its peers dialed still deliver);
		// DUR later, heal, severing every session the block touched so
		// fresh handshakes resume from their cursors. The log lines are
		// the acceptance drive's timing markers.
		d.faultStop = make(chan struct{})
		go func(stop chan struct{}, n *cluster.Node) {
			select {
			case <-time.After(sc.faultAfter):
			case <-stop:
				return
			}
			members := n.Ring().Members()
			for _, m := range members {
				if m != sc.hubID {
					fnet.Block(sc.hubID, m)
				}
			}
			fmt.Printf("immunityd: fault-isolate: outbound peer links cut (%d members, heal in %s)\n",
				len(members)-1, sc.faultDur)
			select {
			case <-time.After(sc.faultDur):
			case <-stop:
				return
			}
			fnet.Heal()
			fmt.Println("immunityd: fault-isolate: healed")
		}(d.faultStop, node)
	}
	if sc.alertURL != "" || sc.alertExec != "" {
		d.alerter = metrics.NewAlerter(reg, metrics.AlertConfig{
			URL: sc.alertURL, Exec: sc.alertExec})
		d.alerter.Watch(eval)
	}
	if sc.httpAddr != "" {
		writeJSON := func(w http.ResponseWriter, v any) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
			if key := r.URL.Query().Get("owner"); key != "" {
				if node == nil {
					http.Error(w, "not a federated hub", http.StatusNotFound)
					return
				}
				owner, deputy := node.OwnerDeputy(key)
				writeJSON(w, ownerPayload{Key: key, Owner: owner, Deputy: deputy})
				return
			}
			p := statusPayload{Status: hub.Status(), Rates: rates.Snapshot()}
			if node != nil {
				p.Links = node.Status()
			}
			writeJSON(w, p)
		})
		mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, eval.Snapshot())
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		ln, err := net.Listen("tcp", sc.httpAddr)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("http listen: %w", err)
		}
		d.httpLn = ln
		d.httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := d.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "immunityd: http:", err)
			}
		}()
	}
	rates.Start()
	return d, nil
}

// statusPayload is the /status document: the wire status (whose cluster
// section carries the membership ring with liveness and epoch) plus the
// node's peer-link states and the windowed per-second rates of every
// tracked counter series.
type statusPayload struct {
	wire.Status
	Links []cluster.PeerStatus          `json:"links,omitempty"`
	Rates map[string]map[string]float64 `json:"rates,omitempty"`
}

// ownerPayload answers /status?owner=KEY: which hub owns the signature
// key under the current ring, and which hub is its deputy (the failover
// target holding the replicated pending set).
type ownerPayload struct {
	Key    string `json:"key"`
	Owner  string `json:"owner"`
	Deputy string `json:"deputy,omitempty"`
}

// runServe boots the long-running daemon and blocks until
// SIGINT/SIGTERM.
func runServe(sc serveConfig) error {
	d, err := startDaemon(sc)
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Printf("immunityd: exchange on %s (threshold %d, protocol v%d", d.Addr(), sc.threshold, wire.Version)
	if sc.provenance != "" {
		fmt.Printf(", provenance %s", sc.provenance)
	}
	switch {
	case sc.admitAuto:
		cfg := d.adaptive.Config()
		fmt.Printf(", admission auto (AIMD %d..%d from %d, max wait %s)",
			cfg.Min, cfg.Max, cfg.Initial, sc.admitWait)
	case sc.admit > 0:
		fmt.Printf(", admission %d/%s", sc.admit, sc.admitWait)
	}
	fmt.Println(")")
	backlog := sc.backlogTarget
	if backlog <= 0 {
		backlog = 1024
	}
	fmt.Printf("immunityd: slo report-latency p99<=%s, shed-zero, push/forward backlog<=%d; evaluated every %s (see /slo)\n",
		sc.sloTarget, backlog, sc.sloInterval)
	if sc.serveTLS != nil {
		if sc.peerAuth {
			fmt.Println("immunityd: mutual TLS on (devices verify the hub; peer hubs present fleet-CA certificates)")
		} else {
			fmt.Println("immunityd: TLS on (devices verify the hub's certificate)")
		}
	}
	if sc.verifier != nil {
		fmt.Println("immunityd: token auth required (hellos must carry a bearer token)")
	}
	if len(sc.tenantThresholds) > 0 {
		parts := make([]string, 0, len(sc.tenantThresholds))
		for tenant, n := range sc.tenantThresholds {
			parts = append(parts, fmt.Sprintf("%s=%d", tenant, n))
		}
		sort.Strings(parts)
		fmt.Printf("immunityd: per-tenant thresholds %s (others %d)\n", strings.Join(parts, " "), sc.threshold)
	}
	if sc.alertURL != "" || sc.alertExec != "" {
		fmt.Println("immunityd: slo alerting armed (breach/clear transitions page)")
	}
	if d.node != nil {
		fmt.Printf("immunityd: cluster hub %s federating with %d seed peer(s): %s\n",
			sc.hubID, len(sc.peers), strings.Join(d.node.Ring().Members(), " "))
		fmt.Printf("immunityd: membership epoch %d, advertising %s", d.node.Epoch(), sc.advertise)
		if sc.failoverAfter > 0 {
			fmt.Printf(", failover after %s", sc.failoverAfter)
			if sc.noLease {
				fmt.Printf(", probe detection on, quorum lease OFF (epoch fencing only)")
			} else {
				fmt.Printf(", probe detection + quorum lease on")
			}
		}
		fmt.Println()
		if sc.faultAfter > 0 {
			fmt.Printf("immunityd: fault-isolate armed: outbound cut at +%s, heal %s later\n",
				sc.faultAfter, sc.faultDur)
		}
	}
	if st := d.hub.Status(); len(st.Provenance) > 0 {
		fmt.Printf("immunityd: resumed %d signatures from provenance, fleet epoch %d\n", len(st.Provenance), st.Epoch)
	}
	if addr := d.HTTPAddr(); addr != "" {
		fmt.Printf("immunityd: status on http://%s/status, metrics on http://%s/metrics\n", addr, addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if sc.leave && d.node != nil {
		fmt.Println("immunityd: leaving the membership (handing off owned keys)")
		d.node.Leave()
	}
	fmt.Println("immunityd: shutting down")
	return nil
}
