package main

// The Drill tests run the daemon the way an operator does. The -leave
// and chaos drills need real processes, because what they check is what
// a SIGTERM hands off and what a SIGKILL loses: they exec the immunityd
// binary, built once per test run. The mutual-TLS drill needs no
// process, so it boots its hubs in the test process, from command lines
// parsed the way run parses them.
//
//	go test -count=3 -run Drill ./cmd/immunityd

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/workload"
)

// daemonBin is the immunityd binary the process drills exec, built on
// first use into a directory TestMain removes.
var daemonBin struct {
	once      sync.Once
	dir, path string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonBin.dir != "" {
		os.RemoveAll(daemonBin.dir)
	}
	os.Exit(code)
}

// buildDaemon builds this package's binary with the go tool of the
// toolchain running the test, once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	daemonBin.once.Do(func() {
		if daemonBin.dir, daemonBin.err = os.MkdirTemp("", "immunityd-drill"); daemonBin.err != nil {
			return
		}
		daemonBin.path = filepath.Join(daemonBin.dir, "immunityd")
		out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", daemonBin.path, ".").CombinedOutput()
		if err != nil {
			daemonBin.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if daemonBin.err != nil {
		t.Fatal(daemonBin.err)
	}
	return daemonBin.path
}

// hubProc is one immunityd -serve process of a drill.
type hubProc struct {
	t          *testing.T
	id, bin    string
	args       []string
	addr, http string
	log        string // the process's stdout and stderr
	cmd        *exec.Cmd
	exited     chan struct{}
}

// startHubs starts a 3-hub federation of daemon processes on fresh
// loopback ports, hub i serving with extra(i) appended, and returns once
// every hub holds a live peer session from both others. Every process
// is killed when the test ends, and a failed test prints their logs.
func startHubs(t *testing.T, extra func(i int) []string) []*hubProc {
	bin := buildDaemon(t)
	ports := freePorts(t, 6)
	addrs := ports[:3]
	hubs := make([]*hubProc, 3)
	for i := range hubs {
		h := &hubProc{t: t, id: hubID(i), bin: bin, addr: addrs[i], http: ports[3+i],
			log: filepath.Join(t.TempDir(), hubID(i)+".log")}
		h.args = append([]string{"-serve", "-hub", h.id, "-listen", h.addr, "-http", h.http,
			"-threshold", "2", "-peers", peersOf(addrs, i)}, extra(i)...)
		t.Cleanup(func() {
			if t.Failed() {
				page, err := get(h.http, "/status")
				out, _ := os.ReadFile(h.log)
				t.Logf("%s log:\n%s\n%s /status: %v\n%s", h.id, out, h.id, err, page)
			}
			h.stop(os.Kill)
		})
		h.start()
		hubs[i] = h
	}
	waitFor(t, 20*time.Second, "a full peer mesh", func() error {
		for _, h := range hubs {
			st, err := status(h.http)
			if err != nil {
				return err
			}
			if len(st.Cluster.Peers) != 2 {
				return fmt.Errorf("%s has inbound peers %v", h.id, st.Cluster.Peers)
			}
		}
		return nil
	})
	return hubs
}

// start runs the hub's command line and returns once its /status
// answers.
func (h *hubProc) start() {
	h.t.Helper()
	f, err := os.OpenFile(h.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		h.t.Fatal(err)
	}
	defer f.Close()
	h.cmd = exec.Command(h.bin, h.args...)
	h.cmd.Stdout, h.cmd.Stderr = f, f
	if err := h.cmd.Start(); err != nil {
		h.t.Fatal(err)
	}
	exited := make(chan struct{})
	go func(cmd *exec.Cmd) {
		cmd.Wait()
		close(exited)
	}(h.cmd)
	h.exited = exited
	waitFor(h.t, 10*time.Second, h.id+" to serve /status", func() error {
		select {
		case <-exited:
			return fmt.Errorf("%s exited: %v", h.id, h.cmd.ProcessState)
		default:
		}
		_, err := status(h.http)
		return err
	})
}

// stop signals the process and waits for it to exit: os.Kill is a
// crash, syscall.SIGTERM the graceful shutdown.
func (h *hubProc) stop(sig os.Signal) {
	h.t.Helper()
	if h.exited == nil {
		return // never started
	}
	select {
	case <-h.exited:
		return
	default:
	}
	if err := h.cmd.Process.Signal(sig); err != nil {
		h.t.Errorf("%s: signal %v: %v", h.id, sig, err)
	}
	select {
	case <-h.exited:
	case <-time.After(15 * time.Second):
		h.cmd.Process.Kill()
		<-h.exited
		h.t.Errorf("%s ignored %v for 15s", h.id, sig)
	}
}

// metric sums one series over the hubs' /metrics pages; a page without
// the series adds 0.
func metric(hubs []*hubProc, series string) (float64, error) {
	var sum float64
	for _, h := range hubs {
		page, err := get(h.http, "/metrics")
		if err != nil {
			return 0, err
		}
		v, _ := sample(page, series)
		sum += v
	}
	return sum, nil
}

// ringOf fetches every hub's /status and checks that each one's ring
// holds exactly the members want.
func ringOf(hubs []*hubProc, want ...string) ([]statusPayload, error) {
	sts := make([]statusPayload, len(hubs))
	for i, h := range hubs {
		st, err := status(h.http)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(st.Cluster.Members, want) {
			return nil, fmt.Errorf("%s members %v, want %v", h.id, st.Cluster.Members, want)
		}
		sts[i] = st
	}
	return sts, nil
}

// armedKeys is a status's armed signature keys, sorted.
func armedKeys(st wire.Status) []string {
	var keys []string
	for _, p := range st.Provenance {
		if p.Armed {
			keys = append(keys, p.Key)
		}
	}
	sort.Strings(keys)
	return keys
}

// ownerOf asks a hub's /status?owner= who owns a signature key.
func ownerOf(t *testing.T, httpAddr, key string) ownerPayload {
	t.Helper()
	var doc ownerPayload
	if err := json.Unmarshal([]byte(httpGet(t, httpAddr, "/status?owner="+key)), &doc); err != nil {
		t.Fatalf("owner lookup of %s: %v", key, err)
	}
	return doc
}

// drillSigs builds n distinct two-lock deadlock signatures.
func drillSigs(n int) []*core.Signature {
	sigs := make([]*core.Signature, n)
	for i := range sigs {
		a := core.Frame{Class: "com.drill.App", Method: "lockAB", Line: i + 1}
		b := core.Frame{Class: "com.drill.App", Method: "lockBA", Line: i + 1}
		sigs[i] = &core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
			{Outer: core.CallStack{a}, Inner: core.CallStack{a}},
			{Outer: core.CallStack{b}, Inner: core.CallStack{b}},
		}}
	}
	return sigs
}

// publish attaches a phone to the hub at addr and publishes sigs on it,
// as the phone's own detections would. The phone stays attached until
// the test ends.
func publish(t *testing.T, addr, phone string, sigs []*core.Signature) {
	t.Helper()
	svc, err := immunity.NewService(phone, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	client, err := immunity.Connect(immunity.NewTCPTransport(addr), phone, svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	for _, sig := range sigs {
		if err := svc.Append(sig); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrillGracefulLeave is the -leave drill. A phone leaves every
// signature one confirmation short of arming, so hub2's slice pends on
// hub2. SIGTERM makes hub2, serving with -leave, hand its owned records
// to their new owners before it exits. The survivors must count the
// imported records and drop hub2 from their ring. Then one more phone's
// report must arm every key. For hub2's old slice that arming needs the
// confirmation the handoff carried, so the new owner must hold both
// phones.
func TestDrillGracefulLeave(t *testing.T) {
	const n = 16
	hubs := startHubs(t, func(i int) []string {
		if i == 2 {
			return []string{"-leave"}
		}
		return nil
	})
	survivors := hubs[:2]
	sigs := drillSigs(n)
	var slice []string
	for _, sig := range sigs {
		if ownerOf(t, hubs[0].http, sig.Key()).Owner == "hub2" {
			slice = append(slice, sig.Key())
		}
	}
	if len(slice) == 0 {
		t.Fatalf("hub2 owns none of the %d signatures", n)
	}

	publish(t, hubs[0].addr, "phone-a", sigs)
	waitFor(t, 20*time.Second, "hub2 to hold its slice one confirmation short", func() error {
		st, err := status(hubs[2].http)
		if err != nil {
			return err
		}
		held := make(map[string]int)
		for _, p := range st.Provenance {
			held[p.Key] = p.Confirmations
		}
		for _, key := range slice {
			if held[key] != 1 {
				return fmt.Errorf("hub2 holds %d confirmations of %s, want 1", held[key], key)
			}
		}
		return nil
	})
	const handoffs = "immunity_hub_handoff_records_total"
	before, err := metric(survivors, handoffs)
	if err != nil {
		t.Fatal(err)
	}
	hubs[2].stop(syscall.SIGTERM)
	waitFor(t, 20*time.Second, "the survivors to import hub2's slice and drop it from the ring", func() error {
		after, err := metric(survivors, handoffs)
		if err != nil {
			return err
		}
		if after < before+float64(len(slice)) {
			return fmt.Errorf("survivors imported %v handoff records, want >= %d", after-before, len(slice))
		}
		_, err = ringOf(survivors, "hub0", "hub1")
		return err
	})

	publish(t, hubs[1].addr, "phone-b", sigs)
	var sts []statusPayload
	waitFor(t, 20*time.Second, "the second phone's report to arm every key", func() (err error) {
		if sts, err = ringOf(survivors, "hub0", "hub1"); err != nil {
			return err
		}
		for i, st := range sts {
			if armed := len(armedKeys(st.Status)); st.Epoch != n || armed != n {
				return fmt.Errorf("%s armed %d at epoch %d, want %d", survivors[i].id, armed, st.Epoch, n)
			}
		}
		return nil
	})
	confirmed := make(map[string][]string)
	for i, st := range sts {
		for _, p := range st.Provenance {
			if p.Owner == survivors[i].id {
				confirmed[p.Key] = p.ConfirmedBy
			}
		}
	}
	for _, key := range slice {
		if got, want := confirmed[key], []string{"phone-a", "phone-b"}; !reflect.DeepEqual(got, want) {
			t.Errorf("new owner of %s holds confirmations %v, want %v", key, got, want)
		}
	}
}

// TestDrillChaosFailover is the SIGKILL drill. Three hubs with a 1 s
// failure detector take a ramped report storm on hub0 and hub1 only, so
// the kill takes no device session with it and hub2 plays purely the
// owner of its key slice. 1 s into the storm hub2 is SIGKILLed: its
// slice must arm on the deputies. 3 s later it restarts over the same
// provenance file while the storm still runs: it must rejoin, take its
// keys back and resync every arming it missed, without condemning the
// survivors (the membership epoch stays small).
func TestDrillChaosFailover(t *testing.T) {
	const sigs = 40
	prov := t.TempDir()
	hubs := startHubs(t, func(i int) []string {
		return []string{"-failover-after", "1s", "-provenance", filepath.Join(prov, hubID(i)+".prov")}
	})
	storm := make(chan error, 1)
	go func() {
		s := workload.ReportStorm(6, sigs, 4*time.Second, time.Second)
		s.Timeout, s.Dial = 90*time.Second, hubs[0].addr+","+hubs[1].addr
		_, err := s.Run()
		storm <- err
	}()
	// The two schedule offsets are wall-clock on purpose: they land the
	// crash and the restart while the storm runs (4 s warmup, 1 s flood).
	time.Sleep(time.Second)
	hubs[2].stop(os.Kill)
	time.Sleep(3 * time.Second)
	hubs[2].start()
	// The storm returns once both survivors armed the whole set; hub2's
	// slice could arm only on its deputies while hub2 was dead.
	if err := <-storm; err != nil {
		t.Fatal(err)
	}

	var sts []statusPayload
	waitFor(t, 30*time.Second, "the restarted hub to resync and the ring to be whole", func() (err error) {
		if sts, err = ringOf(hubs, "hub0", "hub1", "hub2"); err != nil {
			return err
		}
		for i, st := range sts {
			if st.Epoch != sigs {
				return fmt.Errorf("%s at epoch %d, want %d", hubs[i].id, st.Epoch, sigs)
			}
		}
		return nil
	})
	var fenced uint64
	armed := make([][]string, len(sts))
	for i, st := range sts {
		armed[i] = armedKeys(st.Status)
		// Zero double-arms: a hub's epoch counts its armings, across the
		// kill, the failover and the restart.
		if len(armed[i]) != sigs {
			t.Errorf("%s armed %d at epoch %d, want %d", hubs[i].id, len(armed[i]), st.Epoch, sigs)
		}
		// A restarted hub that condemns the survivors churns the
		// membership into the thousands of changes.
		if e := st.Cluster.MembershipEpoch; e >= 50 {
			t.Errorf("%s membership epoch %d, want < 50", hubs[i].id, e)
		}
		fenced += st.Cluster.Fenced
	}
	for i := 1; i < len(armed); i++ {
		if !reflect.DeepEqual(armed[i], armed[0]) {
			t.Errorf("%s armed set diverged from hub0's", hubs[i].id)
		}
	}
	if len(armed[0]) == 0 {
		t.FailNow() // reported above; there is no key to look up
	}
	doc := ownerOf(t, hubs[0].http, armed[0][0])
	if !slices.Contains([]string{"hub0", "hub1", "hub2"}, doc.Owner) || doc.Deputy == "" || doc.Deputy == doc.Owner {
		t.Errorf("owner lookup of %s = %+v, want a member owner and a different deputy", armed[0][0], doc)
	}
	t.Logf("chaos converged: %d/%d armed on all 3 hubs, membership epoch %d, %d stale replays fenced, owner lookup %s/%s",
		len(armed[0]), sigs, sts[0].Cluster.MembershipEpoch, fenced, doc.Owner, doc.Deputy)
}

// TestDrillMutualTLSTenants is the trust-fabric drill: three hubs meshed
// over mutual TLS serve two tenants behind token auth, and a rogue hub
// whose certificate chains to another CA tries to peer. Each tenant must
// arm its own signature at its own threshold on every hub, and both
// refusals — the token-less phone and the rogue peer — must be counted.
func TestDrillMutualTLSTenants(t *testing.T) {
	const key = "drill-fleet-key"
	fleet, rogue := t.TempDir(), t.TempDir()
	for _, gen := range []struct{ newCA, cert, ca string }{
		{fleet, "hub0", ""}, {"", "hub1", fleet}, {"", "hub2", fleet}, {rogue, "hub9", ""},
	} {
		if err := runGenTLS(gen.newCA, gen.cert, gen.ca, ""); err != nil {
			t.Fatal(err)
		}
	}
	ca := filepath.Join(fleet, "ca.pem")
	tlsArgs := func(dir, id string) []string {
		return []string{"-tls-cert", filepath.Join(dir, id+".pem"), "-tls-key", filepath.Join(dir, id+"-key.pem"), "-tls-ca", ca}
	}
	addrs := freePorts(t, 4)
	hubs := make([]*daemon, 3)
	for i := range hubs {
		hubs[i] = serve(t, append([]string{"-hub", hubID(i), "-listen", addrs[i], "-peers", peersOf(addrs[:3], i),
			"-threshold", "2", "-tenant-threshold", "t2=3", "-auth-key", key}, tlsArgs(fleet, hubID(i))...)...)
	}
	pool, err := loadCertPool(ca)
	if err != nil {
		t.Fatal(err)
	}

	// Both tenants drive the mesh with the same scenario, so the same
	// signature: t1 arms it at the default threshold, t2 at its own.
	clientTLS := auth.ClientConfig(pool, "")
	for _, tc := range []struct {
		tenant    string
		threshold int
		dial      string
	}{{"t1", 2, addrs[0] + "," + addrs[1]}, {"t2", 3, addrs[1] + "," + addrs[2]}} {
		fleet := workload.FleetImmunity(4, 2, tc.threshold)
		fleet.Timeout, fleet.Dial, fleet.TLS = 30*time.Second, tc.dial, clientTLS
		if fleet.Token, err = auth.Mint([]byte(key), auth.Claims{Tenant: tc.tenant, Device: auth.WildcardDevice}); err != nil {
			t.Fatal(err)
		}
		if _, err := fleet.Run(); err != nil {
			t.Fatalf("tenant %s: %v", tc.tenant, err)
		}
	}
	// A token-less phone is refused with a clean error, not a hang.
	noToken := workload.FleetImmunity(2, 1, 2)
	noToken.Timeout, noToken.Dial, noToken.TLS = 15*time.Second, addrs[0], clientTLS
	if _, err := noToken.Run(); err == nil || !strings.Contains(strings.ToLower(err.Error()), "token") {
		t.Fatalf("token-less phone: want a refusal naming the token, got %v", err)
	}
	// The rogue dials hub0 with a leaf the fleet CA never issued, so its
	// peer hello arrives without a fleet identity.
	serve(t, append([]string{"-hub", "hub9", "-listen", addrs[3], "-threshold", "2", "-peers", "hub0=" + addrs[0]},
		tlsArgs(rogue, "hub9")...)...)

	waitFor(t, 30*time.Second, "both tenants armed on every hub", func() error {
		for i, d := range hubs {
			st := d.hub.Status()
			tenants := make(map[string]wire.TenantStatus)
			for _, ts := range st.Tenants {
				tenants[ts.Tenant] = ts
			}
			for tenant, threshold := range map[string]int{"t1": 2, "t2": 3} {
				if ts := tenants[tenant]; ts.Armed != 1 || ts.Threshold != threshold {
					return fmt.Errorf("%s tenant %s = %+v, want 1 armed at threshold %d", hubID(i), tenant, ts, threshold)
				}
			}
		}
		return nil
	})
	for i, d := range hubs {
		// The byte-identical signature armed once per tenant, under
		// disjoint tenant-prefixed keys.
		keys := armedKeys(d.hub.Status())
		if len(keys) != 2 || !strings.HasPrefix(keys[0], "t=t1|") || !strings.HasPrefix(keys[1], "t=t2|") {
			t.Errorf("%s armed keys %v, want one per tenant", hubID(i), keys)
		}
	}

	const refusals = "immunity_hub_auth_failures_total"
	if n, _ := sample(httpGet(t, hubs[0].HTTPAddr(), "/metrics"), refusals+`{reason="missing-token"}`); n < 1 {
		t.Error("the token-less refusal was not counted")
	}
	waitFor(t, 20*time.Second, "the rogue peer's refusal to be counted", func() error {
		page, err := get(hubs[0].HTTPAddr(), "/metrics")
		if err != nil {
			return err
		}
		if n, _ := sample(page, refusals+`{reason="peer-identity"}`); n < 1 {
			return fmt.Errorf("peer-identity refusals = %v", n)
		}
		return nil
	})
	// The rogue never became a peer: hub0's live inbound peers are still
	// exactly the two fleet hubs.
	peers := slices.Clone(hubs[0].hub.Status().Cluster.Peers)
	sort.Strings(peers)
	if want := []string{"hub1", "hub2"}; !reflect.DeepEqual(peers, want) {
		t.Errorf("hub0 peers %v, want %v", peers, want)
	}
}
