package main

import (
	"crypto/tls"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/workload"
)

// deadAddr is a peer address for argument vectors that must fail before
// anything is dialed.
const deadAddr = "127.0.0.1:1"

// parseServe turns a serve command line into a serveConfig exactly as
// run does: newFlags, the mode check, serveConfigFromFlags.
func parseServe(args ...string) (serveConfig, error) {
	c, m, err := parseArgs(args)
	if err != nil {
		return serveConfig{}, err
	}
	if m&anyServe == 0 {
		return serveConfig{}, fmt.Errorf("%v is not a serve command line (mode: %s)", args, m)
	}
	return serveConfigFromFlags(c)
}

// serve boots a daemon in the test process from a serve command line.
// The exchange and HTTP listeners default to OS-assigned loopback ports;
// a -listen or -http in args overrides them.
func serve(t *testing.T, args ...string) *daemon {
	t.Helper()
	sc, err := parseServe(append([]string{"-serve", "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// waitFor polls cond until it returns nil and fails the test with cond's
// last error once timeout has passed. It is this package's one wait: no
// test here sleeps.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() error) {
	t.Helper()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.Now().Add(timeout)
	for {
		err := cond()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s: %v", timeout, what, err)
		}
		<-tick.C
	}
}

// get fetches one page of a daemon's HTTP endpoint.
func get(addr, path string) (string, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s%s: %s: %s", addr, path, resp.Status, body)
	}
	return string(body), nil
}

// httpGet is get for a page the test cannot go on without.
func httpGet(t *testing.T, addr, path string) string {
	t.Helper()
	page, err := get(addr, path)
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// status fetches and decodes a daemon's /status page.
func status(addr string) (statusPayload, error) {
	var st statusPayload
	page, err := get(addr, "/status")
	if err == nil {
		err = json.Unmarshal([]byte(page), &st)
	}
	return st, err
}

// sample reads one series off a /metrics page: a bare family name or a
// family with its labels, as the page spells them. ok is false when the
// page has no such series.
func sample(page, series string) (v float64, ok bool) {
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` ([0-9.e+-]+)$`).FindStringSubmatch(page)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	return v, err == nil
}

// mustSample is sample for a series the page must carry.
func mustSample(t *testing.T, page, series string) float64 {
	t.Helper()
	v, ok := sample(page, series)
	if !ok {
		t.Fatalf("/metrics missing sample %s:\n%s", series, page)
	}
	return v
}

// freePorts picks n distinct loopback ports for daemons that bind them
// later. It picks outside the kernel's ephemeral range, so no ":0"
// listener or outgoing dial anywhere on the host can take one between
// the pick and the bind, and checks each by binding it. The start is
// random, so test processes running side by side pick apart.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	const first = 1024 // below it binding needs privilege
	lo, hi := ephemeralRange()
	lo = max(lo, first)
	span := lo - first + 65535 - hi
	if span < n {
		t.Fatalf("ephemeral range %d-%d leaves %d ports outside it, want %d", lo, hi, span, n)
	}
	var addrs []string
	for i, start := 0, rand.IntN(span); i < span && len(addrs) < n; i++ {
		port := first + (start+i)%span
		if port >= lo {
			port += hi - lo + 1
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			continue // in use
		}
		addrs = append(addrs, ln.Addr().String())
		ln.Close()
	}
	if len(addrs) < n {
		t.Fatalf("found %d free ports outside the ephemeral range %d-%d, want %d", len(addrs), lo, hi, n)
	}
	return addrs
}

// ephemeralRange is the kernel's range for ":0" binds and outgoing
// dials: ip_local_port_range where the host has it, else Linux's
// default.
func ephemeralRange() (lo, hi int) {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err == nil {
		if _, err := fmt.Sscan(string(b), &lo, &hi); err == nil && lo <= hi {
			return lo, hi
		}
	}
	return 32768, 60999
}

// hubID names hub i of a test cluster.
func hubID(i int) string { return fmt.Sprintf("hub%d", i) }

// peersOf is hub i's -peers value in a cluster whose hub j listens at
// addrs[j]: every other hub.
func peersOf(addrs []string, i int) string {
	var peers []string
	for j, addr := range addrs {
		if j != i {
			peers = append(peers, hubID(j)+"="+addr)
		}
	}
	return strings.Join(peers, ",")
}

func TestImmunitydBadFlags(t *testing.T) {
	// The fleet-workload client, the report storm, the fault hook, the
	// admission mode switch, the admission wait, the SLO objectives and
	// the alert egress are gone: their flags are unknown, and so is
	// anything never registered.
	for _, args := range [][]string{
		{"-transport", "smoke-signals"},
		{"-procs", "1"},
		{"-token", "x"},
		{"-storm"},
		{"-connect", deadAddr},
		{"-phones", "6"},
		{"-sigs", "40"},
		{"-timeout", "90s"},
		{"-ramp-warmup", "4s"},
		{"-ramp-flood", "1s"},
		{"-serve", "-fault-isolate", "4s:4s"},
		{"-serve", "-admit", "auto"},
		{"-serve", "-admit", "1"},
		{"-serve", "-admit-wait", "10s"},
		{"-serve", "-slo-target", "500us"},
		{"-serve", "-slo-interval", "100ms"},
		{"-serve", "-slo-backlog", "7"},
		{"-serve", "-alert-url", "http://127.0.0.1:1/hook"},
		{"-serve", "-alert-exec", "true"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%v: want an unknown-flag error, got %v", args, err)
		}
	}
	if err := run(nil); err != nil {
		t.Errorf("a bare immunityd prints the modes, got %v", err)
	}
}

// flagSample returns an argument vector that sets the named flag to a
// value its type accepts.
func flagSample(t *testing.T, name string) []string {
	t.Helper()
	fs, _ := newFlags()
	f := fs.Lookup(name)
	if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
		return []string{"-" + name}
	}
	for _, v := range []string{"1", "1s"} {
		if f.Value.Set(v) == nil {
			return []string{"-" + name, v}
		}
	}
	t.Fatalf("no sample value for -%s", name)
	return nil
}

// TestImmunitydFlagModes: flagModes is the one rule for which flag goes
// with which mode. Every registered flag has an entry, and every flag
// given outside its modes is refused with an error naming the flag and
// the modes it does belong to — nothing is dropped silently.
func TestImmunitydFlagModes(t *testing.T) {
	fs, _ := newFlags()
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		registered[f.Name] = true
		if flagModes[f.Name] == 0 {
			t.Errorf("flag -%s is registered but has no flagModes entry", f.Name)
		}
	})
	for name := range flagModes {
		if !registered[name] {
			t.Errorf("flagModes lists -%s, which is not a registered flag", name)
		}
	}

	// The argument vector that selects each mode and nothing else. A
	// selector flag added to another mode's vector changes the mode, so
	// selectors get their own cases below.
	selectors := map[string]bool{"serve": true, "peers": true, "gen-ca": true, "gen-cert": true, "mint-token": true}
	bases := []struct {
		m    mode
		args []string
	}{
		{0, nil},
		{modeServe, []string{"-serve"}},
		{modeFederated, []string{"-serve", "-peers", "hub1=" + deadAddr}},
		{modeGen, []string{"-gen-cert", "leaf"}},
		{modeMint, []string{"-mint-token"}},
	}
	for name, applies := range flagModes {
		if selectors[name] {
			continue
		}
		for _, base := range bases {
			if applies&base.m != 0 {
				continue
			}
			args := append(append([]string{}, base.args...), flagSample(t, name)...)
			err := run(args)
			if err == nil {
				t.Errorf("%v: -%s accepted outside its modes (%s)", args, name, applies)
				continue
			}
			for _, want := range []string{"-" + name + " does not apply", "mode: " + base.m.String(), "applies to: " + applies.String()} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%v: error %q does not say %q", args, err, want)
				}
			}
		}
	}

	// Two selectors of different modes: whichever mode wins, the other
	// selector is refused by the same walk.
	for _, args := range [][]string{
		{"-serve", "-mint-token"},
		{"-serve", "-gen-ca", t.TempDir()},
		{"-mint-token", "-peers", "hub1=" + deadAddr},
		{"-mint-token", "-gen-cert", "leaf"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("%v: want a mode error, got %v", args, err)
		}
	}

	// Several inapplicable flags at once, with and without a mode: none
	// is dropped silently (no provenance file may appear either).
	prov := filepath.Join(t.TempDir(), "never.prov")
	for _, args := range [][]string{
		{"-threshold", "2", "-provenance", prov, "-listen", "1.2.3.4:5", "-http", "9.9.9.9:1",
			"-ttl", "5s", "-tenant", "t9", "-tenant-threshold", "t9=3"},
		{"-serve", "-ttl", "9s", "-hosts", "h"},
		{"-mint-token", "-auth-key", "k", "-provenance", prov},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("%v: inapplicable flags must be refused, got %v", args, err)
		}
	}
	if _, err := os.Stat(prov); err == nil {
		t.Errorf("a refused command line still wrote %s", prov)
	}
}

// TestServeConfigFromFlags: the flag → serveConfig translation every
// daemon in these tests goes through.
func TestServeConfigFromFlags(t *testing.T) {
	sc, err := parseServe("-serve")
	if err != nil {
		t.Fatal(err)
	}
	if sc.advertise != sc.listen || sc.threshold != 2 || len(sc.peers) != 0 {
		t.Errorf("standalone config = %+v", sc)
	}

	sc, err = parseServe("-serve", "-hub", "h", "-peers", "a=x:1,b=y:2", "-advertise", "h.example:7676",
		"-failover-after", "1s", "-leave")
	if err != nil {
		t.Fatal(err)
	}
	if sc.hubID != "h" || len(sc.peers) != 2 || sc.peers[0].ID != "a" || sc.peers[1].ID != "b" ||
		sc.advertise != "h.example:7676" || sc.failoverAfter != time.Second ||
		!sc.leave {
		t.Errorf("federated config = %+v", sc)
	}

	sc, err = parseServe("-serve", "-auth-key", "k", "-tenant-threshold", "beta=3")
	if err != nil || sc.verifier == nil || sc.tenantThresholds["beta"] != 3 {
		t.Errorf("auth config = %+v, %v", sc, err)
	}

	for _, tc := range []struct {
		want string
		args []string
	}{
		{"-tls-cert/-tls-key", []string{"-serve", "-tls-ca", "ca.pem"}},
		{"-hub", []string{"-serve", "-peers", "a=x:1"}},
		{"id=addr", []string{"-serve", "-hub", "h", "-peers", "nonsense"}},
	} {
		if _, err := parseServe(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: want an error naming %s, got %v", tc.args, tc.want, err)
		}
	}
}

// TestImmunitydServeAndClientMode is the daemon loop end to end:
// boot the daemon (TCP exchange + durable provenance + HTTP /status),
// run the fleet workload against it over real sockets, and assert
// through /status that confirm-before-arm gating held.
func TestImmunitydServeAndClientMode(t *testing.T) {
	const threshold = 2
	prov := filepath.Join(t.TempDir(), "fleet.prov")
	d := serve(t, "-threshold", strconv.Itoa(threshold), "-provenance", prov)

	fleet := workload.FleetImmunity(3, 2, threshold)
	fleet.Timeout, fleet.Dial = 30*time.Second, d.Addr()
	res, err := fleet.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteArmedBeforeThreshold != 0 {
		t.Errorf("%d remote procs armed below threshold", res.RemoteArmedBeforeThreshold)
	}
	if len(res.Provenance) != 1 || !res.Provenance[0].Armed {
		t.Fatalf("client-mode provenance: %+v", res.Provenance)
	}

	// The HTTP endpoint tells the same story: exactly one armed
	// signature, with exactly threshold confirmations, and nothing armed
	// below it.
	body := httpGet(t, d.HTTPAddr(), "/status")
	var st wire.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Threshold != threshold {
		t.Fatalf("/status = %+v, want epoch 1 at threshold %d", st, threshold)
	}
	armed := 0
	for _, p := range st.Provenance {
		if p.Armed {
			armed++
			if p.Confirmations != threshold {
				t.Errorf("armed with %d confirmations, want exactly %d: %+v", p.Confirmations, threshold, p)
			}
		} else if p.Confirmations >= threshold {
			t.Errorf("unarmed at %d confirmations, threshold %d: %+v", p.Confirmations, threshold, p)
		}
	}
	if armed != 1 {
		t.Fatalf("/status reports %d armed signatures, want 1", armed)
	}
	// The page's field names are the Status family's JSON tags, and the
	// armed signature's fields round-trip through them unchanged.
	var raw struct {
		Provenance []map[string]json.RawMessage `json:"provenance"`
	}
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	hubProv := d.hub.Status().Provenance
	for i, p := range st.Provenance {
		if !p.Armed {
			continue
		}
		if !reflect.DeepEqual(p, hubProv[i]) {
			t.Errorf("/status armed signature %+v, the hub holds %+v", p, hubProv[i])
		}
		for _, name := range []string{"key", "kind", "first_seen", "confirmations", "confirmed_by", "armed"} {
			if _, ok := raw.Provenance[i][name]; !ok {
				t.Errorf("/status armed signature has no %q field: %s", name, body)
			}
		}
	}

	// Daemon restart over the same provenance file resumes armed state.
	d.Close()
	d2 := serve(t, "-threshold", strconv.Itoa(threshold), "-provenance", prov)
	if st := d2.hub.Status(); st.Epoch != 1 || len(st.Provenance) != 1 || !st.Provenance[0].Armed {
		t.Fatalf("restarted daemon status = %+v, want the armed signature back", st)
	}
}

// TestImmunitydTLSAuthServe: the authenticated daemon end to end using
// the CLI's own material — a -gen-ca/-gen-cert dev CA on disk, the hub
// serving TLS with token auth and a per-tenant threshold, the fleet
// workload connecting over TLS with a minted token, a token-less client
// refused, and the tenant view visible in a TLS status probe.
func TestImmunitydTLSAuthServe(t *testing.T) {
	dir := t.TempDir()
	if err := runGenTLS(dir, "hub0", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := tls.LoadX509KeyPair(filepath.Join(dir, "hub0.pem"), filepath.Join(dir, "hub0-key.pem")); err != nil {
		t.Fatalf("generated keypair unusable: %v", err)
	}
	pool, err := loadCertPool(filepath.Join(dir, "ca.pem"))
	if err != nil {
		t.Fatal(err)
	}
	const key = "daemon-test-key"
	d := serve(t, "-threshold", "2", "-auth-key", key, "-tenant-threshold", "beta=3",
		"-tls-cert", filepath.Join(dir, "hub0.pem"), "-tls-key", filepath.Join(dir, "hub0-key.pem"),
		"-tls-ca", filepath.Join(dir, "ca.pem"))

	clientTLS := auth.ClientConfig(pool, "")
	token, err := auth.Mint([]byte(key), auth.Claims{Tenant: "alpha", Device: auth.WildcardDevice})
	if err != nil {
		t.Fatal(err)
	}
	alpha := workload.FleetImmunity(3, 2, 2)
	alpha.Timeout, alpha.Dial, alpha.Token, alpha.TLS = 30*time.Second, d.Addr(), token, clientTLS
	res, err := alpha.Run()
	if err != nil {
		t.Fatalf("authenticated client workload: %v", err)
	}
	if res.RemoteArmedBeforeThreshold != 0 {
		t.Errorf("%d remote procs armed below threshold", res.RemoteArmedBeforeThreshold)
	}
	if len(res.Provenance) != 1 || !res.Provenance[0].Armed || res.Provenance[0].Tenant != "alpha" {
		t.Fatalf("authenticated provenance: %+v", res.Provenance)
	}

	// A second run against the same daemon finds the scenario's signature
	// already armed under its tenant-prefixed key and says so up front.
	again := alpha
	again.Timeout = 5 * time.Second
	if _, err := again.Run(); err == nil || !strings.Contains(err.Error(), "already has this scenario's signature armed") {
		t.Fatalf("rerun against an armed tenant: want the stale-state error, got %v", err)
	}
	// Another tenant's run is not stale state: its phones never receive
	// alpha's arming, so the scenario runs and arms at beta's threshold.
	betaToken, err := auth.Mint([]byte(key), auth.Claims{Tenant: "beta", Device: auth.WildcardDevice})
	if err != nil {
		t.Fatal(err)
	}
	beta := workload.FleetImmunity(3, 2, 3)
	beta.Timeout, beta.Dial, beta.Token, beta.TLS = 30*time.Second, d.Addr(), betaToken, clientTLS
	if res, err := beta.Run(); err != nil || res.RemoteArmedBeforeThreshold != 0 {
		t.Fatalf("second tenant on the same daemon: %v (%d remote procs armed below threshold)", err, res.RemoteArmedBeforeThreshold)
	}

	// A token-less client is refused before it can report anything.
	noToken := alpha
	noToken.Token = ""
	noToken.Timeout = 10 * time.Second
	if _, err := noToken.Run(); err == nil {
		t.Fatal("token-less client completed against an auth-required daemon")
	}

	// The status probe over TLS shows the tenant view: alpha's armed
	// signature under the default threshold, nothing leaked elsewhere.
	st, err := immunity.FetchStatus(d.Addr(), 5*time.Second, immunity.WithDialTLS(clientTLS))
	if err != nil {
		t.Fatal(err)
	}
	var alphaSeen bool
	for _, ts := range st.Tenants {
		if ts.Tenant != "alpha" {
			continue
		}
		alphaSeen = true
		if ts.Armed != 1 || ts.Threshold != 2 {
			t.Fatalf("alpha tenant status = %+v, want 1 armed at threshold 2", ts)
		}
	}
	if !alphaSeen {
		t.Fatalf("tenant view missing alpha: %+v", st.Tenants)
	}
}

// TestImmunitydAuthFlagValidation: the auth flag surface fails closed.
func TestImmunitydAuthFlagValidation(t *testing.T) {
	if err := run([]string{"-mint-token"}); err == nil {
		t.Error("-mint-token without -auth-key must fail")
	}
	if err := run([]string{"-tls-ca", "nope.pem"}); err == nil {
		t.Error("-tls-ca without -serve must fail")
	}
	if err := run([]string{"-serve", "-tls-cert", "c.pem"}); err == nil {
		t.Error("-tls-cert without -tls-key must fail")
	}
	if err := run([]string{"-serve", "-auth-key", "k", "-auth-keyring", "f"}); err == nil {
		t.Error("-auth-key with -auth-keyring must fail")
	}
	if err := run([]string{"-auth-key", "k", "-gen-cert", "leaf"}); err == nil {
		t.Error("-auth-key outside -serve and -mint-token must fail")
	}
	if _, err := parseTenantThresholds("beta=0"); err == nil {
		t.Error("zero tenant threshold must fail")
	}
	if _, err := parseTenantThresholds("=2"); err == nil {
		t.Error("empty tenant name must fail")
	}
	m, err := parseTenantThresholds("alpha=2, beta=3")
	if err != nil || m["alpha"] != 2 || m["beta"] != 3 {
		t.Errorf("parseTenantThresholds = %v, %v", m, err)
	}
}

// TestImmunitydFederatedCluster boots three serve-mode hubs federated
// via -peers in the test process, runs the fleet workload against two
// different hubs, and asserts through each hub's status that arming was
// gated at the owner and propagated cluster-wide.
func TestImmunitydFederatedCluster(t *testing.T) {
	const threshold = 2
	addrs := freePorts(t, 3)
	daemons := make([]*daemon, 3)
	ids := make([]string, 3)
	for i := range daemons {
		ids[i] = hubID(i)
		daemons[i] = serve(t, "-hub", ids[i], "-listen", addrs[i], "-threshold", strconv.Itoa(threshold), "-peers", peersOf(addrs, i))
	}

	fleet := workload.FleetImmunity(4, 2, threshold)
	fleet.Timeout, fleet.Dial = 30*time.Second, addrs[0]+","+addrs[1] // phones split across two hubs
	res, err := fleet.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteArmedBeforeThreshold != 0 {
		t.Errorf("%d remote procs armed below threshold", res.RemoteArmedBeforeThreshold)
	}
	if len(res.Provenance) != 1 || !res.Provenance[0].Armed || res.Provenance[0].Confirmations != threshold {
		t.Fatalf("client-mode cluster provenance: %+v", res.Provenance)
	}

	// The workload only observes the two dialed hubs; the third hears
	// about the arming asynchronously over the peer protocol.
	waitFor(t, 10*time.Second, "the arming on every hub", func() error {
		for i, d := range daemons {
			if e := d.hub.Status().Epoch; e != 1 {
				return fmt.Errorf("%s epoch = %d, want 1 (arming not propagated cluster-wide)", ids[i], e)
			}
		}
		return nil
	})

	// Every hub installed the arming; exactly one hub — the owner —
	// holds the confirmation set, everyone else a replicated record.
	ownersWithConfirms := 0
	for i, d := range daemons {
		st := d.hub.Status()
		if st.Hub != ids[i] || st.Threshold != threshold || st.Cluster == nil || !reflect.DeepEqual(st.Cluster.Members, ids) {
			t.Fatalf("%s status missing cluster fields: %+v", ids[i], st)
		}
		if len(st.Provenance) != 1 || !st.Provenance[0].Armed {
			t.Fatalf("%s provenance = %+v, want the armed signature", ids[i], st.Provenance)
		}
		p := st.Provenance[0]
		if p.Key != res.Provenance[0].Key {
			t.Fatalf("%s armed %q, the workload armed %q", ids[i], p.Key, res.Provenance[0].Key)
		}
		if p.Owner == ids[i] {
			if len(p.ConfirmedBy) != threshold {
				t.Fatalf("owner %s confirmation set = %v, want %d devices", ids[i], p.ConfirmedBy, threshold)
			}
			ownersWithConfirms++
		} else if len(p.ConfirmedBy) != 0 {
			t.Fatalf("non-owner %s replicated the confirmation set: %v", ids[i], p.ConfirmedBy)
		}
	}
	if ownersWithConfirms != 1 {
		t.Fatalf("%d hubs claim ownership, want exactly 1", ownersWithConfirms)
	}

	// Every hub of the topology serves /metrics: the hub counters, the
	// push-path histograms, and the per-peer cluster link series.
	for i, d := range daemons {
		page := httpGet(t, d.HTTPAddr(), "/metrics")
		for _, series := range []string{
			"immunity_hub_reports_total", "immunity_hub_armed_total 1",
			"# TYPE immunity_hub_push_batch_size histogram",
			"immunity_cluster_peer_dials_total", "immunity_cluster_forward_pending",
		} {
			if !strings.Contains(page, series) {
				t.Errorf("%s /metrics missing %q", ids[i], series)
			}
		}
	}
}

// p99Bucket is the upper bound of the bucket holding the 99th
// percentile of a histogram family on a /metrics page.
func p99Bucket(t *testing.T, page, family string) float64 {
	t.Helper()
	buckets := regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(family)+`_bucket\{le="([^"]+)"\} ([0-9]+)$`).FindAllStringSubmatch(page, -1)
	total := mustSample(t, page, family+"_count")
	for _, b := range buckets { // rendered in ascending le order, +Inf last
		if n, _ := strconv.ParseFloat(b[2], 64); n >= 0.99*total {
			le, _ := strconv.ParseFloat(b[1], 64) // "+Inf" parses as +Inf
			return le
		}
	}
	t.Fatalf("/metrics has no buckets for %s:\n%s", family, page)
	return 0
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestImmunitydAdmissionFlood is admission's row: 16 devices flood a
// daemon over TCP with 64 signatures, paced for 700ms and then in
// full-set batches back to back for 900ms. The fixed 8-permit pool must
// make flood reports wait (delayed, bounded backpressure), shed
// nothing, lose no session — a storm device never redials, so a session
// the hub dropped fails its next send and the run — and keep the
// device-visible p99 report latency within 250ms outside the race
// detector, while every signature still arms. It shows the pool at
// work; what the hub suffers without it is a real-clock measurement
// (CHANGES.md), not a test.
func TestImmunitydAdmissionFlood(t *testing.T) {
	d := serve(t, "-threshold", "2")
	boot := httpGet(t, d.HTTPAddr(), "/metrics")
	if n := mustSample(t, boot, "immunity_hub_admission_capacity"); n != 8 {
		t.Errorf("admission capacity at boot = %v, want 8", n)
	}

	storm := workload.ReportStorm(16, 64, 700*time.Millisecond, 900*time.Millisecond)
	storm.Timeout, storm.Dial = 60*time.Second, d.Addr()
	res, err := storm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Armed < 64 {
		t.Fatalf("armed %d/64 — the flood lost signatures", res.Armed)
	}

	page := httpGet(t, d.HTTPAddr(), "/metrics")
	if n := mustSample(t, page, "immunity_hub_admission_delayed_total"); n == 0 {
		t.Error("the flood delayed nothing — admission is not engaging")
	}
	if n := mustSample(t, page, "immunity_hub_admission_shed_total"); n != 0 {
		t.Errorf("shed = %v under a 5s wait", n)
	}
	if n := mustSample(t, page, "immunity_hub_admission_capacity"); n != 8 {
		t.Errorf("admission capacity = %v after the flood, want 8", n)
	}
	// The latency bound holds for a plain build only: the wait-included
	// p99 grows with sessions × per-batch handling time, and the race
	// detector multiplies the handling time (a 1-P -race run reads up to
	// 0.5s).
	p99 := p99Bucket(t, page, "immunity_hub_report_seconds")
	t.Logf("report p99 bucket %vs, %v delayed", p99, mustSample(t, page, "immunity_hub_admission_delayed_total"))
	if p99 > 0.25 && !raceBuild() {
		t.Errorf("report p99 bucket = %vs under the flood, want <= 0.25s", p99)
	}
	if n := mustSample(t, page, "immunity_hub_uptime_seconds"); n <= 0 {
		t.Errorf("uptime gauge = %v, want > 0", n)
	}
	mustSample(t, page, "immunity_hub_admission_admitted_total")
	mustSample(t, page, "immunity_hub_admission_in_use")
	for _, series := range []string{`immunity_build_info{version=`, "# TYPE immunity_hub_report_handle_seconds histogram"} {
		if !strings.Contains(page, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	if strings.Contains(page, "_per_second") || strings.Contains(page, "immunity_slo_") {
		t.Error("/metrics publishes rate gauges or SLO verdicts; a scraper derives them from the counters and histograms")
	}

	var st map[string]json.RawMessage
	if err := json.Unmarshal([]byte(httpGet(t, d.HTTPAddr(), "/status")), &st); err != nil {
		t.Fatalf("/status decode: %v", err)
	}
	if _, ok := st["rates"]; ok {
		t.Error("/status carries a rates object")
	}
}

// TestImmunitydMetricsAndStorm: a daemon absorbs a multi-device report
// burst — every signature still arms, nothing is shed, and /metrics
// shows the sessions torn down.
func TestImmunitydMetricsAndStorm(t *testing.T) {
	d := serve(t, "-threshold", "2")

	storm := workload.ReportStorm(6, 16, 0, 0)
	storm.Timeout, storm.Dial = 30*time.Second, d.Addr()
	res, err := storm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Armed < 16 {
		t.Fatalf("armed %d/16 — the storm lost signatures", res.Armed)
	}

	// The storm's sessions close before Run returns, but the
	// hub notices a TCP hangup asynchronously — scrape until the session
	// gauge settles so the teardown accounting is asserted without racing
	// it.
	var page string
	waitFor(t, 10*time.Second, "every storm session to close", func() error {
		resp, err := http.Get("http://" + d.HTTPAddr() + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("/metrics content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		page = string(body)
		if n, _ := sample(page, "immunity_hub_device_sessions"); n != 0 {
			return fmt.Errorf("device_sessions = %v after all storm sessions closed, want 0", n)
		}
		return nil
	})
	if n := mustSample(t, page, "immunity_hub_armed_total"); n < 16 {
		t.Errorf("armed_total = %v, want >= 16", n)
	}
	if n := mustSample(t, page, "immunity_hub_admission_admitted_total"); n == 0 {
		t.Error("no report went through the admission pool")
	}
	if n := mustSample(t, page, "immunity_hub_admission_shed_total"); n != 0 {
		t.Errorf("shed = %v under a generous wait — arming completeness was luck", n)
	}
	mustSample(t, page, "immunity_hub_device_sessions")
	for _, series := range []string{
		"# TYPE immunity_hub_report_seconds histogram",
		"immunity_hub_reports_total",
		"immunity_hub_push_pending",
	} {
		if !strings.Contains(page, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}
