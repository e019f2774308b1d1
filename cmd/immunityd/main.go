// Command immunityd is the fleet immunity daemon. One invocation plays
// one of two roles: a hub (-serve), or a utility that mints trust
// material and exits (-gen-ca, -gen-cert, -mint-token). Drive a hub
// with go test -run Drill ./cmd/immunityd (real daemon processes,
// crashed mid-storm, handed off and meshed over mutual TLS) or with
// internal/workload's scenario rows (in-process federations; the
// FleetImmunity rows are the end-to-end fleet: phones detect, the hub
// arms, every phone installs). Every flag belongs to the modes
// flagModes lists for it; a flag given outside them is an error, never
// silently dropped.
//
// # The hub: -serve
//
// A long-running hub: the signature exchange served over TCP
// (internal/immunity/wire), durable provenance in a file store so a
// restart loses no confirmation and never re-arms below threshold, and
// an HTTP server with two endpoints: /status (fleet epoch,
// per-signature provenance, connected devices, delta-batching counters,
// as JSON) and /metrics (the hub's whole instrument registry,
// internal/immunity/metrics, in Prometheus text format).
//
// Admission control is always on. A fixed pool of 8 permits bounds the
// report path (device reports and peer forward-reports): an
// over-capacity message waits up to 5s (the device sees a slow ack; TCP
// sees backpressure), and a message still waiting then is shed —
// dropped without killing the session, recovered by the client's
// full-history re-report on its next reconnect. Without the pool a
// report flood grows the hub's heap several-fold and stretches its
// drain; the immunity_hub_admission_* series count every verdict.
// /metrics carries the report latency histograms (wait included and
// excluded) and the backlog gauges, so objectives over them are an
// external pager's to evaluate.
//
// With -hub and -peers the hub federates into a cluster
// (internal/immunity/cluster): each signature is owned by exactly one
// hub via a rendezvous ring over the member ids, non-owner hubs forward
// device reports to the owner, and the owner's armings are broadcast
// cluster-wide. Devices may attach to any hub. A 3-hub cluster on one
// machine:
//
//	immunityd -serve -hub hub0 -listen :7676 -http :7677 -peers hub1=localhost:7686,hub2=localhost:7696
//	immunityd -serve -hub hub1 -listen :7686 -http :7687 -peers hub0=localhost:7676,hub2=localhost:7696
//	immunityd -serve -hub hub2 -listen :7696 -http :7697 -peers hub0=localhost:7676,hub1=localhost:7686
//
// Membership is elastic: -peers is a seed, not the final roster — a
// joining hub may name a single existing member and learns the rest
// from membership snapshots, and every hub dials members it discovers
// at the address they advertise with -advertise (defaults to -listen;
// set it explicitly when -listen is a wildcard). With -failover-after D
// each hub runs a SWIM-style failure detector over its peer links
// (direct pings, then indirect ping-reqs, then a suspicion window, all
// derived from D), a condemned member's keys fail over to their
// deputies, and arming authority is a quorum lease whose lifetime also
// derives from D: the minority side of a partition parks its threshold
// crossings until the heal instead of arming a double. Without
// -failover-after ownership never moves and only a key's owner arms it.
// -leave hands the owned slice off and drains the outboxes on shutdown.
// /status shows the membership ring and the peer links;
// /status?owner=KEY answers which hub owns — and which is deputy for —
// a signature key.
//
// The trust fabric is opt-in per hub. -tls-cert/-tls-key serve the
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
// views.
//
// # The utilities
//
//	immunityd -gen-ca DIR                          # fleet CA → DIR/ca.pem + DIR/ca-key.pem
//	immunityd -gen-cert NAME -ca DIR [-hosts ...]  # leaf → DIR/NAME.pem + DIR/NAME-key.pem
//	immunityd -mint-token -auth-key K [-tenant T] [-device D] [-ttl D]
//
// Usage:
//
//	immunityd -serve [-listen ADDR] [-http ADDR] [-threshold N] [-provenance FILE] [-tls-cert F -tls-key F [-tls-ca F]] [-auth-key K | -auth-keyring F] [-tenant-threshold T=N,...] [-hub ID -peers ID=ADDR,... [-advertise ADDR] [-failover-after D] [-leave]]
//	immunityd -gen-ca DIR | -gen-cert NAME -ca DIR [-hosts H,...] | -mint-token -auth-key K [-tenant T] [-device D] [-ttl D]
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
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "immunityd:", err)
		os.Exit(1)
	}
}

// mode is what one immunityd invocation does.
type mode uint

const (
	modeServe     mode = 1 << iota // a standalone hub
	modeFederated                  // a hub federated into a cluster
	modeGen                        // mint TLS material and exit
	modeMint                       // mint a bearer token and exit

	anyServe = modeServe | modeFederated
)

// modeNames spells each mode, in bit order, as the flags that select it.
var modeNames = [...]string{"-serve", "-serve -peers", "-gen-ca/-gen-cert", "-mint-token"}

func (m mode) String() string {
	var names []string
	for i, name := range modeNames {
		if m&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	if names == nil {
		return "none"
	}
	return strings.Join(names, ", ")
}

// flagModes is the one rule for which flag goes with which mode: run
// walks the flags actually set against it once the mode is known, so a
// flag outside its modes is an error by construction. Every registered
// flag has an entry (TestImmunitydFlagModes enforces it).
var flagModes = func() map[string]mode {
	t := make(map[string]mode)
	for m, flags := range map[mode]string{
		anyServe | modeMint: "auth-key",
		anyServe:            "serve listen http provenance threshold tls-cert tls-key tls-ca auth-keyring tenant-threshold",
		modeFederated:       "peers hub advertise failover-after leave",
		modeGen:             "gen-ca gen-cert ca hosts",
		modeMint:            "mint-token tenant device ttl",
	} {
		for _, name := range strings.Fields(flags) {
			t[name] |= m
		}
	}
	return t
}()

// cli holds every flag's parsed value.
type cli struct {
	// The hub: sc receives the serve flags that need no translation,
	// serveConfigFromFlags parses the raw strings beside it.
	sc                                                    serveConfig
	serve                                                 bool
	peers                                                 string
	tlsCert, tlsKey, tlsCA, authKeyring, tenantThresholds string
	// The utilities.
	mintToken                                    bool
	genCA, genCert, caDir, hosts, tenant, device string
	ttl                                          time.Duration
	// Shared by the hub and -mint-token.
	authKey string
}

// newFlags registers the whole flag surface.
func newFlags() (*flag.FlagSet, *cli) {
	fs := flag.NewFlagSet("immunityd", flag.ContinueOnError)
	c := new(cli)
	fs.BoolVar(&c.serve, "serve", false, "run as a long-lived hub")
	fs.StringVar(&c.sc.listen, "listen", "127.0.0.1:7676", "TCP listen address for the exchange wire protocol")
	fs.StringVar(&c.sc.httpAddr, "http", "127.0.0.1:7677", "HTTP listen address for /status and /metrics (empty disables)")
	fs.StringVar(&c.sc.provenance, "provenance", "", "provenance store file (empty keeps fleet state in memory only)")
	fs.IntVar(&c.sc.threshold, "threshold", 2, "distinct devices that must confirm a signature before fleet-wide arming")
	fs.StringVar(&c.sc.hubID, "hub", "", "this hub's cluster id (required with -peers)")
	fs.StringVar(&c.peers, "peers", "", "comma-separated id=addr peer hubs to federate with (a seed — a joining hub may name a single existing member and learns the rest)")
	fs.StringVar(&c.sc.advertise, "advertise", "", "the address other members dial this hub at (default: the -listen address)")
	fs.DurationVar(&c.sc.failoverAfter, "failover-after", 0, "failure-detection budget: declare a member dead once direct and indirect probes have not reached it for about this long, and fail its keys over to deputies; arming then needs a quorum lease (0 disables both: only a key's owner arms it)")
	fs.BoolVar(&c.sc.leave, "leave", false, "leave the membership gracefully on shutdown (hand off owned keys, drain outboxes)")
	fs.StringVar(&c.tlsCert, "tls-cert", "", "serve the exchange listener under TLS with this certificate (PEM; requires -tls-key)")
	fs.StringVar(&c.tlsKey, "tls-key", "", "the TLS certificate's private key (PEM)")
	fs.StringVar(&c.tlsCA, "tls-ca", "", "trust anchors (PEM) the hub verifies peer-hub client certificates and outbound peer dials with (mutual TLS; requires -tls-cert/-tls-key)")
	fs.StringVar(&c.authKey, "auth-key", "", "require token-authenticated hellos, verified under this static HMAC key (also the signing key for -mint-token)")
	fs.StringVar(&c.authKeyring, "auth-keyring", "", "require token-authenticated hellos, verified against this kid:key keyring file")
	fs.StringVar(&c.tenantThresholds, "tenant-threshold", "", "per-tenant confirm thresholds as tenant=N[,tenant=N...] (unlisted tenants use -threshold)")
	fs.StringVar(&c.genCA, "gen-ca", "", "mint a dev fleet CA into this directory (ca.pem + ca-key.pem) and exit")
	fs.StringVar(&c.genCert, "gen-cert", "", "issue a leaf certificate with this name (the mutual-TLS peer identity) under the CA in -ca, writing NAME.pem + NAME-key.pem beside it, and exit")
	fs.StringVar(&c.caDir, "ca", "", "directory holding ca.pem + ca-key.pem (as written by -gen-ca; defaults to the -gen-ca directory when both are given)")
	fs.StringVar(&c.hosts, "hosts", "", "comma-separated SAN hosts/IPs (default 127.0.0.1,::1,localhost)")
	fs.BoolVar(&c.mintToken, "mint-token", false, "mint a device bearer token signed by -auth-key and exit (claims from -tenant, -device, -ttl)")
	fs.StringVar(&c.tenant, "tenant", "", "the token's tenant claim (empty = the default tenant)")
	fs.StringVar(&c.device, "device", "*", "the token's device claim ('*' = any device in the tenant)")
	fs.DurationVar(&c.ttl, "ttl", 0, "token lifetime (0 = never expires)")
	return fs, c
}

// selectMode reads the mode off the selector flags.
func (c *cli) selectMode() mode {
	switch {
	case c.genCA != "" || c.genCert != "":
		return modeGen
	case c.mintToken:
		return modeMint
	case c.serve && c.peers != "":
		return modeFederated
	case c.serve:
		return modeServe
	}
	return 0
}

// checkFlagModes rejects the first flag set on the command line that
// flagModes does not list under m.
func checkFlagModes(fs *flag.FlagSet, m mode) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if err == nil && flagModes[f.Name]&m == 0 {
			err = fmt.Errorf("-%s does not apply here (mode: %s; it applies to: %s)", f.Name, m, flagModes[f.Name])
		}
	})
	return err
}

const modesHelp = `immunityd runs in one mode per invocation:
  -serve [-hub ID -peers ID=ADDR,...]   a hub: TCP exchange, provenance file, /status /metrics
  -gen-ca DIR | -gen-cert NAME -ca DIR  mint a dev fleet CA / a leaf certificate and exit
  -mint-token -auth-key K               mint a device bearer token and exit
Drive a hub with go test -run Drill ./cmd/immunityd (real daemon
processes) or go test ./internal/workload (in-process chaos, partition,
storm); the smallest end-to-end fleet is go test -run FleetImmunity
./internal/workload ; -h lists every flag.
`

func run(args []string) error {
	c, m, err := parseArgs(args)
	if err != nil {
		return err
	}
	switch m {
	case 0:
		fmt.Print(modesHelp)
		return nil
	case modeGen:
		return runGenTLS(c.genCA, c.genCert, c.caDir, c.hosts)
	case modeMint:
		return runMintToken(c.authKey, c.tenant, c.device, c.ttl)
	}
	sc, err := serveConfigFromFlags(c)
	if err != nil {
		return err
	}
	return runServe(sc)
}

// parseArgs parses a command line, reads the mode off it and refuses
// every flag set outside that mode. A bare command line is mode 0, the
// help; any flag without a mode is refused.
func parseArgs(args []string) (*cli, mode, error) {
	fs, c := newFlags()
	if err := fs.Parse(args); err != nil {
		return nil, 0, err
	}
	m := c.selectMode()
	return c, m, checkFlagModes(fs, m)
}

// serveConfigFromFlags translates the serve-mode flags into a
// serveConfig. It loads the key material the flags name but listens on
// nothing and starts nothing. The checks here are value dependencies
// between flags; which flag goes with which mode is checkFlagModes' job.
func serveConfigFromFlags(c *cli) (serveConfig, error) {
	sc := c.sc
	if sc.advertise == "" {
		sc.advertise = sc.listen
	}
	var err error
	// Auth and TLS material come first: peer transports are built from
	// the seed below and must dial with the hub's certificate when the
	// cluster runs mutual TLS.
	switch {
	case c.authKey != "" && c.authKeyring != "":
		return sc, fmt.Errorf("-auth-key and -auth-keyring are mutually exclusive")
	case c.authKey != "":
		sc.verifier = auth.NewStatic([]byte(c.authKey))
	case c.authKeyring != "":
		if sc.verifier, err = auth.LoadKeyring(c.authKeyring); err != nil {
			return sc, err
		}
	}
	if c.tlsCert != "" || c.tlsKey != "" {
		if c.tlsCert == "" || c.tlsKey == "" {
			return sc, fmt.Errorf("-tls-cert and -tls-key go together")
		}
		cert, err := tls.LoadX509KeyPair(c.tlsCert, c.tlsKey)
		if err != nil {
			return sc, fmt.Errorf("tls keypair: %w", err)
		}
		var pool *x509.CertPool
		if c.tlsCA != "" {
			if pool, err = loadCertPool(c.tlsCA); err != nil {
				return sc, err
			}
		}
		sc.serveTLS = auth.ServerConfig(cert, pool)
		if pool != nil {
			// Mutual TLS material is complete: outbound peer links dial
			// with the hub's own certificate, and inbound peer-hellos
			// must carry a fleet-CA certificate naming the claimed hub.
			sc.peerDial = []immunity.TCPOption{immunity.WithDialTLS(auth.PeerConfig(cert, pool, ""))}
			sc.peerAuth = true
		}
	} else if c.tlsCA != "" {
		return sc, fmt.Errorf("-tls-ca requires -tls-cert/-tls-key (the hub's own certificate)")
	}
	if sc.peers, err = parsePeers(c.peers, sc.peerDial...); err != nil {
		return sc, err
	}
	if len(sc.peers) > 0 && sc.hubID == "" {
		return sc, fmt.Errorf("-peers requires -hub (this hub's cluster id)")
	}
	if sc.tenantThresholds, err = parseTenantThresholds(c.tenantThresholds); err != nil {
		return sc, err
	}
	return sc, nil
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
	hub     *immunity.Exchange
	node    *cluster.Node
	srv     *immunity.ExchangeServer
	httpSrv *http.Server
	httpLn  net.Listener
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
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	if d.node != nil {
		d.node.Close()
	}
	d.srv.Close()
	d.hub.Close()
}

// serveConfig carries everything serve mode needs. It is built only by
// serveConfigFromFlags, so every field holds a value the flags gave it.
type serveConfig struct {
	listen, httpAddr string
	threshold        int
	provenance       string
	hubID            string
	peers            []cluster.Member
	advertise        string
	failoverAfter    time.Duration
	leave            bool
	serveTLS         *tls.Config
	peerDial         []immunity.TCPOption
	peerAuth         bool
	verifier         auth.Verifier
	tenantThresholds map[string]int
}

// buildVersion is the version label on the immunity_build_info gauge.
const buildVersion = "0.10.0"

// admitWait is how long an over-capacity report waits for an admission
// permit before it is shed: well under the 30s wire write timeout, so a
// delayed session's unread pushes cannot kill it first.
const admitWait = 5 * time.Second

// startDaemon boots the exchange server, the optional cluster node, and
// the /status + /metrics endpoints. One registry is shared by the hub,
// the cluster links and the provenance store, so /metrics is the whole
// daemon on one page.
func startDaemon(sc serveConfig) (*daemon, error) {
	reg := metrics.NewRegistry()
	reg.Info("immunity_build_info", "Build and protocol metadata (value is always 1).",
		[2]string{"version", buildVersion},
		[2]string{"wire_min", strconv.Itoa(wire.MinVersion)},
		[2]string{"wire_max", strconv.Itoa(wire.Version)})
	uptime := reg.FloatGauge("immunity_hub_uptime_seconds", "Seconds since daemon start.")
	started := time.Now()

	opts := []immunity.ExchangeOption{immunity.WithMetricsRegistry(reg), immunity.WithAdmission(admitWait)}
	if sc.provenance != "" {
		opts = append(opts, immunity.WithProvenanceStore(immunity.NewFileProvenance(sc.provenance,
			immunity.WithCompactionCounters(
				reg.Counter("immunity_provenance_compactions_total", "Provenance log compactions."),
				reg.Counter("immunity_provenance_compact_errors_total", "Failed provenance log compactions.")))))
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
	if len(sc.peers) > 0 {
		// Federate before the listener is up: the ring must be bound
		// before the first device report or inbound peer-hello arrives.
		// Resolve lets the node dial members it did not start with — a
		// joiner admitted from its peer-hello, a member learned from a
		// membership snapshot — at the address they advertise.
		node, err = cluster.New(cluster.Config{
			Self: sc.hubID, SelfAddr: sc.advertise, Hub: hub, Peers: sc.peers,
			Resolve: func(m wire.MemberInfo) immunity.Transport {
				if m.Addr == "" {
					return nil
				}
				return immunity.NewTCPTransport(m.Addr, sc.peerDial...)
			},
			FailoverAfter: sc.failoverAfter,
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
	d := &daemon{hub: hub, node: node, srv: srv}
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
			p := statusPayload{Status: hub.Status()}
			if node != nil {
				p.Links = node.Status()
			}
			writeJSON(w, p)
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			uptime.Set(time.Since(started).Seconds())
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
	return d, nil
}

// statusPayload is the /status document: the wire status (whose cluster
// section carries the membership ring with liveness and epoch) plus the
// node's peer-link states.
type statusPayload struct {
	wire.Status
	Links []cluster.PeerStatus `json:"links,omitempty"`
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
	fmt.Printf(", bounded admission, max wait %s)\n", admitWait)
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
	if d.node != nil {
		fmt.Printf("immunityd: cluster hub %s federating with %d seed peer(s): %s\n",
			sc.hubID, len(sc.peers), strings.Join(d.node.Ring().Members(), " "))
		fmt.Printf("immunityd: membership epoch %d, advertising %s", d.node.Epoch(), sc.advertise)
		if sc.failoverAfter > 0 {
			fmt.Printf(", failover after %s, probe detection + quorum lease on", sc.failoverAfter)
		}
		fmt.Println()
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
