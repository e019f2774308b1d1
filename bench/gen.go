package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// Workload sizes. They are constants, not flags: the same seed must
// give the same op counts on every run, and the committed numbers are
// only comparable at one size.
const (
	syncThreads   = 2        // phone-sync generator threads
	syncOps       = 150000   // synchronized blocks per thread per round
	syncLocks     = 64       // lock objects, split evenly between the threads
	syncSites     = 16       // synchronization statements
	syncArmed     = 4        // sites named by the synthetic history
	syncHistory   = 128      // never-instantiable synthetic signatures
	ingestSigs    = 4000     // fresh signatures per hub-ingest round
	ingestWindow  = 32       // reports in flight per device
	ingestObs     = 30       // passive observer sessions
	recoverSigs   = 1000     // armed signatures in the seeded provenance log
	recoverDevs   = 8        // devices that catch up per restart cycle
	fleetOps      = 500      // publish→install ops per fleet-immunity round
	defaultSeed   = 20110627 // DSN 2011; recorded in BENCHMARK.json's workload notes
	classPoolSize = 200
)

var (
	genPackages = []string{
		"android.app", "android.os", "android.view", "android.content", "android.net",
		"com.android.server", "com.android.server.am", "com.android.server.wm",
		"com.android.internal.policy", "com.android.systemui.statusbar",
	}
	genClasses = []string{
		"ActivityManagerService", "WindowManagerService", "NotificationManagerService",
		"StatusBarService", "PowerManagerService", "PackageManagerService", "InputDispatcher",
		"Looper", "Handler", "MessageQueue", "Binder", "ContentResolver", "BroadcastQueue",
		"ActivityStack", "ViewRoot", "SurfaceSession", "ConnectivityService", "WifiStateMachine",
		"LocationManagerService", "AudioService",
	}
	genMethods = []string{
		"handleMessage", "dispatchMessage", "enqueueNotificationInternal", "updateNotification",
		"cancelNotification", "onTransact", "startActivityLocked", "resumeTopActivityLocked",
		"performLayoutAndPlaceSurfacesLocked", "relayoutWindow", "addWindow", "removeWindow",
		"acquireWakeLock", "releaseWakeLock", "userActivity", "goToSleep", "setScreenState",
		"broadcastIntentLocked", "processNextBroadcast", "scheduleReceiver", "bindService",
		"publishContentProviders", "attachApplicationLocked", "updateOomAdjLocked",
		"notifyChange", "registerContentObserver", "sendMessageAtTime", "next", "quit",
		"dispatchTouchEvent", "performTraversals", "scheduleTraversals", "setWifiEnabled",
		"handleConnectivityChange", "reportLocation", "setStreamVolume", "adjustVolume",
		"systemReady", "run", "doFrame",
	}
)

// generator draws frames and signatures from one seeded stream. Every
// signature it hands out has a distinct key: the first pair's outer
// frame carries a line number no other signature of this generator
// uses.
type generator struct {
	rng     *rand.Rand
	classes []string
	nextSig int
}

func newGenerator(seed int64) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed))}
	g.classes = make([]string, 0, classPoolSize)
	for _, p := range genPackages {
		for _, c := range genClasses {
			g.classes = append(g.classes, p+"."+c)
		}
	}
	g.rng.Shuffle(len(g.classes), func(i, j int) { g.classes[i], g.classes[j] = g.classes[j], g.classes[i] })
	return g
}

func (g *generator) frame() core.Frame {
	return core.Frame{
		Class:  g.classes[g.rng.Intn(len(g.classes))],
		Method: genMethods[g.rng.Intn(len(genMethods))],
		Line:   1 + g.rng.Intn(4000),
	}
}

// innerStack is an informational inner call stack of 3–6 frames whose
// innermost frame is the given synchronization statement.
func (g *generator) innerStack(top core.Frame) core.CallStack {
	cs := core.CallStack{top}
	for n := 2 + g.rng.Intn(4); n > 0; n-- {
		cs = append(cs, g.frame())
	}
	return cs
}

// signature builds the next two-thread deadlock signature: outer depth
// 1, inner stacks of 3–6 frames.
func (g *generator) signature() *core.Signature {
	a, b := g.frame(), g.frame()
	g.nextSig++
	a.Line = 10000 + g.nextSig // the uniqueness guarantee
	return &core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
		{Outer: core.CallStack{a}, Inner: g.innerStack(a)},
		{Outer: core.CallStack{b}, Inner: g.innerStack(b)},
	}}
}

// sigSet is a batch of signatures in the three forms the layers take:
// the core value, its canonical wire form, and its canonical key.
type sigSet struct {
	sigs []*core.Signature
	ws   []wire.Signature
	keys []string
}

func (g *generator) sigSet(n int) sigSet {
	s := sigSet{
		sigs: make([]*core.Signature, n),
		ws:   make([]wire.Signature, n),
		keys: make([]string, n),
	}
	for i := range s.sigs {
		s.sigs[i] = g.signature()
		s.ws[i] = wire.FromCore(s.sigs[i])
		s.keys[i] = s.sigs[i].Key()
	}
	return s
}

// report wraps signature i as the one-signature report message a device
// sends at wire version v.
func (s sigSet) report(i, v int) wire.Message {
	return wire.Message{V: v, Type: wire.TypeReport, Report: &wire.Report{Sigs: s.ws[i : i+1]}}
}

// inputs is everything the four workloads feed the program under test.
// It is a pure function of the seed.
type inputs struct {
	seed int64
	gen  *generator // continues the stream for the layer calls' fresh keys

	// fleet holds the signatures of the three fleet workloads: hub-ingest
	// uses all of them, hub-recover the first recoverSigs, fleet-immunity
	// the first fleetOps.
	fleet sigSet
	// order is each hub-ingest device's report order over fleet.
	order [2][]int

	// phone-sync: the synchronization statements, the synthetic history
	// naming the first syncArmed of them, and each thread's op plan
	// (lock index in the high bits, site index in the low four).
	sites   []core.Frame
	history []*core.Signature
	plan    [syncThreads][]uint16
}

func generate(seed int64) *inputs {
	g := newGenerator(seed)
	in := &inputs{seed: seed, gen: g}
	in.fleet = g.sigSet(ingestSigs)
	for d := range in.order {
		in.order[d] = g.rng.Perm(ingestSigs)
	}

	in.sites = make([]core.Frame, syncSites)
	for i := range in.sites {
		in.sites[i] = g.frame()
		in.sites[i].Line = 5000 + i // distinct positions whatever the draw
	}
	// Each synthetic signature pairs one armed site with a position that
	// never executes, so matching runs on every acquisition at the armed
	// sites and no signature can ever be instantiated (the paper's §5
	// method).
	in.history = make([]*core.Signature, syncHistory)
	for i := range in.history {
		hot := in.sites[i%syncArmed]
		cold := g.frame()
		cold.Line = 20000 + i
		in.history[i] = &core.Signature{Kind: core.DeadlockSig, Pairs: []core.SigPair{
			{Outer: core.CallStack{hot}, Inner: g.innerStack(hot)},
			{Outer: core.CallStack{cold}, Inner: g.innerStack(cold)},
		}}
	}
	// Threads draw from disjoint halves of the lock pool: contention
	// would hide the interception cost, and a contended enter leaves the
	// fast path, which would make the fast-path ratio schedule-dependent.
	perThread := syncLocks / syncThreads
	for t := range in.plan {
		in.plan[t] = make([]uint16, syncOps)
		for k := range in.plan[t] {
			lock := t*perThread + g.rng.Intn(perThread)
			in.plan[t][k] = uint16(lock<<4 | k%syncSites)
		}
	}
	return in
}

// fingerprint hashes every generated input, so two generations can be
// compared byte for byte.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	for i, ws := range in.fleet.ws {
		fmt.Fprintf(h, "%s\n", in.fleet.keys[i])
		for _, p := range ws.Pairs {
			fmt.Fprintf(h, "%s>%s\n", p.Outer, p.Inner)
		}
	}
	fmt.Fprintln(h, in.order)
	fmt.Fprintln(h, in.sites)
	for _, s := range in.history {
		for _, p := range wire.FromCore(s).Pairs {
			fmt.Fprintf(h, "%s>%s\n", p.Outer, p.Inner)
		}
	}
	fmt.Fprintln(h, in.plan)
	return hex.EncodeToString(h.Sum(nil))
}
