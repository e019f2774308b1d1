package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// The isolated layer calls of the traced run: each times one layer's
// public function from outside, on a single goroutine unless the call
// itself crosses goroutines, and reports the median. Calls that take
// well under a microsecond are timed in batches, because one clock read
// would cost as much as the call; millisecond-scale calls are made a
// few dozen times, not two thousand, to keep the traced run inside its
// budget.

const (
	layerCalls   = 2000 // calls per microsecond-scale metric
	layerSlow    = 25   // calls per millisecond-scale metric
	layerBatches = 200  // batches per nanosecond-scale metric
	layerBatch   = 100  // calls per batch
	layerHistory = 500  // signatures a "loaded" core, bus or hub holds
)

// layerRun collects the per-layer metrics of one traced run.
type layerRun struct {
	in    *inputs
	tmp   string
	trial bool    // a twentieth of the calls
	tr    *tracer // one span per timed unit, tagged with its layer
	out   map[string]metric
}

// n scales a call count down in trial mode.
func (lr *layerRun) n(calls int) int {
	if lr.trial && calls >= 20 {
		return calls / 20
	}
	return calls
}

func (lr *layerRun) set(name string, v float64, unit string) { lr.out[name] = metric{v, unit} }

// each times every call on its own and returns the median in ns.
func (lr *layerRun) each(name, layer string, n int, fn func(i int)) float64 {
	ns := make([]float64, lr.n(n))
	for i := range ns {
		t0 := time.Now()
		fn(i)
		t1 := time.Now()
		ns[i] = float64(t1.Sub(t0))
		lr.tr.add(0, 0, name, layer, t0, t1)
	}
	return median(ns)
}

// batched times batches of calls and returns the median per-call ns.
func (lr *layerRun) batched(name, layer string, fn func()) float64 {
	ns := make([]float64, lr.n(layerBatches))
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < layerBatch; i++ {
			fn()
		}
		t1 := time.Now()
		ns[b] = float64(t1.Sub(t0)) / layerBatch
		lr.tr.add(0, 0, name, layer, t0, t1)
	}
	return median(ns)
}

// allocsPerCall counts heap allocations per call, the whole process's:
// work the call hands to another goroutine is charged to it.
func allocsPerCall(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// measureLayers runs every isolated layer call.
func measureLayers(in *inputs, cfg runConfig, tr *tracer) (map[string]metric, error) {
	lr := &layerRun{in: in, tmp: cfg.tmp, trial: cfg.trial(), tr: tr, out: make(map[string]metric)}
	for _, step := range []func() error{
		lr.coreLayer, lr.vmLayer, lr.wireLayer, lr.metricsLayer, lr.serviceLayer,
		lr.hubLayer, lr.provenanceLayer, lr.queueLayer, lr.clusterLayer, lr.leaseLayer, lr.authLayer,
	} {
		if err := step(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return lr.out, nil
}

// loadedCore is a core holding the phone-sync synthetic history.
func (lr *layerRun) loadedCore(opts ...core.Option) (*core.Core, error) {
	c, err := core.New(opts...)
	if err != nil {
		return nil, err
	}
	for _, sig := range lr.in.history {
		if _, _, err := c.AddSignature(sig); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func (lr *layerRun) coreLayer() error {
	unnamed, named := lr.in.sites[syncArmed], lr.in.sites[0]
	enter := func(name string, site core.Frame, allocs string, opts ...core.Option) error {
		c, err := lr.loadedCore(opts...)
		if err != nil {
			return err
		}
		defer c.Close()
		t, l := c.NewThreadNode("bench", nil), c.NewLockNode("lock")
		pos, err := c.Intern(core.CallStack{site})
		if err != nil {
			return err
		}
		if err := c.Request(t, l, pos); err != nil {
			return err
		}
		c.Acquired(t, l)
		c.Release(t, l)
		call := func() {
			_ = c.Request(t, l, pos) // checked once above; it cannot start failing
			c.Acquired(t, l)
			c.Release(t, l)
		}
		lr.set(name, lr.batched(name, layerCore, call), "ns")
		if allocs != "" {
			lr.set(allocs, allocsPerCall(lr.n(layerCalls), func(int) { call() }), "1/op")
		}
		return nil
	}
	if err := enter("core.enter_fast_ns", unnamed, "core.enter_fast_allocs"); err != nil {
		return err
	}
	if err := enter("core.enter_named_ns", named, ""); err != nil {
		return err
	}
	if err := enter("core.enter_serial_ns", unnamed, "", core.WithSerialEngine(true)); err != nil {
		return err
	}

	c, err := lr.loadedCore()
	if err != nil {
		return err
	}
	defer c.Close()
	stack := lr.in.gen.innerStack(unnamed)[:4]
	if _, err := c.Intern(stack); err != nil {
		return err
	}
	lr.set("core.intern_ns", lr.batched("core.intern_ns", layerCore, func() { _, _ = c.Intern(stack) }), "ns")

	// InstallSignature into a core holding layerHistory signatures: a
	// fresh such core for every hundred installs, so none drifts far from
	// that size.
	base := lr.in.gen.sigSet(layerHistory)
	fresh := lr.in.gen.sigSet(layerCalls)
	hosts := make([]*core.Core, layerCalls/100)
	defer func() {
		for _, host := range hosts {
			if host != nil {
				host.Close()
			}
		}
	}()
	for h := range hosts {
		if hosts[h], err = core.New(); err != nil {
			return err
		}
		for _, sig := range base.sigs {
			if _, _, err := hosts[h].AddSignature(sig); err != nil {
				return err
			}
		}
	}
	var installErr error
	ns := lr.each("core.install_sig_us", layerCore, layerCalls, func(i int) {
		if _, _, err := hosts[i/100].InstallSignature(fresh.sigs[i]); err != nil {
			installErr = err
		}
	})
	lr.set("core.install_sig_us", ns/1e3, "us")
	return installErr
}

func (lr *layerRun) vmLayer() error {
	history := core.NewMemHistory()
	for _, sig := range lr.in.history {
		_ = history.Append(sig) // cannot fail
	}
	// syncAt runs Thread.Call+Object.Synchronized at one site on one VM
	// thread.
	syncAt := func(name string, dimmunix bool, site core.Frame, allocs string) error {
		z := vm.NewZygote(vm.WithDimmunix(dimmunix), vm.WithHistory(history))
		defer z.KillAll()
		p, err := z.Fork("com.example.layer")
		if err != nil {
			return err
		}
		obj := p.NewObject("lock")
		var ns, perCall float64
		t, err := p.Start("bench", func(t *vm.Thread) {
			call := func() {
				t.Call(site.Class, site.Method, site.Line, func() { obj.Synchronized(t, func() {}) })
			}
			call()
			ns = lr.batched(name, layerVM, call)
			perCall = allocsPerCall(lr.n(layerCalls), func(int) { call() })
		})
		if err != nil {
			return err
		}
		<-t.Done()
		if err := t.Err(); err != nil {
			return err
		}
		lr.set(name, ns, "ns")
		if allocs != "" {
			lr.set(allocs, perCall, "1/op")
		}
		return nil
	}
	if err := syncAt("vm.sync_unarmed_ns", true, lr.in.sites[syncArmed], "vm.sync_allocs"); err != nil {
		return err
	}
	if err := syncAt("vm.sync_armed_ns", true, lr.in.sites[0], ""); err != nil {
		return err
	}
	if err := syncAt("vm.sync_vanilla_ns", false, lr.in.sites[0], ""); err != nil {
		return err
	}

	// Zygote.Fork with a signature bus holding layerHistory signatures.
	svc, err := immunity.NewService("layer-bus", nil)
	if err != nil {
		return err
	}
	defer svc.Close()
	for _, sig := range lr.in.gen.sigSet(layerHistory).sigs {
		if _, _, err := svc.Publish("bench", sig); err != nil {
			return err
		}
	}
	z := vm.NewZygote(vm.WithDimmunix(true), vm.WithSignatureBus(svc))
	defer z.KillAll()
	var forkErr error
	ns := lr.each("vm.fork_us", layerVM, 10*layerSlow, func(i int) {
		if _, err := z.Fork(fmt.Sprintf("com.example.fork%d", i)); err != nil {
			forkErr = err
		}
	})
	lr.set("vm.fork_us", ns/1e3, "us")
	return forkErr
}

func (lr *layerRun) wireLayer() error {
	set := lr.in.fleet
	codec := func(prefix string, m wire.Message, allocs bool) error {
		b, err := wire.EncodeBinary(m)
		if err != nil {
			return err
		}
		if _, err := wire.DecodeBinary(b); err != nil {
			return err
		}
		lr.set("wire.encode_"+prefix+"_ns", lr.batched("wire.encode_"+prefix+"_ns", layerWire, func() { _, _ = wire.EncodeBinary(m) }), "ns")
		lr.set("wire.decode_"+prefix+"_ns", lr.batched("wire.decode_"+prefix+"_ns", layerWire, func() { _, _ = wire.DecodeBinary(b) }), "ns")
		if allocs {
			lr.set("wire.decode_"+prefix+"_allocs", allocsPerCall(lr.n(layerCalls), func(int) { _, _ = wire.DecodeBinary(b) }), "1/op")
		}
		return nil
	}
	delta := func(n int) wire.Message {
		return wire.Message{V: wire.Version, Type: wire.TypeDelta, Delta: &wire.Delta{Epoch: 1, Sigs: set.ws[:n]}}
	}
	if err := codec("report", set.report(0, wire.Version), true); err != nil {
		return err
	}
	if err := codec("delta", delta(1), false); err != nil {
		return err
	}
	catchup := delta(recoverSigs)
	if _, err := wire.EncodeBinary(catchup); err != nil {
		return err
	}
	lr.set("wire.encode_catchup_us", lr.each("wire.encode_catchup_us", layerWire, 8*layerSlow, func(int) {
		_, _ = wire.EncodeBinary(catchup)
	})/1e3, "us")

	// Encode-once fan-out: one Shared, resolved by 32 sessions.
	const sessions = 32
	one := delta(1)
	lr.set("wire.shared_frame_ns", lr.each("wire.shared_frame_ns", layerWire, layerCalls, func(int) {
		sh := wire.NewShared(one)
		for s := 0; s < sessions; s++ {
			_, _ = sh.Frame(wire.Version)
		}
	})/sessions, "ns")

	// wire.Reader over a buffer of 1 000 report frames.
	const frames = 1000
	var buf []byte
	var err error
	for i := 0; i < frames; i++ {
		if buf, err = wire.AppendFrame(buf, set.report(i, wire.Version)); err != nil {
			return err
		}
	}
	var readErr error
	lr.set("wire.frame_read_ns", lr.each("wire.frame_read_ns", layerWire, 2*layerSlow, func(int) {
		r := wire.NewReader(bytes.NewReader(buf))
		for i := 0; i < frames; i++ {
			if _, err := r.ReadFrame(); err != nil {
				readErr = err
			}
		}
	})/frames, "ns")
	return readErr
}

func (lr *layerRun) metricsLayer() error {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("bench_layer_total", "Layer-call counter.")
	hist := reg.Histogram("bench_layer_seconds", "Layer-call histogram.", metrics.DurationBuckets())
	lr.set("metrics.counter_inc_ns", lr.batched("metrics.counter_inc_ns", "metrics", ctr.Inc), "ns")
	d := 137 * time.Microsecond
	lr.set("metrics.histogram_observe_ns", lr.batched("metrics.histogram_observe_ns", "metrics", func() { hist.ObserveDuration(d) }), "ns")
	return nil
}
