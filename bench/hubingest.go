package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// hub-ingest: the write path of the decision point under a subscribed
// fleet. Per round a fresh threshold-2 hub with file provenance and a
// metrics registry serves TCP; two raw-wire devices each report the
// same ingestSigs fresh signatures, one report message per signature,
// in independently seeded orders with ingestWindow reports in flight;
// ingestObs passive observers over the loopback receive every arming.
// An op is one report up to its confirm receipt. Wire decode, the
// Exchange under its mutex, provenance append and compaction, queue
// drain and encode-once fan-out do the work; core, vm and cluster do
// none.

type hubIngest struct {
	in  *inputs
	tmp string
}

func newHubIngest(in *inputs, tmp string) *hubIngest { return &hubIngest{in: in, tmp: tmp} }

// receipt is one confirm as a device received it.
type receipt struct {
	confirmations int
	armed         bool
}

// ingestDevice drives one device's closed loop: a window of reports in
// flight, each timed from its send to its confirm receipt. The hub
// answers one session's reports in order, so the n-th confirm belongs
// to the n-th report sent.
type ingestDevice struct {
	sess  *rawSession
	order []int
	keys  []string
	// window holds one token per report that may still be sent.
	window chan struct{}
	done   chan struct{}

	mu       sync.Mutex
	sentAt   []time.Time
	received int
	lats     []time.Duration
	receipts []receipt // by signature index
	wrongKey int
	span     func(sent, confirmed time.Time)
}

func (d *ingestDevice) onMsg(m wire.Message) {
	if m.Type != wire.TypeConfirm {
		return
	}
	now := time.Now()
	d.mu.Lock()
	n := d.received
	d.received++
	idx := d.order[n]
	sent := d.sentAt[n]
	if m.Confirm.Key != d.keys[idx] {
		d.wrongKey++
	}
	d.receipts[idx] = receipt{m.Confirm.Confirmations, m.Confirm.Armed}
	if n%ingestSampleEvery == 0 {
		d.lats = append(d.lats, now.Sub(sent))
		if d.span != nil {
			d.span(sent, now)
		}
	}
	finished := d.received == len(d.order)
	d.mu.Unlock()
	d.window <- struct{}{}
	if finished {
		close(d.done)
	}
}

// ingestSampleEvery is the latency sampling stride, which keeps a
// round's contribution to the latency pool near a thousand samples per
// device.
const ingestSampleEvery = 4

// send reports every signature in the device's order, at most
// ingestWindow ahead of the confirms. It returns early if the window
// stays shut for opTimeout.
func (d *ingestDevice) send(set sigSet) error {
	dl := newDeadline()
	for n, idx := range d.order {
		dl.arm()
		if _, ok := recv(dl, d.window); !ok {
			return fmt.Errorf("report %d: no confirm within %v", n-ingestWindow, opTimeout)
		}
		d.mu.Lock()
		d.sentAt[n] = time.Now()
		d.mu.Unlock()
		if err := d.sess.Send(set.report(idx, d.sess.ver)); err != nil {
			return fmt.Errorf("report %d: %w", n, err)
		}
	}
	return nil
}

func (hi *hubIngest) round(tr *tracer, _ bool) (res roundResult, err error) {
	const ops = 2 * ingestSigs
	res = roundResult{ops: ops, failed: ops}
	dir, err := os.MkdirTemp(hi.tmp, "ingest-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	store := immunity.NewFileProvenance(filepath.Join(dir, "provenance.log"))
	hub, err := immunity.NewExchange(2, immunity.WithProvenanceStore(store),
		immunity.WithMetricsRegistry(metrics.NewRegistry()))
	if err != nil {
		return res, err
	}
	defer hub.Close()
	srv, err := immunity.ServeTCP(hub, "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer srv.Close()

	observers := make([]*sigCounter, ingestObs)
	for i := range observers {
		observers[i] = newSigCounter(ingestSigs)
		sess, err := dialRaw(immunity.NewLoopback(hub), fmt.Sprintf("observer-%d", i), "", observers[i].onMsg)
		if err != nil {
			return res, err
		}
		defer sess.Close()
	}
	set := hi.in.fleet
	devices := make([]*ingestDevice, 2)
	for i := range devices {
		d := &ingestDevice{order: hi.in.order[i], keys: set.keys,
			window: make(chan struct{}, ingestWindow), done: make(chan struct{}),
			sentAt: make([]time.Time, ingestSigs), receipts: make([]receipt, ingestSigs),
			lats: make([]time.Duration, 0, ingestSigs/ingestSampleEvery+1)}
		for k := 0; k < ingestWindow; k++ {
			d.window <- struct{}{}
		}
		if tr != nil {
			d.span = func(sent, confirmed time.Time) {
				tr.add(0, tr.newOp(), "send→confirm", layerImmunity, sent, confirmed)
			}
		}
		devices[i] = d
		if d.sess, err = dialRaw(immunity.NewTCPTransport(srv.Addr()), fmt.Sprintf("device-%d", i), "", d.onMsg); err != nil {
			return res, err
		}
		defer d.sess.Close()
	}

	// Timed section: both devices' closed loops, then every observer's
	// last armed signature.
	sendErrs := make(chan error, len(devices))
	cpu0, t0 := cpuTime(), time.Now()
	for _, d := range devices {
		go func(d *ingestDevice) { sendErrs <- d.send(set) }(d)
	}
	for range devices {
		if e := <-sendErrs; e != nil && err == nil {
			err = e
		}
	}
	dl := newDeadline()
	dl.arm()
	for _, d := range devices {
		if _, ok := recv(dl, d.done); !ok && err == nil {
			err = fmt.Errorf("hub-ingest: a device is missing confirms after %v", opTimeout)
		}
	}
	for i, o := range observers {
		if _, ok := recv(dl, o.done); !ok && err == nil {
			err = fmt.Errorf("hub-ingest: observer %d is missing armed signatures after %v", i, opTimeout)
		}
	}
	res.wall, res.cpu = time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return res, err
	}
	res.heap = liveHeap()

	// Checks, off the clock.
	st := hub.Stats()
	res.counts = map[string]float64{
		"immunity.provenance_compactions": float64(store.Compactions()),
		"immunity.delta_batch_ratio":      float64(st.DeltaSignatures) / float64(st.DeltaBatches),
	}
	if n := hub.ArmedCount(); n != ingestSigs {
		return res, fmt.Errorf("hub-ingest: %d signatures armed, want %d", n, ingestSigs)
	}
	if st.PersistErrors != 0 {
		return res, fmt.Errorf("hub-ingest: %d provenance persist errors", st.PersistErrors)
	}
	a, b := devices[0], devices[1]
	if a.wrongKey+b.wrongKey != 0 {
		return res, fmt.Errorf("hub-ingest: %d confirms carried another report's key", a.wrongKey+b.wrongKey)
	}
	for i := 0; i < ingestSigs; i++ {
		first, second := a.receipts[i], b.receipts[i]
		if first.confirmations > second.confirmations {
			first, second = second, first
		}
		if first != (receipt{1, false}) || second != (receipt{2, true}) {
			return res, fmt.Errorf("hub-ingest: signature %d confirmed as %+v then %+v, want {1 false} then {2 true}", i, first, second)
		}
	}
	for i, o := range observers {
		if distinct, total := o.distinct(); distinct != ingestSigs || total != ingestSigs {
			return res, fmt.Errorf("hub-ingest: observer %d saw %d distinct of %d signatures, want %d of %d", i, distinct, total, ingestSigs, ingestSigs)
		}
	}
	res.failed = 0
	res.lats = append(a.lats, b.lats...)
	return res, nil
}
