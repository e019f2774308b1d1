package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/metrics"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
)

// hub-recover: the same layers as hub-ingest used the other way — reads
// beside its writes. Set-up seeds one provenance log through a real hub
// (recoverSigs signatures, each confirmed by two devices and armed). An
// op is one restart cycle on a fresh copy of that log: open the store,
// resume the hub from it, then recoverDevs devices hello from epoch 0
// one after another, each waiting for the whole armed set. One op per
// round. Provenance load, catch-up delta encode, pushed-to bookkeeping
// and its re-persist do the work; report decode and arming do none, so
// a change that speeds appends by making the log costlier to read, or
// the reverse, shows here against hub-ingest.

type hubRecover struct {
	tmp  string
	seed []byte // the seeded log's bytes
}

func newHubRecover(in *inputs, tmp string) (*hubRecover, error) {
	hr := &hubRecover{tmp: tmp}
	dir, err := os.MkdirTemp(tmp, "recover-seed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "provenance.log")
	if err := seedProvenance(path, in.fleet, recoverSigs); err != nil {
		return nil, err
	}
	if hr.seed, err = os.ReadFile(path); err != nil {
		return nil, err
	}
	return hr, nil
}

// seedProvenance writes a provenance log by driving a real hub: two
// devices each report the first n signatures of set, which arms all of
// them at threshold 2.
func seedProvenance(path string, set sigSet, n int) error {
	hub, err := immunity.NewExchange(2, immunity.WithProvenanceStore(immunity.NewFileProvenance(path)))
	if err != nil {
		return err
	}
	defer hub.Close()
	for d := 0; d < 2; d++ {
		confirmed := make(chan struct{}, n)
		sess, err := dialRaw(immunity.NewLoopback(hub), fmt.Sprintf("seed-%d", d), "", func(m wire.Message) {
			if m.Type == wire.TypeConfirm {
				confirmed <- struct{}{}
			}
		})
		if err != nil {
			return err
		}
		report := wire.Message{V: sess.ver, Type: wire.TypeReport, Report: &wire.Report{Sigs: set.ws[:n]}}
		if err := sess.Send(report); err != nil {
			sess.Close()
			return fmt.Errorf("seed provenance: %w", err)
		}
		dl := newDeadline()
		dl.arm()
		for i := 0; i < n; i++ {
			if _, ok := recv(dl, confirmed); !ok {
				sess.Close()
				return fmt.Errorf("seed provenance: device %d got %d of %d confirms", d, i, n)
			}
		}
		sess.Close()
	}
	if got := hub.ArmedCount(); got != n {
		return fmt.Errorf("seed provenance: %d armed, want %d", got, n)
	}
	return nil
}

func (hr *hubRecover) round(tr *tracer, _ bool) (res roundResult, err error) {
	res = roundResult{ops: 1, failed: 1}
	dir, err := os.MkdirTemp(hr.tmp, "recover-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "provenance.log")
	if err := os.WriteFile(path, hr.seed, 0o644); err != nil {
		return res, err
	}
	counters := make([]*sigCounter, recoverDevs)
	for i := range counters {
		counters[i] = newSigCounter(recoverSigs)
	}
	op := tr.newOp()

	// Timed section: one restart cycle.
	cpu0, t0 := cpuTime(), time.Now()
	store := immunity.NewFileProvenance(path)
	hub, err := immunity.NewExchange(2, immunity.WithProvenanceStore(store),
		immunity.WithMetricsRegistry(metrics.NewRegistry()))
	if err != nil {
		return res, err
	}
	defer hub.Close()
	resumed := time.Now()
	epoch := hub.Stats().Epoch
	dl := newDeadline()
	dl.arm()
	type step struct{ start, hello, done time.Time }
	steps := make([]step, recoverDevs)
	for i, c := range counters {
		steps[i].start = time.Now()
		sess, err := dialRaw(immunity.NewLoopback(hub), fmt.Sprintf("device-%d", i), "", c.onMsg)
		if err != nil {
			return res, err
		}
		defer sess.Close()
		steps[i].hello = time.Now()
		if _, ok := recv(dl, c.done); !ok {
			return res, fmt.Errorf("hub-recover: device %d is missing armed signatures after %v", i, opTimeout)
		}
		steps[i].done = time.Now()
	}
	end := time.Now()
	res.wall, res.cpu = end.Sub(t0), cpuTime()-cpu0
	res.heap = liveHeap()

	if tr != nil {
		root := tr.add(0, op, "restart_cycle", layerBench, t0, end)
		tr.add(root, op, "resume", layerImmunity, t0, resumed)
		for _, s := range steps {
			tr.add(root, op, "hello", layerImmunity, s.start, s.hello)
			tr.add(root, op, "catchup_done", layerImmunity, s.hello, s.done)
		}
	}

	// Checks, off the clock.
	st := hub.Stats()
	res.counts = map[string]float64{"immunity.recover_compactions": float64(store.Compactions())}
	if n := hub.ArmedCount(); n != recoverSigs {
		return res, fmt.Errorf("hub-recover: %d signatures armed after resume, want %d", n, recoverSigs)
	}
	if epoch != recoverSigs || st.Epoch != epoch {
		return res, fmt.Errorf("hub-recover: fleet epoch %d after resume and %d after the hellos, want %d both (a re-arm?)", epoch, st.Epoch, recoverSigs)
	}
	if st.PersistErrors != 0 {
		return res, fmt.Errorf("hub-recover: %d provenance persist errors", st.PersistErrors)
	}
	for i, c := range counters {
		if distinct, total := c.distinct(); distinct != recoverSigs || total != recoverSigs {
			return res, fmt.Errorf("hub-recover: device %d saw %d distinct of %d signatures, want %d of %d", i, distinct, total, recoverSigs, recoverSigs)
		}
	}
	res.failed = 0
	res.lats = []time.Duration{res.wall}
	return res, nil
}
