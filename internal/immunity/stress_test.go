package immunity

import (
	"fmt"
	"sync"
	"testing"

	"github.com/dimmunix/dimmunix/internal/core"
)

// TestStressPublishSubscribeHotInstall is the -race gate for the
// propagation tier: concurrent publishers (detections on many devices),
// subscriber churn (processes starting and dying mid-publish), and
// hot-installs into cores carrying live lock traffic, all at once.
func TestStressPublishSubscribeHotInstall(t *testing.T) {
	const (
		devices  = 3
		procs    = 3 // stable processes per device
		sigsEach = 24
		churners = 2 // processes that subscribe/unsubscribe in a loop
	)
	hub := newTestHub(t, 2)
	lb := NewLoopback(hub)

	type phone struct {
		svc   *Service
		cores []*core.Core
	}
	phones := make([]*phone, devices)
	for d := range phones {
		svc, err := NewService(fmt.Sprintf("phone%d", d), core.NewMemHistory())
		if err != nil {
			t.Fatal(err)
		}
		ph := &phone{svc: svc}
		for p := 0; p < procs; p++ {
			c, _ := attach(t, svc, fmt.Sprintf("proc%d", p))
			ph.cores = append(ph.cores, c)
		}
		client, err := Connect(lb, svc.Name(), svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close(); svc.Close() })
		phones[d] = ph
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Lock traffic: every stable core runs goroutines hammering locks at
	// positions that signatures will name mid-run, exercising the
	// fast→slow flip under hot-install.
	for _, ph := range phones {
		for _, c := range ph.cores {
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(c *core.Core, g int) {
					defer wg.Done()
					tn := c.NewThreadNode(fmt.Sprintf("traffic%d", g), nil)
					ln := newMonitor(c, fmt.Sprintf("lock%d", g))
					pos, err := c.Intern(core.CallStack{{Class: "com.app.Svc1", Method: "methodA", Line: 10 + g*100}})
					if err != nil {
						return
					}
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := ln.enter(tn, pos, nil); err != nil {
							return
						}
						ln.exit(tn)
					}
				}(c, g)
			}
		}
	}

	// Subscriber churn against device 0's service.
	for ch := 0; ch < churners; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := core.New(core.WithStore(phones[0].svc))
				if err != nil {
					return
				}
				cancel := phones[0].svc.Subscribe(fmt.Sprintf("churn%d-%d", ch, i), 0, func(_ uint64, sigs []*core.Signature) {
					for _, sig := range sigs {
						_, _, _ = c.InstallSignature(sig)
					}
				})
				cancel()
				c.Close()
			}
		}(ch)
	}

	// Publishers: every device publishes the same sigsEach bugs (so the
	// hub sees cross-device confirmations) plus device-unique ones.
	var pubWG sync.WaitGroup
	for d, ph := range phones {
		pubWG.Add(1)
		go func(d int, ph *phone) {
			defer pubWG.Done()
			for i := 0; i < sigsEach; i++ {
				if _, _, err := ph.svc.Publish("local", testSig(i)); err != nil {
					t.Errorf("publish shared: %v", err)
				}
				if _, _, err := ph.svc.Publish("local", testSig(1000+d*100+i)); err != nil {
					t.Errorf("publish unique: %v", err)
				}
			}
		}(d, ph)
	}
	pubWG.Wait()

	// Convergence: every stable core eventually holds all shared sigs
	// (locally published on its own device) and, via the hub, the armed
	// shared set; unique sigs stay below threshold and must NOT cross
	// devices.
	for d, ph := range phones {
		for pi, c := range ph.cores {
			cc := c
			waitFor(t, fmt.Sprintf("phone%d proc%d converged", d, pi), func() bool {
				return cc.HistorySize() >= sigsEach+sigsEach // shared + own device's unique
			})
		}
	}
	close(stop)
	wg.Wait()

	// Gating invariant: unique signatures (one confirming device each)
	// must not have crossed devices.
	for d, ph := range phones {
		for od := range phones {
			if od == d {
				continue
			}
			foreign := testSig(1000 + od*100).Key()
			for _, info := range ph.cores[0].History() {
				sig := &core.Signature{Kind: info.Kind, Pairs: info.Pairs}
				if sig.Key() == foreign {
					t.Fatalf("phone%d armed phone%d's unconfirmed signature", d, od)
				}
			}
		}
	}
	// Provenance sanity: shared sigs armed with `devices` confirmations.
	armed := 0
	for _, prov := range hub.Provenance() {
		if prov.Armed {
			armed++
			if prov.Confirmations < 2 {
				t.Fatalf("armed below threshold: %+v", prov)
			}
		}
	}
	if armed != sigsEach {
		t.Errorf("armed %d fleet signatures, want %d", armed, sigsEach)
	}
}
