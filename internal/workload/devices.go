// The two kinds of device a row attaches. A raw report session is a
// bare wire session that floods reports; a phone is a full device —
// an immunity service, a zygote with live processes and an exchange
// client — on which a real deadlock is injected and detected.
package workload

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/auth"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// warmupRate is the reports per second each device paces during a
// flood's warmup: a trickle that keeps the storm alive while a drill
// acts, without flooding the hubs.
const warmupRate = 20

// stormSession is one device's raw wire session: hello/ack done, ready
// to flood reports. The full ExchangeClient coalesces its whole backlog
// into one report message per drain — exactly the behaviour that makes
// a healthy device cheap — so a storm driven through it collapses to one
// message per device before the hub ever sees it. A raw session sends a
// message per signature, which is what an unbatched or misbehaving
// client does.
type stormSession struct {
	id   string
	sess *immunity.Redialer
}

// stormAttempt is the raw session's policy for the session machine: a
// bare hello with no resume cursor, and the hub's pushes (catch-up
// delta, confirms, storm deltas) discarded — a storm measures ingest,
// not install.
type stormAttempt struct{ id string }

func (a stormAttempt) Hello() wire.Message {
	return wire.Message{V: wire.Version, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: a.id, MinV: wire.Version, MaxV: wire.Version}}
}
func (stormAttempt) Verdict(wire.Ack) error { return nil }
func (stormAttempt) Accepted()              {}
func (stormAttempt) Recv(wire.Message)      {}

// stormFleet is a set of raw device sessions.
type stormFleet []*stormSession

// dialFleet opens n device sessions round-robin over trs and completes
// each handshake, once: a storm device that loses its session stays
// down.
func dialFleet(trs []immunity.Transport, n int) (stormFleet, error) {
	fleet := make(stormFleet, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("dev%d", i)
		rd := immunity.NewRedialer(immunity.RedialConfig{Transport: trs[i%len(trs)],
			Begin: func() immunity.Attempt { return stormAttempt{id} }})
		if err := rd.Handshake(); err != nil {
			fleet.close()
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		fleet = append(fleet, &stormSession{id: id, sess: rd})
	}
	return fleet, nil
}

func (fl stormFleet) close() {
	for _, d := range fl {
		d.sess.Close()
	}
}

// reportEach sends every signature from every device in turn, one
// report message per signature.
func (fl stormFleet) reportEach(sigs []wire.Signature) error {
	for _, d := range fl {
		if err := d.drive(0, 0, sigs); err != nil {
			return err
		}
	}
	return nil
}

// drive sends one device's share of a flood: with no warmup and no
// flood the one-message-per-signature burst; otherwise a warmup of paced
// single-signature reports, full-set batches back to back for flood,
// and a final full batch so every signature is reported however short
// the phases were.
func (d *stormSession) drive(warmup, flood time.Duration, sigs []wire.Signature) error {
	send := func(batch []wire.Signature) error {
		m := wire.Message{V: wire.Version, Type: wire.TypeReport, Report: &wire.Report{Sigs: batch}}
		if err := d.sess.Send(m); err != nil {
			return fmt.Errorf("%s report: %w", d.id, err)
		}
		return nil
	}
	if warmup == 0 && flood == 0 {
		for s := range sigs {
			if err := send(sigs[s : s+1]); err != nil {
				return err
			}
		}
		return nil
	}
	pace := time.Second / warmupRate
	for s, end := 0, time.Now().Add(warmup); time.Now().Before(end); s++ {
		i := s % len(sigs)
		if err := send(sigs[i : i+1]); err != nil {
			return err
		}
		time.Sleep(pace)
	}
	for end := time.Now().Add(flood); time.Now().Before(end); {
		if err := send(sigs); err != nil {
			return err
		}
	}
	return send(sigs)
}

// phone is one simulated device of a fleet-immunity row: live
// processes forked before any detection, so arming them proves the
// no-restart path.
type phone struct {
	svc    *immunity.Service
	zygote *vm.Zygote
	procs  []*vm.Process
	client *immunity.ExchangeClient
}

// newPhone boots a phone with procs live processes and connects it to
// the exchange over tr. On error it returns what it built so far, for
// close.
func newPhone(name string, procs int, tr immunity.Transport, token string) (*phone, error) {
	svc, err := immunity.NewService(name, core.NewMemHistory())
	if err != nil {
		return nil, err
	}
	ph := &phone{svc: svc, zygote: vm.NewZygote(vm.WithDimmunix(true), vm.WithSignatureBus(svc))}
	for j := 0; j < procs; j++ {
		p, err := ph.zygote.Fork(fmt.Sprintf("com.example.app%d", j))
		if err != nil {
			return ph, err
		}
		ph.procs = append(ph.procs, p)
	}
	var opts []immunity.ClientOption
	if token != "" {
		opts = append(opts, immunity.WithClientToken(token))
	}
	ph.client, err = immunity.Connect(tr, name, svc, opts...)
	return ph, err
}

func (ph *phone) close() {
	if ph.client != nil {
		ph.client.Close()
	}
	ph.svc.Close()
	ph.zygote.KillAll()
}

// The injected deadlock's two outer positions — identical on every
// phone, so each device's detection yields the same signature key and
// the confirmations accumulate on one fleet entry.
var buggyOuterA = core.Frame{Class: "com.buggy.App", Method: "lockAB", Line: 10}
var buggyOuterB = core.Frame{Class: "com.buggy.App", Method: "lockBA", Line: 20}

// buggyKey is the injected deadlock's signature key.
func buggyKey() string {
	sig := &core.Signature{
		Kind: core.DeadlockSig,
		Pairs: []core.SigPair{
			{Outer: core.CallStack{buggyOuterA}, Inner: core.CallStack{buggyOuterA}},
			{Outer: core.CallStack{buggyOuterB}, Inner: core.CallStack{buggyOuterB}},
		},
	}
	return sig.Key()
}

// armedWith reports whether the process's core holds the signature.
func armedWith(p *vm.Process, key string) bool {
	dim := p.Dimmunix()
	if dim == nil {
		return false
	}
	for _, info := range dim.History() {
		sig := &core.Signature{Kind: info.Kind, Pairs: info.Pairs}
		if sig.Key() == key {
			return true
		}
	}
	return false
}

// tokenTenant is the tenant claim of a bearer token, read without
// verifying it (the daemon does that): the stale-state check only needs
// to know which tenant the phones will land in. No token, or one that
// does not decode, is the default tenant.
func tokenTenant(token string) string {
	payload, _, _ := strings.Cut(token, ".")
	body, err := base64.RawURLEncoding.DecodeString(payload)
	var c auth.Claims
	if err != nil || json.Unmarshal(body, &c) != nil {
		return ""
	}
	return c.Tenant
}

// injectDeadlock forks a buggy app on the phone and drives its two
// threads into a certain AB/BA inversion: they meet at a gate
// (vm.Process.NewGate) while holding their first lock. The process
// freezes — like a real buggy app — and the detection publishes the
// signature to the phone's service. The process is left frozen; the
// Zygote reaps it at teardown. On a phone already armed against the
// inversion, one thread yields instead and the gate lets the other
// through.
func injectDeadlock(z *vm.Zygote) (*vm.Process, error) {
	p, err := z.Fork("com.buggy.app")
	if err != nil {
		return nil, fmt.Errorf("inject: %w", err)
	}
	a, b := p.NewObject("buggy.A"), p.NewObject("buggy.B")
	gate := p.NewGate(2)
	if _, err := p.Start("t1", func(t *vm.Thread) {
		t.Call(buggyOuterA.Class, buggyOuterA.Method, buggyOuterA.Line, func() {
			a.Synchronized(t, func() {
				gate.Arrive()
				t.Call("com.buggy.App", "innerB", 11, func() {
					b.Synchronized(t, func() {})
				})
			})
		})
	}); err != nil {
		return nil, fmt.Errorf("inject: %w", err)
	}
	if _, err := p.Start("t2", func(t *vm.Thread) {
		t.Call(buggyOuterB.Class, buggyOuterB.Method, buggyOuterB.Line, func() {
			b.Synchronized(t, func() {
				gate.Arrive()
				t.Call("com.buggy.App", "innerA", 21, func() {
					a.Synchronized(t, func() {})
				})
			})
		})
	}); err != nil {
		return nil, fmt.Errorf("inject: %w", err)
	}
	return p, nil
}
