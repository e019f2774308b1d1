package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/dimmunix/dimmunix/internal/core"
	"github.com/dimmunix/dimmunix/internal/immunity"
	"github.com/dimmunix/dimmunix/internal/immunity/wire"
	"github.com/dimmunix/dimmunix/internal/vm"
)

// Completion is event-driven everywhere an op is timed: the program's
// own callbacks (session recv, Core.Events, Service.Subscribe) feed
// channels, and the op waits on those under one per-op deadline. A
// sleeping poll would quantise every latency to its period.

// opTimeout is how long an op may take before it is recorded as failed.
const opTimeout = 5 * time.Second

// deadline is a reusable per-op timeout: arm it when the op starts,
// then every wait of that op shares it.
type deadline struct{ t *time.Timer }

func newDeadline() *deadline {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &deadline{t: t}
}

func (d *deadline) arm() {
	if !d.t.Stop() {
		select {
		case <-d.t.C:
		default:
		}
	}
	d.t.Reset(opTimeout)
}

// recv takes the next value from ch, or reports false once d expires.
func recv[T any](d *deadline, ch <-chan T) (T, bool) {
	select {
	case v := <-ch:
		return v, true
	case <-d.t.C:
		var zero T
		return zero, false
	}
}

// rawSession is a device's raw wire session with the hello/ack
// handshake done, ready to send at the negotiated version.
type rawSession struct {
	immunity.Session
	ver int
}

// dialRaw opens a device session on tr and completes the handshake from
// fleet epoch 0. Every hub→device message after the ack goes to onMsg,
// on the transport's delivery goroutine.
func dialRaw(tr immunity.Transport, device, token string, onMsg func(wire.Message)) (*rawSession, error) {
	ackCh := make(chan wire.Ack, 1)
	sess, err := tr.Dial(func(m wire.Message) {
		if m.Type == wire.TypeAck {
			select {
			case ackCh <- *m.Ack:
			default:
			}
			return
		}
		onMsg(m)
	}, func(error) {})
	if err != nil {
		return nil, fmt.Errorf("%s: dial: %w", device, err)
	}
	hello := wire.Message{V: wire.MinVersion, Type: wire.TypeHello,
		Hello: &wire.Hello{Device: device, MinV: wire.MinVersion, MaxV: wire.Version, Token: token}}
	if err := sess.Send(hello); err != nil {
		sess.Close()
		return nil, fmt.Errorf("%s: hello: %w", device, err)
	}
	d := newDeadline()
	d.arm()
	ack, ok := recv(d, ackCh)
	switch {
	case !ok:
		sess.Close()
		return nil, fmt.Errorf("%s: no hello ack within %v", device, opTimeout)
	case !ack.OK:
		sess.Close()
		return nil, fmt.Errorf("%s: hub refused: %s", device, ack.Error)
	}
	return &rawSession{Session: sess, ver: ack.V}, nil
}

// sigCounter counts the signatures a passive session receives in delta
// pushes and closes done when it has seen want of them. The deltas are
// kept so the round can check them for duplicates after the clock
// stops.
type sigCounter struct {
	want int
	done chan struct{}

	mu   sync.Mutex
	got  int
	sigs [][]wire.Signature
}

func newSigCounter(want int) *sigCounter {
	return &sigCounter{want: want, done: make(chan struct{})}
}

func (c *sigCounter) onMsg(m wire.Message) {
	if m.Type != wire.TypeDelta {
		return
	}
	c.mu.Lock()
	before := c.got
	c.got += len(m.Delta.Sigs)
	c.sigs = append(c.sigs, m.Delta.Sigs)
	reached := before < c.want && c.got >= c.want
	c.mu.Unlock()
	if reached {
		close(c.done)
	}
}

// distinct returns how many different signatures arrived and how many
// arrived in total. Two signatures differ when their first outer stacks
// differ, which holds for everything the generator emits.
func (c *sigCounter) distinct() (distinct, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[string]struct{}, c.got)
	for _, batch := range c.sigs {
		for _, ws := range batch {
			seen[ws.Pairs[0].Outer] = struct{}{}
		}
	}
	return len(seen), c.got
}

// install is one process hot-installing one signature.
type install struct {
	proc int
	key  string
	at   time.Time
}

// watchInstalls forwards proc's EventSignatureInstalled events to out
// until the process is killed (which closes its core's event channel).
func watchInstalls(p *vm.Process, proc int, out chan<- install, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range p.Dimmunix().Events() {
			if ev.Kind != core.EventSignatureInstalled {
				continue
			}
			at := time.Now()
			sig := core.Signature{Kind: ev.Sig.Kind, Pairs: ev.Sig.Pairs}
			out <- install{proc: proc, key: sig.Key(), at: at}
		}
	}()
}

// delivery is one signature reaching a Service subscriber.
type delivery struct {
	key string
	at  time.Time
}

// watchService forwards every signature svc accepts from now on to out.
func watchService(svc *immunity.Service, out chan<- delivery) (cancel func()) {
	return svc.Subscribe("bench-watch", svc.Epoch(), func(_ uint64, sigs []*core.Signature) {
		at := time.Now()
		for _, sig := range sigs {
			out <- delivery{key: sig.Key(), at: at}
		}
	})
}

// pollUntil waits for cond by polling. It is the driver's only poll and
// is used only while a cluster boots — for the quorum lease and the
// peer links, which have no callback a caller could wait on — never
// between an op's start and its completion.
func pollUntil(timeout time.Duration, cond func() bool) bool {
	end := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
