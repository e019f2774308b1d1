package android

import (
	"fmt"

	"github.com/dimmunix/dimmunix/internal/vm"
)

// Looper is android.os.Looper: a VM thread draining a MessageQueue and
// dispatching each message to its target handler.
type Looper struct {
	name   string
	proc   *vm.Process
	queue  *MessageQueue
	thread *vm.Thread
}

// StartLooper creates the queue and launches the looper thread.
func StartLooper(p *vm.Process, name string) (*Looper, error) {
	l := &Looper{
		name:  name,
		proc:  p,
		queue: newMessageQueue(p, name),
	}
	th, err := p.Start(name, l.loop)
	if err != nil {
		return nil, fmt.Errorf("start looper %s: %w", name, err)
	}
	l.thread = th
	return l, nil
}

// Name returns the looper's thread name.
func (l *Looper) Name() string { return l.name }

// Thread returns the looper's VM thread.
func (l *Looper) Thread() *vm.Thread { return l.thread }

// loop is Looper.loop: the message pump.
func (l *Looper) loop(t *vm.Thread) {
	t.Call("android.os.Looper", "loop", 123, func() {
		for {
			msg, ok := l.queue.Next(t)
			if !ok {
				return
			}
			l.dispatch(t, msg)
		}
	})
}

// dispatch mirrors Handler.dispatchMessage.
func (l *Looper) dispatch(t *vm.Thread, msg Message) {
	switch {
	case msg.Callback != nil:
		msg.Callback(t)
	case msg.target != nil:
		msg.target.handle(t, msg)
	}
}

// Quit stops the looper after the pending messages drain. Must be called
// from a VM thread of the same process.
func (l *Looper) Quit(t *vm.Thread) {
	l.queue.Quit(t)
}

// Handler is android.os.Handler: it posts messages to a looper's queue and
// processes them on the looper thread via handleMessage.
type Handler struct {
	name   string
	looper *Looper
	fn     func(t *vm.Thread, msg Message)
}

// NewHandler binds a handler to a looper. fn is the handleMessage body and
// may be nil for post-only handlers.
func NewHandler(l *Looper, name string, fn func(t *vm.Thread, msg Message)) *Handler {
	return &Handler{name: name, looper: l, fn: fn}
}

// Name returns the handler's name.
func (h *Handler) Name() string { return h.name }

// Looper returns the handler's looper.
func (h *Handler) Looper() *Looper { return h.looper }

// Send enqueues a message targeted at this handler.
func (h *Handler) Send(t *vm.Thread, msg Message) {
	msg.target = h
	h.looper.queue.Enqueue(t, msg)
}

// Post enqueues a callback to run on the looper thread.
func (h *Handler) Post(t *vm.Thread, fn func(*vm.Thread)) {
	h.looper.queue.Enqueue(t, Message{Callback: fn, target: h})
}

// handle runs handleMessage on the looper thread.
func (h *Handler) handle(t *vm.Thread, msg Message) {
	if h.fn != nil {
		h.fn(t, msg)
	}
}
