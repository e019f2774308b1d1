package core

import "errors"

// ErrCoreClosed is returned by operations on a Core after Close. Threads
// suspended in avoidance are woken with this error so the embedding
// runtime can unwind them (process teardown / reboot).
var ErrCoreClosed = errors.New("dimmunix core closed")
