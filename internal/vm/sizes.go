package vm

import (
	"unsafe"

	"github.com/dimmunix/dimmunix/internal/core"
)

// Struct sizes for the SyncFootprint estimate.
const (
	sizeofMonitor  = int64(unsafe.Sizeof(Monitor{}))
	sizeofWaitNode = int64(unsafe.Sizeof(waitNode{}))
	sizeofFrame    = int64(unsafe.Sizeof(core.Frame{}))
	sizeofPosCache = int64(unsafe.Sizeof(Thread{}.posCache))
	// sizeofSiteEntry approximates one map entry in the site cache
	// (key pointer + value pointer + bucket overhead).
	sizeofSiteEntry = 48
)
