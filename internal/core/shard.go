package core

import "sync"

// Sharded position intern table. Interning runs on every monitorenter, so
// it must never contend with the engine lock: the table is split into
// posShardCount lock-striped shards keyed by an FNV-1a hash of the
// call-stack key. A lookup takes one shard read-lock; only the first
// intern of a new position takes a shard write-lock. No shard lock is ever
// held while acquiring another lock (shard locks are leaves in the lock
// order, see the package comment in core.go).
const posShardCount = 64 // power of two, so the hash folds with a mask

// posShard is one stripe of the intern table.
type posShard struct {
	mu sync.RWMutex
	m  map[string]*Position
}

// posTable is the per-core sharded positions map (the paper's global
// positions map, striped).
type posTable struct {
	shards [posShardCount]posShard
}

// newPosTable builds an empty table.
func newPosTable() *posTable {
	pt := &posTable{}
	for i := range pt.shards {
		pt.shards[i].m = make(map[string]*Position)
	}
	return pt
}

// shardFor hashes a position key to its shard (FNV-1a).
func (pt *posTable) shardFor(key string) *posShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &pt.shards[h&(posShardCount-1)]
}

// intern returns the unique Position for the (already depth-truncated)
// stack, creating it on first use. The stack is cloned when a new Position
// is created, so callers may reuse their capture buffers.
func (pt *posTable) intern(stack CallStack) *Position {
	key := stack.Key()
	sh := pt.shardFor(key)
	sh.mu.RLock()
	p, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return p
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p, ok := sh.m[key]; ok {
		return p
	}
	p = &Position{key: key, stack: stack.Clone()}
	sh.m[key] = p
	return p
}

// count returns the number of interned positions.
func (pt *posTable) count() int {
	n := 0
	for i := range pt.shards {
		sh := &pt.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// forEach visits every interned position under the shard read-locks.
// Callers that also inspect queue state must hold the engine lock
// exclusively to freeze it.
func (pt *posTable) forEach(fn func(key string, p *Position)) {
	for i := range pt.shards {
		sh := &pt.shards[i]
		sh.mu.RLock()
		for k, p := range sh.m {
			fn(k, p)
		}
		sh.mu.RUnlock()
	}
}
