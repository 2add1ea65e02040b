package shard

import (
	"slices"

	"repro/internal/exchange"
	"repro/internal/graph"
)

// workerCache is a shard worker's problem cache: everything a session
// would otherwise build from the Cfg's workload spec — the factor
// graph, its partition plan, the boundary manifest — plus the exact
// FrameState payload last installed, so a coordinator whose state
// digest matches skips the down-sync entirely. Every session consults
// it; entries are keyed by problemKey over the Cfg and LRU-evicted past
// max (paradmm-shardworker -cache; 0 retains nothing, so every session
// misses).
//
// The cache is only ever touched from the worker's single session
// goroutine (sessions run one at a time), so it needs no locking.
type workerCache struct {
	max     int
	entries map[string]*cacheEntry
	order   []string // LRU order, oldest first
}

type cacheEntry struct {
	g    *graph.Graph
	plan *plan
	man  *exchange.Manifest
	// The shard count — and this worker's shard index — the entry
	// was built under; a Cfg that disagrees (a key collision, a
	// coordinator bug, or a fleet lease that reordered the same addrs)
	// is served as a miss and the entry rebuilt: the plan is
	// shard-index-specific, so reusing it under another index would
	// compute the wrong shard's blocks.
	worker int
	shards int
	// snapshot is the exact FrameState payload last installed into g;
	// digest fingerprints it (stateDigest). g itself holds post-solve
	// state between sessions — a state-tier hit restores snapshot first.
	snapshot []byte
	digest   string
}

func newWorkerCache(max int) *workerCache {
	return &workerCache{max: max, entries: map[string]*cacheEntry{}}
}

// get returns the entry for key built for this worker index and shard
// count (touching it most-recently-used), or nil on a miss. An entry
// built under another layout is dropped.
func (c *workerCache) get(key string, worker, shards int) *cacheEntry {
	ent, ok := c.entries[key]
	if !ok {
		return nil
	}
	if ent.worker != worker || ent.shards != shards {
		c.remove(key)
		return nil
	}
	c.touch(key)
	return ent
}

// capture records payload as the state installed into ent and, when
// ent is a fresh build, files it under key, evicting the
// least-recently-used entries past the cache bound (a hit's entry is
// already filed and touched by get). A disabled cache (max <= 0)
// retains nothing.
func (c *workerCache) capture(key string, ent *cacheEntry, payload []byte) {
	if c.max <= 0 {
		return
	}
	ent.snapshot = append(ent.snapshot[:0], payload...)
	ent.digest = stateDigest(payload)
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = ent
	c.order = append(c.order, key)
	for len(c.entries) > c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
}

// remove drops the entry for key, if present.
func (c *workerCache) remove(key string) {
	delete(c.entries, key)
	c.order = slices.DeleteFunc(c.order, func(k string) bool { return k == key })
}

// touch makes key the most recently used.
func (c *workerCache) touch(key string) {
	if i := slices.Index(c.order, key); i >= 0 {
		c.order = append(slices.Delete(c.order, i, i+1), key)
	}
}
