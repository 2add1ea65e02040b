package shard

import (
	"repro/internal/exchange"
	"repro/internal/graph"
)

// workerCache is a shard worker's warm problem cache: everything a
// session would otherwise rebuild from the shipped ProblemRef — the
// factor graph, its partition plan, the boundary manifest — plus the
// exact FrameState payload last installed, so a coordinator whose
// state digest matches can skip the down-sync entirely. Entries are
// keyed by the coordinator-computed problem key (see problemKey) and
// LRU-evicted past max.
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
	// was built under; a probe that disagrees (a key collision, a
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

// get returns the entry for key (touching it most-recently-used), or
// nil on a miss or a disabled cache.
func (c *workerCache) get(key string) *cacheEntry {
	ent, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.touch(key)
	return ent
}

// put inserts or replaces the entry for key, evicting the
// least-recently-used entries past the cache bound. A disabled cache
// (max <= 0) retains nothing.
func (c *workerCache) put(key string, ent *cacheEntry) {
	if c.max <= 0 {
		return
	}
	if _, ok := c.entries[key]; ok {
		c.entries[key] = ent
		c.touch(key)
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
	if _, ok := c.entries[key]; !ok {
		return
	}
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

func (c *workerCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.order = append(c.order, key)
			return
		}
	}
}
