package graph

import (
	"slices"
	"sync"
)

// Sized is what a Cache needs of an entry: the bytes it keeps alive.
// workload.Problem implements it over its graph's arrays and the data
// its operators own.
type Sized interface {
	Bytes() int64
}

// CacheBudget bounds the priced bytes a Cache pools: 64 MiB. It is a
// backstop against a stream of many distinct shapes that each repeat,
// not a tuned value: the serving mix pools about ten small shapes, well
// under 1 MiB together, and never reaches it.
const CacheBudget = 64 << 20

// ghostKeys bounds the ghost list: how many keys with nothing pooled the
// cache remembers, the window a second miss must fall in to admit a key.
const ghostKeys = 4096

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits, Misses uint64 // Get outcomes
	Size         int    // entries currently pooled across all keys
	Bytes        int64  // their priced total (Sized.Bytes at Put)

	// Entries the cache dropped, by reason: BudgetEvictions were pushed
	// out to keep the priced total within the budget (or alone exceed
	// it), PerKeyEvictions came back to a key whose pool was full, and
	// FirstSightEvictions came back to a key not (yet) admitted.
	BudgetEvictions, PerKeyEvictions, FirstSightEvictions uint64
}

// Cache is a keyed pool of built problems, letting a serving layer skip
// factor-graph construction when a request's shape matches an earlier
// one. Keys are caller-defined shape strings (canonical serializations
// of the problem spec); values are checked out exclusively, so two
// concurrent solves never share ADMM state. Get pops an entry (a hit
// transfers ownership to the caller); Put returns it after the solve.
// The caller must reset the graph's ADMM state after a hit: topology is
// immutable after Finalize, but X/M/U/N/Z carry the previous solve's
// values.
//
// The cache keeps only shapes that repeat, under one byte budget:
//
//   - Admission: a key's entries are pooled only once the key has missed
//     twice within the ghost list — the last 4096 distinct keys that
//     missed or had their last entry leave the pool. A Put for a key
//     missed once is dropped, so one-off shapes never enter the pool:
//     the second identical request builds, the third hits.
//   - Budget: an entry is priced by its Bytes when Put, and the priced
//     total never exceeds CacheBudget. A Put past it evicts the least
//     recently used key's oldest entry until the total fits; an entry
//     priced above the whole budget is not kept.
//   - Per key: at most perKey entries per key, enough for concurrent
//     identical requests.
//
// A key whose pool empties — its last entry checked out or evicted —
// moves to the ghost list still admitted, so the next Put of that key
// pools again until the list forgets it.
type Cache[P Sized] struct {
	mu       sync.Mutex
	perKey   int
	budget   int64 // CacheBudget; tests shrink it
	ghostCap int   // ghostKeys; tests shrink it
	keys     map[string]*cacheKey[P]
	lru      keyList[P] // keys with entries pooled, most recently used first
	ghosts   keyList[P] // keys with nothing pooled, newest first
	stats    CacheStats
}

type cacheKey[P Sized] struct {
	key        string
	admitted   bool
	pool       []cacheEntry[P] // non-empty exactly while the key is on the lru list
	prev, next *cacheKey[P]
}

type cacheEntry[P Sized] struct {
	p     P
	bytes int64
}

// NewCache returns a cache keeping at most perKey entries per shape key
// (perKey <= 0 means 2: enough to absorb a pair of concurrent identical
// requests) within CacheBudget priced bytes.
func NewCache[P Sized](perKey int) *Cache[P] {
	if perKey <= 0 {
		perKey = 2
	}
	c := &Cache[P]{perKey: perKey, budget: CacheBudget, ghostCap: ghostKeys, keys: map[string]*cacheKey[P]{}}
	c.lru.init()
	c.ghosts.init()
	return c
}

// Get checks out a pooled entry for the shape key, or reports a miss.
// A miss puts the key on the ghost list; a second miss there admits it.
func (c *Cache[P]) Get(key string) (p P, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.keys[key]
	if k != nil && len(k.pool) > 0 {
		c.stats.Hits++
		p = c.take(k, len(k.pool)-1)
		if len(k.pool) > 0 {
			c.lru.moveToFront(k)
		}
		return p, true
	}
	c.stats.Misses++
	if k == nil {
		k = &cacheKey[P]{key: key}
		c.keys[key] = k
	} else {
		k.admitted = true
		c.ghosts.remove(k)
	}
	c.addGhost(k)
	return p, false
}

// Put returns a built problem to the pool under its shape key, subject
// to admission, the per-key bound and the budget.
func (c *Cache[P]) Put(key string, p P) {
	size := p.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	k := c.keys[key]
	switch {
	case k == nil || !k.admitted:
		c.stats.FirstSightEvictions++
		return
	case len(k.pool) >= c.perKey:
		c.stats.PerKeyEvictions++
		return
	case size > c.budget:
		c.stats.BudgetEvictions++
		return
	}
	if len(k.pool) == 0 {
		c.ghosts.remove(k)
		c.lru.pushFront(k)
	} else {
		c.lru.moveToFront(k)
	}
	k.pool = append(k.pool, cacheEntry[P]{p, size})
	c.stats.Size++
	c.stats.Bytes += size
	for c.stats.Bytes > c.budget {
		c.stats.BudgetEvictions++
		c.take(c.lru.back(), 0)
	}
}

// take removes entry i of k's pool and returns it. A key left with
// nothing pooled moves to the ghost list.
func (c *Cache[P]) take(k *cacheKey[P], i int) P {
	e := k.pool[i]
	k.pool = slices.Delete(k.pool, i, i+1) // zeroes the vacated slot
	c.stats.Size--
	c.stats.Bytes -= e.bytes
	if len(k.pool) == 0 {
		c.lru.remove(k)
		c.addGhost(k)
	}
	return e.p
}

// addGhost puts k at the front of the ghost list and forgets the oldest
// ghost beyond the list's bound.
func (c *Cache[P]) addGhost(k *cacheKey[P]) {
	c.ghosts.pushFront(k)
	if c.ghosts.n > c.ghostCap {
		old := c.ghosts.back()
		c.ghosts.remove(old)
		delete(c.keys, old.key)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[P]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// keyList is an intrusive doubly linked list of keys around a sentinel:
// moving a key between lists allocates nothing, so a hit and its Put
// allocate nothing either.
type keyList[P Sized] struct {
	root cacheKey[P] // root.next is the front, root.prev the back
	n    int
}

func (l *keyList[P]) init() { l.root.next, l.root.prev = &l.root, &l.root }

func (l *keyList[P]) pushFront(k *cacheKey[P]) {
	k.prev, k.next = &l.root, l.root.next
	k.next.prev = k
	l.root.next = k
	l.n++
}

func (l *keyList[P]) remove(k *cacheKey[P]) {
	k.prev.next, k.next.prev = k.next, k.prev
	k.prev, k.next = nil, nil
	l.n--
}

func (l *keyList[P]) moveToFront(k *cacheKey[P]) {
	l.remove(k)
	l.pushFront(k)
}

// back returns the list's last key; the list must not be empty.
func (l *keyList[P]) back() *cacheKey[P] { return l.root.prev }
