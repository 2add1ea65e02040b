package graph

import (
	"fmt"
	"slices"
	"testing"
)

// item is a cache entry of a chosen size with an identity.
type item struct {
	id   int
	size int64
}

func (it *item) Bytes() int64 { return it.size }

// TestCacheAdmissionAndBudget walks the policy once by hand: a key is
// pooled from its second miss on, the least recently used key goes first
// when the budget is exceeded, and an entry bigger than the whole budget
// is not kept.
func TestCacheAdmissionAndBudget(t *testing.T) {
	c := NewCache[*item](2)
	c.budget = 100
	a, b, big := &item{1, 60}, &item{2, 30}, &item{3, 101}

	// First sight: built, solved, dropped.
	if _, hit := c.Get("a"); hit {
		t.Fatal("empty cache hit")
	}
	c.Put("a", a)
	if st := c.Stats(); st.Size != 0 || st.FirstSightEvictions != 1 {
		t.Fatalf("first sighting pooled: %+v", st)
	}
	// Second miss admits; the third request hits.
	c.Get("a")
	c.Put("a", a)
	if got, hit := c.Get("a"); !hit || got != a {
		t.Fatalf("third request: hit %v, got %v", hit, got)
	}
	c.Put("a", a) // checked out and returned: still admitted
	c.Get("b")
	c.Get("b")
	c.Put("b", b)
	if st := c.Stats(); st.Size != 2 || st.Bytes != 90 {
		t.Fatalf("after a and b: %+v", st)
	}
	// A second entry for b (30 more) overflows: a, the least recently
	// used key, goes.
	c.Put("b", &item{4, 30})
	if st := c.Stats(); st.Size != 2 || st.Bytes != 60 || st.BudgetEvictions != 1 {
		t.Fatalf("after the overflow: %+v", st)
	}
	if _, hit := c.Get("a"); hit {
		t.Fatal("evicted key still hits")
	}
	// b's pool is full.
	c.Put("b", &item{5, 1})
	if st := c.Stats(); st.PerKeyEvictions != 1 {
		t.Fatalf("per-key bound not applied: %+v", st)
	}
	// Too big for the whole budget: not kept, and nothing else is
	// evicted to make room.
	c.Get("big")
	c.Get("big")
	c.Put("big", big)
	if st := c.Stats(); st.Size != 2 || st.BudgetEvictions != 2 {
		t.Fatalf("oversized entry: %+v", st)
	}
}

// TestCacheGhostWindow: a second miss admits a key only while the key is
// still among the last ghostCap keys remembered.
func TestCacheGhostWindow(t *testing.T) {
	c := NewCache[*item](2)
	c.ghostCap = 2
	c.Get("a")
	c.Get("x")
	c.Get("y") // a falls out of the window
	c.Get("a")
	c.Put("a", &item{1, 1})
	if st := c.Stats(); st.Size != 0 || st.FirstSightEvictions != 1 {
		t.Fatalf("a second miss outside the window admitted the key: %+v", st)
	}
	c.Get("a")
	c.Put("a", &item{1, 1})
	if st := c.Stats(); st.Size != 1 {
		t.Fatalf("a second miss inside the window did not admit the key: %+v", st)
	}
}

// TestCacheGetPutAllocatesNothing pins the hit path: checking out a
// resident entry and putting it back allocates nothing, whether or not
// it was the key's last entry.
func TestCacheGetPutAllocatesNothing(t *testing.T) {
	c := NewCache[*item](2)
	for _, key := range []string{"one", "two"} {
		c.Get(key)
		c.Get(key)
		c.Put(key, &item{1, 64})
	}
	c.Put("two", &item{2, 64})
	for _, key := range []string{"one", "two"} {
		allocs := testing.AllocsPerRun(100, func() {
			p, _ := c.Get(key)
			c.Put(key, p)
		})
		if allocs != 0 {
			t.Errorf("Get/Put of resident key %q allocates %.1f objects, want 0", key, allocs)
		}
	}
}

// BenchmarkCacheGetPut is a hit and its Put on a resident key: the
// per-request cost of the cache on the serving path.
func BenchmarkCacheGetPut(b *testing.B) {
	c := NewCache[*item](2)
	key := "lasso/m=32,p=10,nz=3,sigma=0.05,blocks=4,lambda=0.3,rho=1,alpha=1,seed=11"
	c.Get(key)
	c.Get(key)
	c.Put(key, &item{1, 64 << 10})
	b.ReportAllocs()
	for b.Loop() {
		p, _ := c.Get(key)
		c.Put(key, p)
	}
}

// cacheModel is the reference the fuzz target checks Cache against: the
// same policy over plain slices and maps.
type cacheModel struct {
	perKey, ghostCap int
	budget           int64
	lru              []string // keys with entries pooled, most recent first
	pools            map[string][]*item
	ghosts           []string        // keys with nothing pooled, newest first
	admitted         map[string]bool // every key on either list
	stats            CacheStats
}

func without(keys []string, key string) []string {
	return slices.DeleteFunc(keys, func(k string) bool { return k == key })
}

func (m *cacheModel) addGhost(key string) {
	m.ghosts = append([]string{key}, m.ghosts...)
	if len(m.ghosts) > m.ghostCap {
		delete(m.admitted, m.ghosts[m.ghostCap])
		m.ghosts = m.ghosts[:m.ghostCap]
	}
}

// take removes entry i of key's pool.
func (m *cacheModel) take(key string, i int) *item {
	it := m.pools[key][i]
	m.pools[key] = slices.Delete(m.pools[key], i, i+1)
	m.stats.Size--
	m.stats.Bytes -= it.size
	if len(m.pools[key]) == 0 {
		delete(m.pools, key)
		m.lru = without(m.lru, key)
		m.addGhost(key)
	}
	return it
}

func (m *cacheModel) get(key string) *item {
	if pool := m.pools[key]; len(pool) > 0 {
		m.stats.Hits++
		it := m.take(key, len(pool)-1)
		if len(m.pools[key]) > 0 {
			m.lru = append([]string{key}, without(m.lru, key)...)
		}
		return it
	}
	m.stats.Misses++
	_, seen := m.admitted[key]
	m.admitted[key] = seen
	m.ghosts = without(m.ghosts, key)
	m.addGhost(key)
	return nil
}

func (m *cacheModel) put(key string, it *item) {
	switch {
	case !m.admitted[key]:
		m.stats.FirstSightEvictions++
		return
	case len(m.pools[key]) >= m.perKey:
		m.stats.PerKeyEvictions++
		return
	case it.size > m.budget:
		m.stats.BudgetEvictions++
		return
	}
	m.ghosts = without(m.ghosts, key)
	m.lru = append([]string{key}, without(m.lru, key)...)
	m.pools[key] = append(m.pools[key], it)
	m.stats.Size++
	m.stats.Bytes += it.size
	for m.stats.Bytes > m.budget {
		m.stats.BudgetEvictions++
		m.take(m.lru[len(m.lru)-1], 0)
	}
}

// FuzzGraphCache drives random Get/Put sequences with random entry sizes
// through Cache and the reference model, and checks after every step that
// they agree and that the cache's invariants hold: the accounted bytes
// are the sum of resident entries and stay within the budget, no key
// pools more than perKey entries, a key missed only once is never
// pooled, and no entry is handed out twice.
func FuzzGraphCache(f *testing.F) {
	f.Add(uint16(100), uint8(1), uint8(3), []byte{0, 1, 0, 0, 1, 0, 1, 1, 40, 0, 1, 0, 1, 1, 40, 1, 1, 70, 0, 2, 0, 0, 2, 0, 1, 2, 50})
	f.Add(uint16(10), uint8(2), uint8(1), []byte{0, 0, 0, 0, 0, 0, 1, 0, 9, 1, 0, 9, 1, 0, 3, 0, 0, 0, 0, 0, 0})
	f.Add(uint16(1000), uint8(0), uint8(7), []byte{0, 5, 0, 0, 6, 0, 0, 5, 0, 1, 5, 200, 0, 5, 0, 1, 5, 0})
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("shape-%d", i)
	}
	f.Fuzz(func(t *testing.T, budget uint16, perKey, ghostCap uint8, ops []byte) {
		c := NewCache[*item](1 + int(perKey%3))
		c.budget = 1 + int64(budget%1024)
		c.ghostCap = 1 + int(ghostCap%8)
		m := &cacheModel{perKey: c.perKey, ghostCap: c.ghostCap, budget: c.budget,
			pools: map[string][]*item{}, admitted: map[string]bool{}}
		held := map[string][]*item{} // entries checked out or built, per key
		out := map[*item]bool{}      // entries handed out by a Get and not yet Put
		misses := map[string]int{}   // misses per key over the whole run
		nextID := 0
		for ; len(ops) >= 3; ops = ops[3:] {
			key := keys[int(ops[1])%len(keys)]
			if ops[0]%2 == 0 {
				got, hit := c.Get(key)
				want := m.get(key)
				if hit != (want != nil) || hit && got != want {
					t.Fatalf("Get(%s) = %v, %v; model %v", key, got, hit, want)
				}
				if !hit {
					misses[key]++
					nextID++
					got = &item{nextID, int64(ops[2])}
				} else if out[got] {
					t.Fatalf("Get(%s) handed out entry %d twice", key, got.id)
				}
				out[got] = true
				held[key] = append(held[key], got)
			} else {
				var it *item
				if h := held[key]; len(h) > 0 {
					it, held[key] = h[len(h)-1], h[:len(h)-1]
				} else {
					nextID++
					it = &item{nextID, int64(ops[2])}
				}
				delete(out, it)
				c.Put(key, it)
				m.put(key, it)
				if ck := c.keys[key]; ck != nil && misses[key] < 2 &&
					slices.ContainsFunc(ck.pool, func(e cacheEntry[*item]) bool { return e.p == it }) {
					t.Fatalf("Put(%s) pooled a key missed %d time(s)", key, misses[key])
				}
			}
			if st := c.Stats(); st != m.stats {
				t.Fatalf("stats %+v, model %+v", st, m.stats)
			}
			var sum int64
			var size int
			for k, ck := range c.keys {
				if len(ck.pool) > c.perKey {
					t.Fatalf("key %s pools %d entries, perKey %d", k, len(ck.pool), c.perKey)
				}
				if len(ck.pool) > 0 && !ck.admitted {
					t.Fatalf("key %s pooled without admission", k)
				}
				for _, e := range ck.pool {
					sum += e.bytes
					size++
				}
			}
			if st := c.Stats(); sum != st.Bytes || size != st.Size {
				t.Fatalf("accounted %d bytes in %d entries, resident %d in %d", st.Bytes, st.Size, sum, size)
			}
			if sum > c.budget {
				t.Fatalf("%d bytes resident, budget %d", sum, c.budget)
			}
			if c.lru.n+c.ghosts.n != len(c.keys) || c.ghosts.n > c.ghostCap {
				t.Fatalf("lists hold %d+%d keys, map %d, ghost bound %d", c.lru.n, c.ghosts.n, len(c.keys), c.ghostCap)
			}
		}
	})
}
