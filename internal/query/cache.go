package query

import (
	"container/list"
	"fmt"
	"sync"

	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
)

// PlanCache is an LRU of prepared plans keyed by canonical plan text
// (lossless: Format of the parsed tree) + backend + optimize flag, each entry
// stamped with the catalog version it was built against. A hit skips
// Parse and Optimize.
//
// Invalidation is by version comparison at lookup time, not by eager
// sweep: the catalog bumps a monotonic counter on every PUT/DELETE, and a
// hit whose stored version differs is evicted and counted as an
// invalidation. That makes a PUT O(1) regardless of cache size while
// still guaranteeing no query ever runs a plan rewritten against relation
// widths the catalog no longer has.
//
// A raw-text alias map fronts the canonical index so an exactly-repeated
// query string skips Parse too; aliases are dropped with their entry.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recent; values are *planEntry
	entries map[string]*list.Element
	aliases map[string]string // raw key -> canonical key

	hits, misses, invalidations, evictions *obs.Counter
	size                                   *obs.Gauge
}

// planEntry is one cached prepared plan.
type planEntry struct {
	key       string
	aliasKeys []string
	version   uint64
	// cp.Plan is optimized (or raw, when the entry was built with optimize
	// off); each hit gets its own copy of cp.
	cp CachedPlan
}

// CachedPlan is the caller's view of a cache hit (or a fresh insert).
type CachedPlan struct {
	Plan      Node
	Canonical string // canonical (pre-optimization) plan text
	Rendered  string // prepared plan text
}

// NewPlanCache builds a cache holding at most capacity prepared plans
// (capacity <= 0 disables caching: every lookup misses, inserts are
// dropped). Counters and the size gauge land in reg, or obs.Default when
// nil.
func NewPlanCache(capacity int, reg *obs.Registry) *PlanCache {
	if reg == nil {
		reg = obs.Default
	}
	return &PlanCache{
		cap:           capacity,
		ll:            list.New(),
		entries:       make(map[string]*list.Element),
		aliases:       make(map[string]string),
		hits:          reg.Counter("query_plan_cache_hits_total", nil),
		misses:        reg.Counter("query_plan_cache_misses_total", nil),
		invalidations: reg.Counter("query_plan_cache_invalidations_total", nil),
		evictions:     reg.Counter("query_plan_cache_evictions_total", nil),
		size:          reg.Gauge("query_plan_cache_size", nil),
	}
}

func cacheKey(canonical string, backend machine.Backend, optimize bool) string {
	return fmt.Sprintf("%d|%t|%s", backend, optimize, canonical)
}

func rawKey(raw string, backend machine.Backend, optimize bool) string {
	return fmt.Sprintf("%d|%t|raw|%s", backend, optimize, raw)
}

// Lookup resolves a raw (unparsed) query text. A hit means the exact
// string was cached for this backend/optimize mode at this catalog
// version; a version mismatch evicts the entry and reports a miss (and
// an invalidation).
func (c *PlanCache) Lookup(raw string, backend machine.Backend, optimize bool, version uint64) (*CachedPlan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rk := rawKey(raw, backend, optimize)
	key, ok := c.aliases[rk]
	if !ok {
		// Not counted as a miss yet: the caller retries via
		// LookupCanonical after parsing, which settles hit vs miss.
		return nil, false
	}
	return c.lookupLocked(key, rk, version)
}

// LookupCanonical resolves a parsed plan's canonical text, learning the
// raw string as an alias on a hit so the next identical request skips
// Parse as well.
func (c *PlanCache) LookupCanonical(raw, canonical string, backend machine.Backend, optimize bool, version uint64) (*CachedPlan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(cacheKey(canonical, backend, optimize), rawKey(raw, backend, optimize), version)
}

// lookupLocked resolves an index key, learning rk as an alias of the entry
// on a hit (a no-op when rk is how the entry was found).
func (c *PlanCache) lookupLocked(key, rk string, version uint64) (*CachedPlan, bool) {
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.version != version {
		c.removeLocked(el)
		c.invalidations.Inc()
		c.misses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	c.aliasLocked(e, rk)
	cp := e.cp
	return &cp, true
}

// Insert records a freshly prepared plan under its canonical text and
// returns its handle. The canonical text is both the index key and what
// hits report as CachedPlan.Canonical, so it must be lossless: two plans
// that may not share an entry must not share a canonical text. Render is
// not (it omits predicates and join columns) — callers that display Render
// use InsertKeyed.
func (c *PlanCache) Insert(raw, canonical string, backend machine.Backend, optimize bool, version uint64, plan Node) *CachedPlan {
	return c.InsertKeyed(raw, canonical, canonical, backend, optimize, version, plan)
}

// InsertKeyed is Insert with the index key given apart from the display
// text: key is what LookupCanonical will be asked for (the lossless Format
// text, for the server), canonical only what hits report. The entry
// replaces any existing one under the same key (e.g. one built at a stale
// version).
func (c *PlanCache) InsertKeyed(raw, key, canonical string, backend machine.Backend, optimize bool, version uint64, plan Node) *CachedPlan {
	cp := &CachedPlan{Plan: plan, Canonical: canonical, Rendered: Render(plan)}
	if c == nil || c.cap <= 0 {
		return cp
	}
	e := &planEntry{key: cacheKey(key, backend, optimize), version: version, cp: *cp}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[e.key]; ok {
		c.removeLocked(old)
	}
	c.entries[e.key] = c.ll.PushFront(e)
	c.aliasLocked(e, rawKey(raw, backend, optimize))
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.evictions.Inc()
	}
	c.size.Set(float64(c.ll.Len()))
	return cp
}

// aliasLocked points a raw-text key at an entry, bounding the per-entry
// alias list so adversarially varied whitespace cannot grow the map
// without bound.
func (c *PlanCache) aliasLocked(e *planEntry, rk string) {
	if e == nil || len(e.aliasKeys) >= 8 {
		return
	}
	if cur, ok := c.aliases[rk]; ok && cur == e.key {
		return
	}
	c.aliases[rk] = e.key
	e.aliasKeys = append(e.aliasKeys, rk)
}

func (c *PlanCache) removeLocked(el *list.Element) {
	e := el.Value.(*planEntry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	for _, rk := range e.aliasKeys {
		if c.aliases[rk] == e.key {
			delete(c.aliases, rk)
		}
	}
	c.size.Set(float64(c.ll.Len()))
}

// CacheStats is a point-in-time snapshot of cache effectiveness, shaped
// for /healthz.
type CacheStats struct {
	Capacity      int   `json:"capacity"`
	Size          int   `json:"size"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
}

// Stats snapshots the cache counters; safe on a nil cache.
func (c *PlanCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:      c.cap,
		Size:          c.ll.Len(),
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Invalidations: c.invalidations.Value(),
		Evictions:     c.evictions.Value(),
	}
}

// ScanNames returns the base-relation names a plan reads, in first-visit
// order. The server uses it to refuse caching plans that touch hidden
// (temp) relations, whose lifecycles are not covered by the catalog
// version counter.
func ScanNames(n Node) []string {
	var names []string
	seen := make(map[string]bool)
	var walk func(Node)
	walk = func(n Node) {
		if n == nil {
			return
		}
		if s, ok := n.(Scan); ok {
			if !seen[s.Name] {
				seen[s.Name] = true
				names = append(names, s.Name)
			}
			return
		}
		for _, k := range n.children() {
			walk(k)
		}
	}
	walk(n)
	return names
}
