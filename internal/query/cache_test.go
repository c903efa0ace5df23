package query

import (
	"fmt"
	"sync"
	"testing"

	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
)

func cachePlan(name string) Node { return Dedup{Child: Scan{Name: name}} }

func canonicalOf(t *testing.T, n Node) string {
	t.Helper()
	return Render(n)
}

func TestPlanCacheHitMissAlias(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewPlanCache(4, reg)
	plan := cachePlan("A")
	canon := canonicalOf(t, plan)

	// Raw lookup on an empty cache: alias miss, not yet counted.
	if _, ok := c.Lookup("dedup( scan(A) )", machine.BackendPulse, true, 1); ok {
		t.Fatal("hit on empty cache")
	}
	if st := c.Stats(); st.Misses != 0 {
		t.Fatalf("alias miss counted as a miss: %+v", st)
	}
	// Canonical lookup settles the miss.
	if _, ok := c.LookupCanonical("dedup( scan(A) )", canon, machine.BackendPulse, true, 1); ok {
		t.Fatal("canonical hit on empty cache")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}

	c.Insert("dedup( scan(A) )", canon, machine.BackendPulse, true, 1, plan)
	if st := c.Stats(); st.Size != 1 {
		t.Fatalf("size = %d, want 1", st.Size)
	}
	// The exact raw string now hits without parsing.
	cp, ok := c.Lookup("dedup( scan(A) )", machine.BackendPulse, true, 1)
	if !ok {
		t.Fatal("raw alias lookup missed after insert")
	}
	if cp.Canonical != canon || cp.Rendered == "" {
		t.Fatalf("hit handle incomplete: %+v", cp)
	}
	// A differently-spelled raw string misses on the alias but hits
	// canonically, learning the new spelling.
	if _, ok := c.Lookup("dedup(scan(A))", machine.BackendPulse, true, 1); ok {
		t.Fatal("unlearned raw spelling hit")
	}
	if _, ok := c.LookupCanonical("dedup(scan(A))", canon, machine.BackendPulse, true, 1); !ok {
		t.Fatal("canonical lookup missed")
	}
	if _, ok := c.Lookup("dedup(scan(A))", machine.BackendPulse, true, 1); !ok {
		t.Fatal("alias not learned from canonical hit")
	}

	// Backend and optimize flag partition the key space.
	if _, ok := c.LookupCanonical("x", canon, machine.BackendBitset, true, 1); ok {
		t.Fatal("bitset lookup hit a pulse entry")
	}
	if _, ok := c.LookupCanonical("x", canon, machine.BackendPulse, false, 1); ok {
		t.Fatal("no-optimize lookup hit an optimized entry")
	}
}

func TestPlanCacheVersionInvalidation(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewPlanCache(4, reg)
	plan := cachePlan("A")
	canon := canonicalOf(t, plan)
	c.Insert("q", canon, machine.BackendPulse, true, 7, plan)

	if _, ok := c.LookupCanonical("q", canon, machine.BackendPulse, true, 7); !ok {
		t.Fatal("same-version lookup missed")
	}
	// A bumped catalog version invalidates the entry at lookup time.
	if _, ok := c.LookupCanonical("q", canon, machine.BackendPulse, true, 8); ok {
		t.Fatal("stale entry served after version bump")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Size != 0 {
		t.Errorf("stale entry not evicted: size = %d", st.Size)
	}
	// The alias died with the entry.
	if _, ok := c.Lookup("q", machine.BackendPulse, true, 8); ok {
		t.Fatal("alias survived invalidation")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewPlanCache(2, reg)
	for _, name := range []string{"A", "B"} {
		p := cachePlan(name)
		c.Insert(name, canonicalOf(t, p), machine.BackendPulse, true, 1, p)
	}
	// Touch A so B is the LRU entry.
	if _, ok := c.LookupCanonical("A", canonicalOf(t, cachePlan("A")), machine.BackendPulse, true, 1); !ok {
		t.Fatal("warm entry missed")
	}
	p := cachePlan("C")
	c.Insert("C", canonicalOf(t, p), machine.BackendPulse, true, 1, p)
	if st := c.Stats(); st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v, want size 2 and one eviction", st)
	}
	if _, ok := c.LookupCanonical("B", canonicalOf(t, cachePlan("B")), machine.BackendPulse, true, 1); ok {
		t.Fatal("LRU entry B survived eviction")
	}
	if _, ok := c.LookupCanonical("A", canonicalOf(t, cachePlan("A")), machine.BackendPulse, true, 1); !ok {
		t.Fatal("recently used entry A was evicted")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	var nilCache *PlanCache
	if _, ok := nilCache.Lookup("q", machine.BackendPulse, true, 1); ok {
		t.Fatal("nil cache hit")
	}
	cp := nilCache.Insert("q", "c", machine.BackendPulse, true, 1, cachePlan("A"))
	if cp == nil || cp.Plan == nil {
		t.Fatal("nil cache must still return a usable handle")
	}
	zero := NewPlanCache(0, obs.NewRegistry())
	zero.Insert("q", "c", machine.BackendPulse, true, 1, cachePlan("A"))
	if st := zero.Stats(); st.Size != 0 {
		t.Fatalf("capacity-0 cache stored an entry: %+v", st)
	}
}

func TestScanNames(t *testing.T) {
	plan := Union{
		L: Join{L: Scan{Name: "A"}, R: Scan{Name: "B"}},
		R: Select{Child: Scan{Name: "A"}, Query: ltQ(0, 1)},
	}
	got := ScanNames(plan)
	want := []string{"A", "B"}
	if len(got) != len(want) {
		t.Fatalf("ScanNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanNames = %v, want %v", got, want)
		}
	}
}

// TestPlanCacheConcurrentInvalidation is the race-mode drill: readers hit
// the cache while writers insert at ever-higher versions, mimicking
// concurrent queries against a catalog receiving PUTs. Run with -race.
func TestPlanCacheConcurrentInvalidation(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewPlanCache(8, reg)
	cat := streamCatalog(t, 10)
	plan := Intersect{L: Scan{Name: "A"}, R: Scan{Name: "B"}}
	canon := Render(plan)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: bump the version and re-insert, like preparePlan after a
	// PUT.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := uint64(0); v < 200; v++ {
				c.Insert(fmt.Sprintf("q%d", w), canon, machine.BackendPulse, true, v, plan)
			}
		}(w)
	}
	// Readers: lookup at a sliding version and compile on hits.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for v := uint64(0); v < 200; v++ {
				select {
				case <-stop:
					return
				default:
				}
				cp, ok := c.LookupCanonical(fmt.Sprintf("q%d", r%2), canon, machine.BackendPulse, true, v)
				if !ok {
					continue
				}
				if _, _, err := CompileOpts(cp.Plan, cat, &Options{Metrics: obs.NewRegistry()}); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("drill exercised no lookups")
	}
}
