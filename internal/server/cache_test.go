package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

type cacheQueryResp struct {
	Rows              int    `json:"rows"`
	CacheHit          bool   `json:"cache_hit"`
	PeakTuples        int    `json:"peak_tuples"`
	MaterializedNodes int    `json:"materialized_nodes"`
	Table             string `json:"table"`
}

func queryOnce(t *testing.T, url string, req map[string]any) cacheQueryResp {
	t.Helper()
	code, body := postQuery(t, url, req)
	if code != http.StatusOK {
		t.Fatalf("query %v: %d %s", req, code, body)
	}
	var resp cacheQueryResp
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("query response not JSON: %v\n%s", err, body)
	}
	return resp
}

// TestPlanCacheIntegration drives the PUT-invalidates-cache contract end
// to end, on the host executor and on the §9 machine: repeat queries hit,
// a catalog mutation invalidates and changes the next answer, and the
// health endpoint exposes the cache counters.
func TestPlanCacheIntegration(t *testing.T) {
	for _, machine := range []bool{false, true} {
		t.Run(fmt.Sprintf("machine=%t", machine), func(t *testing.T) {
			testPlanCacheIntegration(t, machine)
		})
	}
}

func testPlanCacheIntegration(t *testing.T, machine bool) {
	_, ts := testServer(t, Config{})
	for _, put := range []struct{ name, body string }{{"S", suppliersTable}, {"P", partsTable}} {
		if code, body := do(t, "PUT", ts.URL+"/relations/"+put.name, put.body); code != http.StatusOK {
			t.Fatalf("PUT %s: %d %s", put.name, code, body)
		}
	}
	query := func(text string) map[string]any { return map[string]any{"plan": text, "machine": machine} }
	plan := query("project(join(scan(S), scan(P), 0=0), 1, 2)")

	first := queryOnce(t, ts.URL, plan)
	if first.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	second := queryOnce(t, ts.URL, plan)
	if !second.CacheHit {
		t.Fatal("repeat query missed the plan cache")
	}
	if second.Rows != first.Rows || second.Table != first.Table {
		t.Fatal("cached plan produced a different result")
	}

	// Spelling variations still hit through the canonical index.
	variant := queryOnce(t, ts.URL, query("project( join( scan(S), scan(P), 0=0 ), 1, 2 )"))
	if !variant.CacheHit {
		t.Error("respelled plan text missed the canonical cache index")
	}

	// A PUT bumps the catalog version; the cached plan must not survive,
	// and the next answer reads the new S (supplier 3 gone: P's sid-3 row
	// no longer joins).
	const fewerSuppliers = "#% types: int, dict:names\nsid\tsname\n1\tacme\n2\tglobex\n"
	if code, body := do(t, "PUT", ts.URL+"/relations/S", fewerSuppliers); code != http.StatusOK {
		t.Fatalf("re-PUT S: %d %s", code, body)
	}
	third := queryOnce(t, ts.URL, plan)
	if third.CacheHit {
		t.Fatal("cache served a plan prepared against a replaced catalog")
	}
	if want := first.Rows - 1; third.Rows != want {
		t.Fatalf("rows after re-PUT = %d, want %d", third.Rows, want)
	}
	fourth := queryOnce(t, ts.URL, plan)
	if !fourth.CacheHit {
		t.Fatal("re-prepared plan not re-cached")
	}
	if fourth.Table != third.Table {
		t.Fatal("re-cached plan produced a different result")
	}

	// DELETE invalidates too.
	if code, body := do(t, "DELETE", ts.URL+"/relations/P", ""); code != http.StatusNoContent {
		t.Fatalf("DELETE P: %d %s", code, body)
	}
	if code, _ := postQuery(t, ts.URL, plan); code == http.StatusOK {
		t.Fatal("query of a deleted relation succeeded (stale cached plan?)")
	}

	// /healthz exposes the counters.
	code, body := do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var health struct {
		PlanCache *struct {
			Hits          int64 `json:"hits"`
			Misses        int64 `json:"misses"`
			Invalidations int64 `json:"invalidations"`
		} `json:"plan_cache"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if health.PlanCache == nil {
		t.Fatalf("healthz missing plan_cache: %s", body)
	}
	if health.PlanCache.Hits < 2 || health.PlanCache.Invalidations < 1 {
		t.Errorf("plan_cache counters %+v, want >=2 hits and >=1 invalidation", *health.PlanCache)
	}
}

// TestPlanCacheMachinePath: machine-mode repeats hit the plan cache and
// still produce the same table.
func TestPlanCacheMachinePath(t *testing.T) {
	_, ts := testServer(t, Config{})
	if code, body := do(t, "PUT", ts.URL+"/relations/S", suppliersTable); code != http.StatusOK {
		t.Fatalf("PUT S: %d %s", code, body)
	}
	req := map[string]any{"plan": "dedup(scan(S))", "machine": true}
	first := queryOnce(t, ts.URL, req)
	second := queryOnce(t, ts.URL, req)
	if !second.CacheHit {
		t.Fatal("machine-mode repeat missed the plan cache")
	}
	if second.Table != first.Table {
		t.Fatal("cached machine transaction produced a different table")
	}
}

// TestPlanCacheDisabled: a negative PlanCacheSize turns caching off.
func TestPlanCacheDisabled(t *testing.T) {
	_, ts := testServer(t, Config{PlanCacheSize: -1})
	if code, body := do(t, "PUT", ts.URL+"/relations/S", suppliersTable); code != http.StatusOK {
		t.Fatalf("PUT S: %d %s", code, body)
	}
	plan := map[string]any{"plan": "dedup(scan(S))"}
	queryOnce(t, ts.URL, plan)
	if queryOnce(t, ts.URL, plan).CacheHit {
		t.Fatal("disabled cache reported a hit")
	}
}

// TestStreamingQueryRequest: the streaming flag selects the iterator
// executor and surfaces its memory profile; combining it with machine
// mode is rejected.
func TestStreamingQueryRequest(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, put := range []struct{ name, body string }{{"S", suppliersTable}, {"P", partsTable}} {
		if code, body := do(t, "PUT", ts.URL+"/relations/"+put.name, put.body); code != http.StatusOK {
			t.Fatalf("PUT %s: %d %s", put.name, code, body)
		}
	}
	plain := queryOnce(t, ts.URL, map[string]any{
		"plan": "join(scan(S), scan(P), 0=0)"})
	streamed := queryOnce(t, ts.URL, map[string]any{
		"plan": "join(scan(S), scan(P), 0=0)", "streaming": true})
	if streamed.Rows != plain.Rows {
		t.Fatalf("streaming rows %d != materializing rows %d", streamed.Rows, plain.Rows)
	}
	if streamed.PeakTuples == 0 {
		t.Error("streaming response missing peak_tuples")
	}
	if streamed.MaterializedNodes != 1 {
		t.Errorf("streaming join materialized %d nodes, want 1 (build side)", streamed.MaterializedNodes)
	}
	if code, body := postQuery(t, ts.URL, map[string]any{
		"plan": "scan(S)", "streaming": true, "machine": true}); code == http.StatusOK {
		t.Fatalf("streaming+machine accepted: %s", body)
	}
}

// TestPlanCacheConcurrentHitsAndPuts is the server-level race drill:
// readers repeat a cached query while writers re-PUT a relation, bumping
// the version under them. Run with -race; every response must be either
// a consistent 200 or a clean client error, never a stale result.
func TestPlanCacheConcurrentHitsAndPuts(t *testing.T) {
	_, ts := testServer(t, Config{})
	if code, body := do(t, "PUT", ts.URL+"/relations/S", suppliersTable); code != http.StatusOK {
		t.Fatalf("PUT S: %d %s", code, body)
	}
	want := queryOnce(t, ts.URL, map[string]any{"plan": "dedup(scan(S))"})

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				code, body := postQuery(t, ts.URL, map[string]any{"plan": "dedup(scan(S))"})
				if code != http.StatusOK {
					errs <- fmt.Sprintf("query: %d %s", code, body)
					return
				}
				var resp cacheQueryResp
				if err := json.Unmarshal([]byte(body), &resp); err != nil {
					errs <- err.Error()
					return
				}
				if resp.Rows != want.Rows {
					errs <- fmt.Sprintf("rows %d, want %d", resp.Rows, want.Rows)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if code, body := do(t, "PUT", ts.URL+"/relations/S", suppliersTable); code != http.StatusOK {
					errs <- fmt.Sprintf("PUT: %d %s", code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if e, ok := <-errs; ok {
		t.Fatal(e)
	}
}
