package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"systolicdb/internal/cluster"
	"systolicdb/internal/relation"
	"systolicdb/internal/wal"
)

const clusterKVTable = `#% types: int, int
k	v
1	10
2	20
3	30
4	40
5	50
6	60
`

// TestQueryBodyLimitConfigurable is the regression test for the query
// body cap: it must come from Config.MaxBodyBytes (shared with relation
// uploads), answer 413 when exceeded, and not be stuck at the old
// hardwired 1 MiB.
func TestQueryBodyLimitConfigurable(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 256})
	code, body := do(t, "POST", ts.URL+"/query",
		fmt.Sprintf(`{"plan":"scan(%s)"}`, strings.Repeat("x", 300)))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query body: code %d body %s", code, body)
	}

	// A body beyond the old hardwired 1 MiB but under the configured cap
	// must be read in full (the junk backend then fails as a 400, not 413).
	_, ts2 := testServer(t, Config{MaxBodyBytes: 4 << 20})
	big := fmt.Sprintf(`{"plan":"scan(a)","backend":"%s"}`, strings.Repeat("p", 2<<20))
	if code, _ := do(t, "POST", ts2.URL+"/query", big); code == http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body under a 4 MiB cap was rejected as too large")
	}
}

func TestServerTimeoutDefaults(t *testing.T) {
	s := New(Config{ReadTimeout: 7 * time.Second, IdleTimeout: 9 * time.Second})
	if s.cfg.ReadTimeout != 7*time.Second || s.cfg.IdleTimeout != 9*time.Second {
		t.Fatalf("configured timeouts lost: read=%v idle=%v", s.cfg.ReadTimeout, s.cfg.IdleTimeout)
	}
	d := New(Config{})
	if d.cfg.ReadTimeout != 2*time.Minute || d.cfg.IdleTimeout != 2*time.Minute {
		t.Fatalf("default timeouts wrong: read=%v idle=%v", d.cfg.ReadTimeout, d.cfg.IdleTimeout)
	}
}

func TestTempRelationsSkipWALAndListing(t *testing.T) {
	cat := NewCatalog()
	log, err := wal.Open(wal.Options{Dir: t.TempDir(), Decode: func(table string) (*relation.Relation, error) {
		return cat.ParseTable(strings.NewReader(table), "")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	_, ts := testServer(t, Config{Catalog: cat, WAL: log})

	if code, body := do(t, "PUT", ts.URL+"/relations/base", clusterKVTable); code != http.StatusOK {
		t.Fatalf("put base: %d %s", code, body)
	}
	if code, body := do(t, "PUT", ts.URL+"/relations/__tmp_x_1", clusterKVTable); code != http.StatusOK {
		t.Fatalf("put temp: %d %s", code, body)
	}
	if got := log.Seq(); got != 1 {
		t.Fatalf("WAL seq = %d after one durable and one temp put, want 1", got)
	}

	// The temp is queryable but hidden from the listing.
	if code, body := do(t, "POST", ts.URL+"/query", `{"plan":"scan(__tmp_x_1)"}`); code != http.StatusOK {
		t.Fatalf("query temp: %d %s", code, body)
	}
	code, body := do(t, "GET", ts.URL+"/relations", "")
	if code != http.StatusOK || strings.Contains(body, "__tmp_x_1") {
		t.Fatalf("listing should hide temps: %d %s", code, body)
	}

	// Temp delete is silent in the WAL too.
	if code, body := do(t, "DELETE", ts.URL+"/relations/__tmp_x_1", ""); code != http.StatusNoContent {
		t.Fatalf("delete temp: %d %s", code, body)
	}
	if got := log.Seq(); got != 1 {
		t.Fatalf("WAL seq = %d after temp delete, want 1", got)
	}
}

func TestQueryTableTypes(t *testing.T) {
	_, ts := testServer(t, Config{})
	if code, body := do(t, "PUT", ts.URL+"/relations/a", clusterKVTable); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	code, body := do(t, "POST", ts.URL+"/query", `{"plan":"scan(a)","table_types":true}`)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	var resp struct {
		Table string `json:"table"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Table, "#% types:") {
		t.Fatalf("table_types response missing types directive: %q", resp.Table)
	}
}

func TestWALShipEndpoint(t *testing.T) {
	cat := NewCatalog()
	log, err := wal.Open(wal.Options{Dir: t.TempDir(), Decode: func(table string) (*relation.Relation, error) {
		return cat.ParseTable(strings.NewReader(table), "")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	_, ts := testServer(t, Config{Catalog: cat, WAL: log})

	do(t, "PUT", ts.URL+"/relations/a", clusterKVTable)
	do(t, "PUT", ts.URL+"/relations/b", clusterKVTable)
	do(t, "DELETE", ts.URL+"/relations/b", "")

	var resp struct {
		Seq     uint64           `json:"seq"`
		Full    bool             `json:"full"`
		Records []wal.ShipRecord `json:"records"`
	}
	code, body := do(t, "GET", ts.URL+"/wal/ship?after=0", "")
	if code != http.StatusOK {
		t.Fatalf("ship: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Full || len(resp.Records) != 3 || resp.Seq != 3 {
		t.Fatalf("ship from 0 = full:%v records:%d seq:%d", resp.Full, len(resp.Records), resp.Seq)
	}
	if resp.Records[2].Op != "del" || resp.Records[2].Name != "b" {
		t.Fatalf("last shipped record = %+v", resp.Records[2])
	}

	// A caught-up follower gets an empty incremental answer.
	code, body = do(t, "GET", ts.URL+"/wal/ship?after=3", "")
	if code != http.StatusOK {
		t.Fatalf("ship caught up: %d %s", code, body)
	}
	var caught struct {
		Seq     uint64           `json:"seq"`
		Full    bool             `json:"full"`
		Records []wal.ShipRecord `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &caught); err != nil {
		t.Fatal(err)
	}
	if caught.Full || len(caught.Records) != 0 || caught.Seq != 3 {
		t.Fatalf("caught-up ship = full:%v records:%d seq:%d", caught.Full, len(caught.Records), caught.Seq)
	}

	// A server without a WAL has nothing to ship.
	_, tsNoWAL := testServer(t, Config{})
	if code, _ := do(t, "GET", tsNoWAL.URL+"/wal/ship", ""); code != http.StatusNotFound {
		t.Fatalf("ship without WAL: code %d, want 404", code)
	}
}

// clusterHarness spins up n in-process shard servers plus one coordinator
// server wired to them over real HTTP.
func clusterHarness(t *testing.T, n int) (coordURL string, shardURLs []string) {
	t.Helper()
	specs := make([]cluster.ShardSpec, n)
	for i := 0; i < n; i++ {
		_, ts := testServer(t, Config{})
		shardURLs = append(shardURLs, ts.URL)
		specs[i] = cluster.ShardSpec{Addr: ts.URL}
	}
	coordCat := NewCatalog()
	co, err := cluster.NewCoordinator(specs, cluster.CoordinatorOptions{
		Parse: func(text string) (*relation.Relation, error) {
			return coordCat.ParseTable(strings.NewReader(text), "")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := New(Config{Catalog: coordCat, Cluster: co})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, shardURLs
}

func TestCoordinatorEndToEnd(t *testing.T) {
	coordURL, shardURLs := clusterHarness(t, 3)

	// PUT through the coordinator partitions across the shards.
	if code, body := do(t, "PUT", coordURL+"/relations/a", clusterKVTable); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	total := 0
	for _, u := range shardURLs {
		code, body := do(t, "POST", u+"/query", `{"plan":"scan(a)","no_table":true}`)
		if code != http.StatusOK {
			t.Fatalf("shard query: %d %s", code, body)
		}
		var resp struct {
			Rows int `json:"rows"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		total += resp.Rows
	}
	if total != 6 {
		t.Fatalf("shards hold %d rows in total, want 6", total)
	}

	// Distributed query through the coordinator.
	code, body := do(t, "POST", coordURL+"/query", `{"plan":"select(scan(a),1>20)"}`)
	if code != http.StatusOK {
		t.Fatalf("coordinator query: %d %s", code, body)
	}
	var qresp struct {
		Rows        int  `json:"rows"`
		Distributed bool `json:"distributed"`
	}
	if err := json.Unmarshal([]byte(body), &qresp); err != nil {
		t.Fatal(err)
	}
	if qresp.Rows != 4 || !qresp.Distributed {
		t.Fatalf("coordinator query rows=%d distributed=%v, want 4, true", qresp.Rows, qresp.Distributed)
	}

	// GET gathers the whole relation back: types + header + 6 rows.
	code, body = do(t, "GET", coordURL+"/relations/a", "")
	if code != http.StatusOK || !strings.HasPrefix(body, "#% types:") {
		t.Fatalf("gather: %d %q", code, body)
	}
	if got := len(strings.Split(strings.TrimSpace(body), "\n")); got != 8 {
		t.Fatalf("gathered dump has %d lines, want 8:\n%s", got, body)
	}

	// Listing reflects the directory; healthz shows the topology.
	code, body = do(t, "GET", coordURL+"/relations", "")
	if code != http.StatusOK || !strings.Contains(body, `"name":"a"`) {
		t.Fatalf("list: %d %s", code, body)
	}
	code, body = do(t, "GET", coordURL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var health struct {
		Status  string `json:"status"`
		Cluster *struct {
			Shards  []cluster.ShardInfo `json:"shards"`
			Serving bool                `json:"serving"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Cluster == nil || len(health.Cluster.Shards) != 3 || !health.Cluster.Serving {
		t.Fatalf("healthz cluster section = %s", body)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz status = %q, want ok", health.Status)
	}

	// DELETE removes the relation from every shard.
	if code, _ := do(t, "DELETE", coordURL+"/relations/a", ""); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	for _, u := range shardURLs {
		if code, _ := do(t, "GET", u+"/relations/a", ""); code != http.StatusNotFound {
			t.Fatalf("shard still holds deleted relation: %d", code)
		}
	}
	if code, _ := do(t, "GET", coordURL+"/relations/a", ""); code != http.StatusNotFound {
		t.Fatalf("coordinator still lists deleted relation: %d", code)
	}
}

func TestCoordinatorHiddenNamesStayLocal(t *testing.T) {
	coordURL, shardURLs := clusterHarness(t, 2)
	// The reserved "__" namespace (cluster metadata, staged temps) is the
	// coordinator's own: PUTs to it commit locally, never partitioned out,
	// and the listing hides it.
	if code, body := do(t, "PUT", coordURL+"/relations/__scratch", clusterKVTable); code != http.StatusOK {
		t.Fatalf("hidden put: %d %s", code, body)
	}
	for _, u := range shardURLs {
		if code, _ := do(t, "GET", u+"/relations/__scratch", ""); code != http.StatusNotFound {
			t.Fatalf("hidden relation leaked to shard: %d", code)
		}
	}
	if code, body := do(t, "GET", coordURL+"/relations", ""); code != http.StatusOK || strings.Contains(body, "__scratch") {
		t.Fatalf("listing leaks reserved names: %d %s", code, body)
	}
}

// TestCoordinatorPlanCacheSurvivesPut: a coordinator caches only the
// parsed plan, which no mutation can make stale, so a repeated query
// still hits across a PUT and answers from the new rows.
func TestCoordinatorPlanCacheSurvivesPut(t *testing.T) {
	coordURL, _ := clusterHarness(t, 2)
	if code, body := do(t, "PUT", coordURL+"/relations/a", clusterKVTable); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	plan := map[string]any{"plan": "scan(a)"}
	if first := queryOnce(t, coordURL, plan); first.CacheHit || first.Rows != 6 {
		t.Fatalf("first query: hit=%v rows=%d, want a 6-row miss", first.CacheHit, first.Rows)
	}
	if second := queryOnce(t, coordURL, plan); !second.CacheHit {
		t.Fatal("repeat query missed the coordinator's plan cache")
	}
	fewer := "#% types: int, int\nk\tv\n1\t10\n2\t20\n"
	if code, body := do(t, "PUT", coordURL+"/relations/a", fewer); code != http.StatusOK {
		t.Fatalf("re-put: %d %s", code, body)
	}
	if third := queryOnce(t, coordURL, plan); !third.CacheHit || third.Rows != 2 {
		t.Fatalf("after PUT: hit=%v rows=%d, want a 2-row hit", third.CacheHit, third.Rows)
	}
}

func TestCoordinatorMatchesSingleNode(t *testing.T) {
	coordURL, _ := clusterHarness(t, 4)
	_, single := testServer(t, Config{})

	table2 := `#% types: int, int
k	v
1	10
2	20
3	999
7	70
`
	for _, url := range []string{coordURL, single.URL} {
		if code, body := do(t, "PUT", url+"/relations/a", clusterKVTable); code != http.StatusOK {
			t.Fatalf("put a: %d %s", code, body)
		}
		if code, body := do(t, "PUT", url+"/relations/b", table2); code != http.StatusOK {
			t.Fatalf("put b: %d %s", code, body)
		}
	}
	for _, plan := range []string{
		`join(scan(a),scan(b),0=0)`,
		`intersect(scan(a),scan(b))`,
		`difference(scan(a),scan(b))`,
		`union(scan(a),scan(b))`,
		`project(join(scan(a),scan(b),0=0),0,2)`,
		`divide(scan(a),scan(b),quot=0,div=1,by=1)`,
	} {
		req := fmt.Sprintf(`{"plan":"%s"}`, plan)
		codeC, bodyC := do(t, "POST", coordURL+"/query", req)
		codeS, bodyS := do(t, "POST", single.URL+"/query", req)
		if codeC != http.StatusOK || codeS != http.StatusOK {
			t.Fatalf("%s: coordinator %d %s / single %d %s", plan, codeC, bodyC, codeS, bodyS)
		}
		var rc, rs struct {
			Rows  int    `json:"rows"`
			Table string `json:"table"`
		}
		if err := json.Unmarshal([]byte(bodyC), &rc); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(bodyS), &rs); err != nil {
			t.Fatal(err)
		}
		if rc.Rows != rs.Rows {
			t.Fatalf("%s: coordinator %d rows, single-node %d rows", plan, rc.Rows, rs.Rows)
		}
		if sortedLines(rc.Table) != sortedLines(rs.Table) {
			t.Fatalf("%s: results differ:\ncoordinator:\n%s\nsingle:\n%s", plan, rc.Table, rs.Table)
		}
	}
}

func TestFollowerReplicatesThroughServer(t *testing.T) {
	// Primary with a WAL; the replica applies shipped records through its
	// own commit path via the server's Replicator adapter.
	primCat := NewCatalog()
	log, err := wal.Open(wal.Options{Dir: t.TempDir(), Decode: func(table string) (*relation.Relation, error) {
		return primCat.ParseTable(strings.NewReader(table), "")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	_, primTS := testServer(t, Config{Catalog: primCat, WAL: log})

	repCat := NewCatalog()
	replica, _ := testServer(t, Config{Catalog: repCat})

	do(t, "PUT", primTS.URL+"/relations/a", clusterKVTable)
	do(t, "PUT", primTS.URL+"/relations/b", clusterKVTable)
	do(t, "DELETE", primTS.URL+"/relations/b", "")

	parse := func(text string) (*relation.Relation, error) {
		return repCat.ParseTable(strings.NewReader(text), "")
	}
	client := cluster.NewShardClient(primTS.URL, parse, cluster.ClientOptions{})
	f := cluster.NewFollower(client, replica.Replicator(), parse, 0, nil)
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Seq() != 3 {
		t.Fatalf("follower seq = %d, want 3", f.Seq())
	}
	if rel, ok := repCat.Get("a"); !ok || rel.Cardinality() != 6 {
		t.Fatalf("replica relation a missing or wrong size (ok=%v)", ok)
	}
	if _, ok := repCat.Get("b"); ok {
		t.Fatal("replica still holds deleted relation b")
	}

	// Catch-up after further primary writes resumes from the cursor.
	do(t, "PUT", primTS.URL+"/relations/c", clusterKVTable)
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := repCat.Get("c"); !ok {
		t.Fatal("replica missing catch-up relation c")
	}
	if f.Seq() != 4 {
		t.Fatalf("follower seq = %d after catch-up, want 4", f.Seq())
	}
}

// TestFollowerSurvivesPrimaryCompactingRestart: a primary that writes its
// final compacting snapshot and restarts keeps its sequence numbers, so a
// follower whose cursor predates the restart still applies the next PUT
// instead of reading itself as caught up.
func TestFollowerSurvivesPrimaryCompactingRestart(t *testing.T) {
	dir := t.TempDir()
	var primary atomic.Pointer[Server]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primary.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	s, _ := durableServer(t, dir, 1000)
	primary.Store(s)
	for _, name := range []string{"a", "b"} {
		if code, body := do(t, "PUT", ts.URL+"/relations/"+name, clusterKVTable); code != http.StatusOK {
			t.Fatalf("put %s: %d %s", name, code, body)
		}
	}

	repCat := NewCatalog()
	replica, _ := testServer(t, Config{Catalog: repCat})
	parse := func(text string) (*relation.Relation, error) {
		return repCat.ParseTable(strings.NewReader(text), "")
	}
	f := cluster.NewFollower(cluster.NewShardClient(ts.URL, parse, cluster.ClientOptions{}), replica.Replicator(), parse, 0, nil)
	if err := f.Sync(context.Background()); err != nil || f.Seq() != 2 {
		t.Fatalf("first sync: follower seq %d, err %v", f.Seq(), err)
	}

	// Graceful restart: the final compacting snapshot, then a new server
	// recovering the same directory behind the same address.
	if err := s.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown(context.Background())
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := durableServer(t, dir, 1000)
	primary.Store(s2)

	if code, body := do(t, "PUT", ts.URL+"/relations/c", clusterKVTable); code != http.StatusOK {
		t.Fatalf("put c after the restart: %d %s", code, body)
	}
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := repCat.Get("c"); !ok || f.Seq() != 3 {
		t.Fatalf("replica missed the first PUT after the primary's compacting restart (follower seq %d)", f.Seq())
	}
}

func sortedLines(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
