package cluster_test

// Failover-ladder and replication tests. These live in the external test
// package so they can use real server.Server instances as shard backends
// (server imports cluster, so an in-package test would be an import
// cycle). Failure injection wraps each shard's handler in a proxy that
// can answer 500 or play dead on demand.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"systolicdb/internal/cluster"
	"systolicdb/internal/fault"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
	"systolicdb/internal/server"
)

const kvTable = `#% types: int, int
k	v
1	10
2	20
3	30
4	40
5	50
6	60
`

// flakyShard is a real single-node server behind a failure-injecting
// proxy.
type flakyShard struct {
	ts   *httptest.Server
	fail atomic.Int32 // next N requests answer 500
	down atomic.Bool  // every request answers 500
	reqs atomic.Int32
}

func newFlakyShard(t *testing.T) *flakyShard {
	t.Helper()
	f := &flakyShard{}
	inner := server.New(server.Config{}).Handler()
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.reqs.Add(1)
		if f.down.Load() || f.fail.Add(-1) >= 0 {
			http.Error(w, `{"error":"injected shard failure"}`, http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

// fastRetry keeps the ladder's backoff out of test wall-clock.
var fastRetry = fault.RetryPolicy{MaxAttempts: 4, BaseDelay: 1, MaxDelay: 1}

func newTestCoordinator(t *testing.T, specs []cluster.ShardSpec, opt cluster.CoordinatorOptions) *cluster.Coordinator {
	t.Helper()
	cat := server.NewCatalog()
	opt.Parse = func(text string) (*relation.Relation, error) {
		return cat.ParseTable(strings.NewReader(text), "")
	}
	if opt.Retry.MaxAttempts == 0 {
		opt.Retry = fastRetry
	}
	c, err := cluster.NewCoordinator(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func putKV(t *testing.T, c *cluster.Coordinator, name string) {
	t.Helper()
	cat := server.NewCatalog()
	rel, err := cat.ParseTable(strings.NewReader(kvTable), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutKeyed(context.Background(), name, "", rel); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverRetriesTransientFailure(t *testing.T) {
	s0, s1 := newFlakyShard(t), newFlakyShard(t)
	c := newTestCoordinator(t, []cluster.ShardSpec{{Addr: s0.ts.URL}, {Addr: s1.ts.URL}},
		cluster.CoordinatorOptions{PromoteAfter: 3})
	putKV(t, c, "r")

	// Two consecutive 500s stay under PromoteAfter=3: the ladder retries
	// through them and the shard is never quarantined.
	s0.fail.Store(2)
	rel, err := c.Execute(context.Background(), query.Scan{Name: "r"})
	if err != nil {
		t.Fatalf("query through transient failures: %v", err)
	}
	if rel.Cardinality() != 6 {
		t.Fatalf("gathered %d rows, want 6", rel.Cardinality())
	}
	for _, sh := range c.Topology() {
		if sh.Promoted || sh.Quarantined {
			t.Fatalf("transient failure escalated: %+v", sh)
		}
	}
}

func TestFailoverPromotesReplicaWithoutDataLoss(t *testing.T) {
	prim, repl, other := newFlakyShard(t), newFlakyShard(t), newFlakyShard(t)
	var persistMu sync.Mutex
	persisted := map[string]*relation.Relation{}
	c := newTestCoordinator(t,
		[]cluster.ShardSpec{{Addr: prim.ts.URL, Replica: repl.ts.URL}, {Addr: other.ts.URL}},
		cluster.CoordinatorOptions{
			PromoteAfter: 2,
			Retry:        fault.RetryPolicy{MaxAttempts: 8, BaseDelay: 1, MaxDelay: 1},
			Persist: func(name string, rel *relation.Relation) error {
				persistMu.Lock()
				defer persistMu.Unlock()
				persisted[name] = rel
				return nil
			},
		})
	// The PUT dual-writes shard 0's partition to primary AND replica.
	putKV(t, c, "r")

	// Kill the primary for good: the ladder fails it PromoteAfter times,
	// quarantines it, promotes the replica, and the query completes with
	// every acked row.
	prim.down.Store(true)
	rel, err := c.Execute(context.Background(), query.Scan{Name: "r"})
	if err != nil {
		t.Fatalf("query across primary loss: %v", err)
	}
	if rel.Cardinality() != 6 {
		t.Fatalf("lost acked rows: gathered %d, want 6", rel.Cardinality())
	}

	topo := c.Topology()
	if !topo[0].Promoted || topo[0].Replica != "" || topo[0].Primary != repl.ts.URL {
		t.Fatalf("shard 0 after promotion = %+v", topo[0])
	}
	if topo[0].Quarantined {
		t.Fatalf("promotion should revive the slot: %+v", topo[0])
	}
	if topo[1].Promoted {
		t.Fatalf("healthy shard promoted: %+v", topo[1])
	}
	if !c.Degraded() {
		t.Fatal("cluster should report degraded after losing failover headroom")
	}

	// The promotion was persisted through the membership relation.
	persistMu.Lock()
	members := persisted[cluster.MembershipRelationName]
	persistMu.Unlock()
	if members == nil {
		t.Fatal("membership relation never persisted")
	}
	foundPromoted := false
	for i := 0; i < members.Cardinality(); i++ {
		tup := members.Tuple(i)
		role, err := members.Schema().Col(1).Domain.DecodeString(tup[1])
		if err != nil {
			t.Fatal(err)
		}
		promoted, err := members.Schema().Col(3).Domain.DecodeBool(tup[3])
		if err != nil {
			t.Fatal(err)
		}
		if int(tup[0]) == 0 && role == "primary" && promoted {
			foundPromoted = true
		}
	}
	if !foundPromoted {
		t.Fatalf("persisted membership missing the promoted primary:\n%v", members)
	}

	// Writes keep flowing to the promoted primary.
	putKV(t, c, "r2")
	if rel, err := c.Execute(context.Background(), query.Scan{Name: "r2"}); err != nil || rel.Cardinality() != 6 {
		t.Fatalf("post-promotion put/scan: %v (rows %v)", err, rel)
	}
}

func TestFailoverQuarantineWithoutReplicaIsTerminal(t *testing.T) {
	sick, healthy := newFlakyShard(t), newFlakyShard(t)
	c := newTestCoordinator(t, []cluster.ShardSpec{{Addr: sick.ts.URL}, {Addr: healthy.ts.URL}},
		cluster.CoordinatorOptions{
			PromoteAfter: 2,
			Retry:        fault.RetryPolicy{MaxAttempts: 8, BaseDelay: 1, MaxDelay: 1},
		})
	putKV(t, c, "r")

	sick.down.Store(true)
	_, err := c.Execute(context.Background(), query.Scan{Name: "r"})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("unreplicated dead shard: err = %v, want quarantine", err)
	}

	// The quarantine is sticky: the next call fails immediately on the
	// terminal rung without touching the shard again.
	before := sick.reqs.Load()
	_, err = c.Execute(context.Background(), query.Scan{Name: "r"})
	if err == nil || !strings.Contains(err.Error(), "no replica left") {
		t.Fatalf("quarantined shard: err = %v, want terminal", err)
	}
	if sick.reqs.Load() != before {
		t.Fatalf("terminal rung still sent %d requests to the quarantined shard", sick.reqs.Load()-before)
	}
}

func TestPutRequiresReplicaAck(t *testing.T) {
	prim, repl := newFlakyShard(t), newFlakyShard(t)
	c := newTestCoordinator(t, []cluster.ShardSpec{{Addr: prim.ts.URL, Replica: repl.ts.URL}},
		cluster.CoordinatorOptions{})

	// A dead replica must fail the whole Put: acking with only one copy
	// would let a later promotion lose the write.
	repl.down.Store(true)
	cat := server.NewCatalog()
	rel, err := cat.ParseTable(strings.NewReader(kvTable), "")
	if err != nil {
		t.Fatal(err)
	}
	err = c.PutKeyed(context.Background(), "r", "", rel)
	if err == nil || !strings.Contains(err.Error(), "not acked") {
		t.Fatalf("put with dead replica: err = %v, want replica-ack failure", err)
	}
}

func TestNonRetryableErrorFailsFast(t *testing.T) {
	s0 := newFlakyShard(t)
	c := newTestCoordinator(t, []cluster.ShardSpec{{Addr: s0.ts.URL}}, cluster.CoordinatorOptions{})
	putKV(t, c, "r")

	// A malformed sub-query is the caller's fault (4xx): no retries, no
	// quarantine.
	before := s0.reqs.Load()
	_, err := c.Execute(context.Background(), query.Scan{Name: "no_such_relation"})
	if err == nil {
		t.Fatal("scan of unknown relation should fail")
	}
	if got := s0.reqs.Load() - before; got != 1 {
		t.Fatalf("non-retryable failure hit the shard %d times, want 1", got)
	}
	if c.Topology()[0].Quarantined {
		t.Fatal("caller mistake quarantined the shard")
	}
}

func TestParseShardSpecs(t *testing.T) {
	specs, err := cluster.ParseShardSpecs(" 127.0.0.1:7001 = 127.0.0.1:7101 , 127.0.0.1:7002 ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.ShardSpec{
		{Addr: "127.0.0.1:7001", Replica: "127.0.0.1:7101"},
		{Addr: "127.0.0.1:7002"},
	}
	if len(specs) != len(want) || specs[0] != want[0] || specs[1] != want[1] {
		t.Fatalf("parsed %+v, want %+v", specs, want)
	}
	for _, bad := range []string{"", " , ", "=replica.only"} {
		if _, err := cluster.ParseShardSpecs(bad); err == nil {
			t.Fatalf("ParseShardSpecs(%q) should fail", bad)
		}
	}
}

// TestNewCoordinatorRejectsDuplicateAddress: one daemon listed in two
// roles would hold two partitions under one name, so the later PUT
// overwrites the earlier and every scatter reads it twice.
func TestNewCoordinatorRejectsDuplicateAddress(t *testing.T) {
	parse := func(string) (*relation.Relation, error) { return nil, nil }
	for _, c := range []struct{ shards, dup string }{
		{"a,a", "http://a"},
		{"a=a", "http://a"},
		{"a=b,b", "http://b"},
		{"a=b,c=b", "http://b"},
		{"a,http://a", "http://a"},
	} {
		specs, err := cluster.ParseShardSpecs(c.shards)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cluster.NewCoordinator(specs, cluster.CoordinatorOptions{Parse: parse})
		if err == nil || !strings.Contains(err.Error(), c.dup) {
			t.Errorf("-shards %s: err = %v, want one naming %s", c.shards, err, c.dup)
		}
	}
	specs, err := cluster.ParseShardSpecs("a=b,c=d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewCoordinator(specs, cluster.CoordinatorOptions{Parse: parse}); err != nil {
		t.Fatalf("distinct addresses refused: %v", err)
	}
}

func TestMembershipRelationEncodesTopology(t *testing.T) {
	rel, err := cluster.MembershipRelation([]cluster.ShardInfo{
		{ID: 0, Primary: "http://a", Replica: "http://b"},
		{ID: 1, Primary: "http://c", Promoted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One row per (shard, role, addr): shard 0 has two, shard 1 one.
	if rel.Cardinality() != 3 {
		t.Fatalf("membership has %d rows, want 3", rel.Cardinality())
	}
	roles := map[string]int{}
	for i := 0; i < rel.Cardinality(); i++ {
		role, err := rel.Schema().Col(1).Domain.DecodeString(rel.Tuple(i)[1])
		if err != nil {
			t.Fatal(err)
		}
		roles[role]++
	}
	if roles["primary"] != 2 || roles["replica"] != 1 {
		t.Fatalf("membership roles = %v", roles)
	}
}

func TestReconcileMembershipReplaysPromotion(t *testing.T) {
	prim, repl := newFlakyShard(t), newFlakyShard(t)
	specs := []cluster.ShardSpec{{Addr: prim.ts.URL, Replica: repl.ts.URL}}

	// A previous run promoted the replica; its persisted shard map says
	// the primary is now the replica's address.
	recovered, err := cluster.MembershipRelation([]cluster.ShardInfo{
		{ID: 0, Primary: repl.ts.URL, Promoted: true},
	})
	if err != nil {
		t.Fatal(err)
	}

	c := newTestCoordinator(t, specs, cluster.CoordinatorOptions{})
	if err := c.ReconcileMembership(recovered); err != nil {
		t.Fatal(err)
	}
	topo := c.Topology()
	if !topo[0].Promoted || topo[0].Primary != repl.ts.URL || topo[0].Replica != "" {
		t.Fatalf("restart did not replay the promotion: %+v", topo[0])
	}

	// A shard map matching the configured topology changes nothing.
	c2 := newTestCoordinator(t, specs, cluster.CoordinatorOptions{})
	unchanged, err := cluster.MembershipRelation(c2.Topology())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.ReconcileMembership(unchanged); err != nil {
		t.Fatal(err)
	}
	if topo := c2.Topology(); topo[0].Promoted || topo[0].Primary != prim.ts.URL {
		t.Fatalf("matching shard map mutated topology: %+v", topo[0])
	}

	if err := c2.ReconcileMembership(nil); err == nil {
		t.Fatal("ReconcileMembership(nil) should fail")
	}
}

func TestRestoreDirectory(t *testing.T) {
	s0 := newFlakyShard(t)
	var persistMu sync.Mutex
	persisted := map[string]*relation.Relation{}
	c := newTestCoordinator(t, []cluster.ShardSpec{{Addr: s0.ts.URL}}, cluster.CoordinatorOptions{
		Persist: func(name string, rel *relation.Relation) error {
			persistMu.Lock()
			defer persistMu.Unlock()
			persisted[name] = rel
			return nil
		},
	})
	putKV(t, c, "r")

	persistMu.Lock()
	dir := persisted[cluster.RelationsRelationName]
	persistMu.Unlock()
	if dir == nil {
		t.Fatal("relation directory never persisted")
	}

	// A second coordinator (fresh restart) restores the directory — the
	// width oracle and row counts — from the persisted relation.
	c2 := newTestCoordinator(t, []cluster.ShardSpec{{Addr: s0.ts.URL}}, cluster.CoordinatorOptions{})
	if _, ok := c2.Rows("r"); ok {
		t.Fatal("fresh coordinator should not know r yet")
	}
	if err := c2.RestoreDirectory(dir); err != nil {
		t.Fatal(err)
	}
	if rows, ok := c2.Rows("r"); !ok || rows != 6 {
		t.Fatalf("restored rows(r) = %d, %v; want 6, true", rows, ok)
	}
	if names := c2.Names(); len(names) != 1 || names[0] != "r" {
		t.Fatalf("restored names = %v", names)
	}
	if err := c2.RestoreDirectory(nil); err == nil {
		t.Fatal("RestoreDirectory(nil) should fail")
	}
}

func TestRecoveryOrderPreservesDirectory(t *testing.T) {
	// Boot-order regression: ReconcileMembership re-persists the whole
	// coordinator state whenever the recovered shard map differs from the
	// configured topology — including the "keep the promoted mark" case
	// where the operator restarts with the promoted replica as the sole
	// primary. If that persist runs before RestoreDirectory, it commits an
	// empty relation directory over the recovered one and every
	// previously-acked relation becomes "unknown" after restart.
	prim, repl := newFlakyShard(t), newFlakyShard(t)
	var persistMu sync.Mutex
	persisted := map[string]*relation.Relation{}
	persist := func(name string, rel *relation.Relation) error {
		persistMu.Lock()
		defer persistMu.Unlock()
		persisted[name] = rel
		return nil
	}

	c := newTestCoordinator(t, []cluster.ShardSpec{{Addr: prim.ts.URL, Replica: repl.ts.URL}},
		cluster.CoordinatorOptions{Persist: persist})
	putKV(t, c, "r")

	// A previous run promoted the replica and then crashed; the operator
	// restarts the coordinator with the ex-replica as shard 0's only node.
	membership, err := cluster.MembershipRelation([]cluster.ShardInfo{
		{ID: 0, Primary: repl.ts.URL, Promoted: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	persistMu.Lock()
	dir := persisted[cluster.RelationsRelationName]
	persistMu.Unlock()
	if dir == nil || dir.Cardinality() == 0 {
		t.Fatal("relation directory never persisted")
	}

	c2 := newTestCoordinator(t, []cluster.ShardSpec{{Addr: repl.ts.URL}},
		cluster.CoordinatorOptions{Persist: persist})
	// The documented boot order: directory first, then shard map.
	if err := c2.RestoreDirectory(dir); err != nil {
		t.Fatal(err)
	}
	if err := c2.ReconcileMembership(membership); err != nil {
		t.Fatal(err)
	}

	if topo := c2.Topology(); !topo[0].Promoted || topo[0].Primary != repl.ts.URL {
		t.Fatalf("promoted mark lost across restart: %+v", topo[0])
	}
	if rows, ok := c2.Rows("r"); !ok || rows != 6 {
		t.Fatalf("restored rows(r) = %d, %v; want 6, true", rows, ok)
	}
	// The reconcile above re-persisted state (the topology changed); the
	// directory it wrote must still describe r, not be empty.
	persistMu.Lock()
	dir2 := persisted[cluster.RelationsRelationName]
	persistMu.Unlock()
	if dir2 == nil || dir2.Cardinality() == 0 {
		t.Fatal("reconcile clobbered the restored relation directory with an empty one")
	}
}

// mapApplier is an in-memory Applier for follower tests. It honours
// idempotency keys the way a real shard does: a key already applied is
// acked without re-applying.
type mapApplier struct {
	mu   sync.Mutex
	rels map[string]*relation.Relation
	keys map[string]bool
}

func newMapApplier() *mapApplier {
	return &mapApplier{rels: map[string]*relation.Relation{}, keys: map[string]bool{}}
}

func (m *mapApplier) ApplyPut(name, key string, rel *relation.Relation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key != "" {
		if m.keys[key] {
			return nil
		}
		m.keys[key] = true
	}
	m.rels[name] = rel
	return nil
}

func (m *mapApplier) ApplyDelete(name, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key != "" {
		if m.keys[key] {
			return nil
		}
		m.keys[key] = true
	}
	delete(m.rels, name)
	return nil
}

func (m *mapApplier) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.rels))
	for n := range m.rels {
		out = append(out, n)
	}
	return out
}

func (m *mapApplier) get(name string) (*relation.Relation, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.rels[name]
	return r, ok
}

func TestFollowerFullResync(t *testing.T) {
	// A primary whose log can't bridge the gap answers full:true with a
	// state snapshot; the follower must converge to exactly that state,
	// dropping relations the primary no longer has.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/wal/ship" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"seq":42,"full":true,"state":{"a":` + jsonString(kvTable) + `,"b":` + jsonString(kvTable) + `}}`))
	}))
	defer ts.Close()

	cat := server.NewCatalog()
	parse := func(text string) (*relation.Relation, error) {
		return cat.ParseTable(strings.NewReader(text), "")
	}
	apply := newMapApplier()
	stale, err := parse(kvTable)
	if err != nil {
		t.Fatal(err)
	}
	_ = apply.ApplyPut("stale", "", stale)

	f := cluster.NewFollower(cluster.NewShardClient(ts.URL, parse, cluster.ClientOptions{}), apply, parse, 0, nil)
	if err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Seq() != 42 {
		t.Fatalf("seq after full resync = %d, want 42", f.Seq())
	}
	for _, name := range []string{"a", "b"} {
		if rel, ok := apply.get(name); !ok || rel.Cardinality() != 6 {
			t.Fatalf("resynced relation %q missing or wrong size", name)
		}
	}
	if _, ok := apply.get("stale"); ok {
		t.Fatal("full resync kept a relation the primary no longer has")
	}
}

func jsonString(s string) string {
	b := new(strings.Builder)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '"':
			b.WriteString(`\"`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}
