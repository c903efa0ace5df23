package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"systolicdb/internal/cluster"
	"systolicdb/internal/relation"
)

// coordinatorOver starts a coordinator server (cfg plus a coordinator over
// the given shard servers) and returns its URL. Unlike clusterHarness it
// takes the shards from the caller, so a test can stop one.
func coordinatorOver(t *testing.T, cfg Config, shards ...*httptest.Server) string {
	t.Helper()
	specs := make([]cluster.ShardSpec, len(shards))
	for i, ts := range shards {
		specs[i] = cluster.ShardSpec{Addr: ts.URL}
	}
	cat := NewCatalog()
	// Shards and local fallback operators run the coordinator's backend,
	// as the daemon wires them.
	co, err := cluster.NewCoordinator(specs, cluster.CoordinatorOptions{
		Backend:      cfg.Backend.String(),
		LocalBackend: cfg.Backend,
		Parse: func(text string) (*relation.Relation, error) {
			return cat.ParseTable(strings.NewReader(text), "")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Catalog, cfg.Cluster = cat, co
	_, ts := testServer(t, cfg)
	return ts.URL
}

func shardServers(t *testing.T, n int) []*httptest.Server {
	out := make([]*httptest.Server, n)
	for i := range out {
		_, out[i] = testServer(t, Config{})
	}
	return out
}

// TestCoordinatorResponseBodies pins, byte for byte, what a coordinator
// answers where its answer differs from a single node's: PUT reports the
// shard count, the listing is the relation directory (row counts, no
// columns or domains), an unknown name is a 404 on GET and DELETE, and a
// hidden name's PUT is a local commit, without "shards".
func TestCoordinatorResponseBodies(t *testing.T) {
	coordURL := coordinatorOver(t, Config{}, shardServers(t, 3)...)
	for _, c := range []struct {
		method, path, body string
		code               int
		want               string
	}{
		{"PUT", "/relations/a", clusterKVTable, http.StatusOK,
			`{"columns":["k","v"],"name":"a","rows":6,"shards":3}` + "\n"},
		{"PUT", "/relations/__scratch", clusterKVTable, http.StatusOK,
			`{"columns":["k","v"],"name":"__scratch","rows":6}` + "\n"},
		{"GET", "/relations", "", http.StatusOK,
			`{"relations":[{"name":"a","rows":6,"columns":null,"domains":null}]}` + "\n"},
		{"GET", "/relations/nope", "", http.StatusNotFound,
			`{"error":"unknown relation \"nope\""}` + "\n"},
		{"DELETE", "/relations/nope", "", http.StatusNotFound,
			`{"error":"unknown relation \"nope\""}` + "\n"},
		{"DELETE", "/relations/a", "", http.StatusNoContent, ""},
		{"GET", "/relations/a", "", http.StatusNotFound,
			`{"error":"unknown relation \"a\""}` + "\n"},
		{"GET", "/relations", "", http.StatusOK, `{"relations":[]}` + "\n"},
	} {
		code, body := do(t, c.method, coordURL+c.path, c.body)
		if code != c.code || body != c.want {
			t.Errorf("%s %s = %d %q, want %d %q", c.method, c.path, code, body, c.code, c.want)
		}
	}
}

// TestCoordinatorHiddenGetDeleteStayLocal: GET and DELETE of a reserved
// "__" name are served from the coordinator's own catalog, never from the
// shards (where the name does not exist, so the cluster path would 404).
func TestCoordinatorHiddenGetDeleteStayLocal(t *testing.T) {
	shards := shardServers(t, 2)
	coordURL := coordinatorOver(t, Config{}, shards...)
	if code, body := do(t, "PUT", coordURL+"/relations/__scratch", clusterKVTable); code != http.StatusOK {
		t.Fatalf("hidden put: %d %s", code, body)
	}
	code, body := do(t, "GET", coordURL+"/relations/__scratch", "")
	if code != http.StatusOK || !strings.HasPrefix(body, "#% types: int, int\nk\tv\n") ||
		len(strings.Split(strings.TrimSpace(body), "\n")) != 8 {
		t.Fatalf("hidden get: %d %q, want the local 6-row dump", code, body)
	}
	if code, body := do(t, "DELETE", coordURL+"/relations/__scratch", ""); code != http.StatusNoContent {
		t.Fatalf("hidden delete: %d %s", code, body)
	}
	if code, body := do(t, "GET", coordURL+"/relations/__scratch", ""); code != http.StatusNotFound {
		t.Fatalf("hidden get after delete: %d %s", code, body)
	}
	for _, ts := range shards {
		if code, _ := do(t, "GET", ts.URL+"/relations/__scratch", ""); code != http.StatusNotFound {
			t.Fatalf("hidden relation reached a shard: %d", code)
		}
	}
}

// TestCoordinatorShardUnreachable: with one shard gone, PUT, GET and
// DELETE through the coordinator answer 502 with the JSON error envelope,
// not 503 (the coordinator itself is healthy) and not 400 (the request is
// fine).
func TestCoordinatorShardUnreachable(t *testing.T) {
	shards := shardServers(t, 2)
	coordURL := coordinatorOver(t, Config{}, shards...)
	if code, body := do(t, "PUT", coordURL+"/relations/a", clusterKVTable); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	shards[1].Close()
	for _, c := range []struct{ method, path, body string }{
		{"GET", "/relations/a", ""},
		{"PUT", "/relations/b", clusterKVTable},
		{"DELETE", "/relations/a", ""},
	} {
		code, body := do(t, c.method, coordURL+c.path, c.body)
		if code != http.StatusBadGateway || !strings.HasPrefix(body, `{"error":"`) {
			t.Errorf("%s %s with a shard down = %d %s, want 502", c.method, c.path, code, body)
		}
	}
}
