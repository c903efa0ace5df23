package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"systolicdb/internal/machine"
)

// Len returns the number of stored relations, reserved names included.
func (c *Catalog) Len() int { return len(c.Snapshot()) }

// TestHealthzRelationsMatchListing: /healthz "relations" counts what
// GET /relations lists, on both stores. A shard's staged __tmp_ relation
// is not a user relation, and a coordinator's relations are the ones its
// directory lists, not the reserved entries in its own catalog.
func TestHealthzRelationsMatchListing(t *testing.T) {
	_, single := testServer(t, Config{})
	coordURL := coordinatorOver(t, Config{}, shardServers(t, 2)...)
	for _, c := range []struct{ role, url, staged string }{
		{"single", single.URL, "__tmp_q_1"},
		{"coordinator", coordURL, "__scratch"},
	} {
		for _, name := range []string{"a", "b", c.staged} {
			if code, body := do(t, "PUT", c.url+"/relations/"+name, clusterKVTable); code != http.StatusOK {
				t.Fatalf("%s: put %s: %d %s", c.role, name, code, body)
			}
		}
		var list struct {
			Relations []relationInfo `json:"relations"`
		}
		var health struct {
			Relations int `json:"relations"`
		}
		for path, v := range map[string]any{"/relations": &list, "/healthz": &health} {
			code, body := do(t, "GET", c.url+path, "")
			if code != http.StatusOK {
				t.Fatalf("%s: GET %s: %d %s", c.role, path, code, body)
			}
			if err := json.Unmarshal([]byte(body), v); err != nil {
				t.Fatalf("%s: GET %s: %v", c.role, path, err)
			}
		}
		if len(list.Relations) != 2 || health.Relations != 2 {
			t.Errorf("%s: /relations lists %d, /healthz reports %d relations; want 2 and 2",
				c.role, len(list.Relations), health.Relations)
		}
	}
}

// TestCoordinatorReportsBackendThatRan: a coordinator does not forward a
// request's backend override (its shards and fallback operators run its
// own -backend), so its "backend" field names its own backend, not the
// request's. An unknown name is still a 400.
func TestCoordinatorReportsBackendThatRan(t *testing.T) {
	for _, c := range []struct {
		own      machine.Backend
		override string
	}{{machine.BackendBitset, "pulse"}, {machine.BackendPulse, "bitset"}} {
		coordURL := coordinatorOver(t, Config{Backend: c.own}, shardServers(t, 2)...)
		if code, body := do(t, "PUT", coordURL+"/relations/a", clusterKVTable); code != http.StatusOK {
			t.Fatalf("put: %d %s", code, body)
		}
		code, body := postQuery(t, coordURL, map[string]any{"plan": "dedup(scan(a))", "backend": c.override})
		got := decodeBackendResp(t, body)
		if code != http.StatusOK || got.Backend != c.own.String() || got.Rows != 6 {
			t.Errorf("coordinator on %s, override %s: %d backend=%q rows=%d, want 200 backend=%q rows=6",
				c.own, c.override, code, got.Backend, got.Rows, c.own)
		}
		if code, body := postQuery(t, coordURL, map[string]any{"plan": "scan(a)", "backend": "simd"}); code != http.StatusBadRequest {
			t.Errorf("unknown backend on a coordinator: %d %s, want 400", code, body)
		}
	}
}

// TestIdempotentReplayIsNoOp: a mutation retried under the same
// Idempotency-Key is a successful no-op. A replayed DELETE answers 204, not
// 404, and a replayed PUT does not resurrect what a later DELETE removed.
func TestIdempotentReplayIsNoOp(t *testing.T) {
	_, ts := testServer(t, Config{})
	send := func(method, key, body string) int {
		req, err := http.NewRequest(method, ts.URL+"/relations/a", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, c := range []struct {
		method, key, body string
		want              int
	}{
		{"PUT", "put-1", clusterKVTable, http.StatusOK},
		{"DELETE", "del-1", "", http.StatusNoContent},
		{"DELETE", "del-1", "", http.StatusNoContent},
		{"PUT", "put-1", clusterKVTable, http.StatusOK},
	} {
		if got := send(c.method, c.key, c.body); got != c.want {
			t.Errorf("step %d: %s with key %s = %d, want %d", i, c.method, c.key, got, c.want)
		}
	}
	if code, _ := do(t, "GET", ts.URL+"/relations/a", ""); code != http.StatusNotFound {
		t.Errorf("a replayed PUT resurrected the relation a later DELETE removed: GET = %d", code)
	}
}
