package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestSingleNodeResponseBodies pins what a single node answers where a
// coordinator answers differently: the listing carries every relation's
// columns and domains, a dump that succeeds counts no dump error, and a
// query runs through the optimizer unless the request opts out.
func TestSingleNodeResponseBodies(t *testing.T) {
	s, ts := testServer(t, Config{})
	for name, table := range map[string]string{"a": clusterKVTable, "b": suppliersTable} {
		if code, body := do(t, "PUT", ts.URL+"/relations/"+name, table); code != http.StatusOK {
			t.Fatalf("put %s: %d %s", name, code, body)
		}
	}
	const list = `{"relations":[` +
		`{"name":"a","rows":6,"columns":["k","v"],"domains":["int","int"]},` +
		`{"name":"b","rows":3,"columns":["sid","sname"],"domains":["int","names"]}]}` + "\n"
	if code, body := do(t, "GET", ts.URL+"/relations", ""); code != http.StatusOK || body != list {
		t.Errorf("list = %d %q, want %q", code, body, list)
	}
	if code, body := do(t, "GET", ts.URL+"/relations/b", ""); code != http.StatusOK || !strings.HasPrefix(body, "#% types: int, dict:names\n") {
		t.Errorf("get b = %d %q", code, body)
	}
	if n := s.reg.Counter("server_dump_errors_total", nil).Value(); n != 0 {
		t.Errorf("server_dump_errors_total = %d after a successful dump, want 0", n)
	}

	const plan = "select(join(scan(a), scan(b), 0=0), 1>20)"
	for _, c := range []struct {
		noOptimize bool
		optimized  string
	}{
		{false, "join(select(scan(a)), scan(b))"},
		{true, "select(join(scan(a), scan(b)))"},
	} {
		code, body := postQuery(t, ts.URL, map[string]any{"plan": plan, "no_table": true, "no_optimize": c.noOptimize})
		var resp struct {
			Optimized string `json:"optimized"`
			Rows      int    `json:"rows"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil || code != http.StatusOK {
			t.Fatalf("query (no_optimize=%v): %d %s", c.noOptimize, code, body)
		}
		if resp.Optimized != c.optimized || resp.Rows != 1 {
			t.Errorf("no_optimize=%v: optimized %q rows %d, want %q and 1", c.noOptimize, resp.Optimized, resp.Rows, c.optimized)
		}
	}
}
