package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestExecutionOptionMatrix drives every combination of the execution
// options a query request carries — streaming × backend × machine — against
// a single node and against a coordinator, over a divide plan (the one
// operator that blocks even when streaming, so the backend matters on every
// path). Each combination must either produce the table of the plain
// materializing bitset run or be the one documented 400: streaming with
// the machine or through a coordinator.
func TestExecutionOptionMatrix(t *testing.T) {
	coordURL, _ := clusterHarness(t, 3)
	_, single := testServer(t, Config{})
	divisor := "#% types: int, int\nk\tv\n9\t10\n9\t20\n"
	for _, url := range []string{coordURL, single.URL} {
		if code, body := do(t, "PUT", url+"/relations/a", clusterKVTable+"1\t20\n"); code != http.StatusOK {
			t.Fatalf("put a: %d %s", code, body)
		}
		if code, body := do(t, "PUT", url+"/relations/b", divisor); code != http.StatusOK {
			t.Fatalf("put b: %d %s", code, body)
		}
	}
	const plan = "divide(scan(a), scan(b), quot=0, div=1, by=1)"
	want := queryOnce(t, single.URL, map[string]any{"plan": plan, "backend": "bitset"})
	if want.Rows != 1 {
		t.Fatalf("reference run returned %d rows, want 1 (k=1 covers {10,20})", want.Rows)
	}

	for _, node := range []struct {
		name, url string
		coord     bool
	}{{"single", single.URL, false}, {"coordinator", coordURL, true}} {
		for _, streaming := range []bool{false, true} {
			for _, backend := range []string{"pulse", "bitset"} {
				for _, machine := range []bool{false, true} {
					name := fmt.Sprintf("%s/streaming=%v/backend=%s/machine=%v", node.name, streaming, backend, machine)
					req := map[string]any{"plan": plan, "streaming": streaming, "backend": backend, "machine": machine}
					code, body := postQuery(t, node.url, req)
					if streaming && (machine || node.coord) {
						if code != http.StatusBadRequest || !strings.Contains(body, `\"streaming\" runs on the single-node host executor`) {
							t.Errorf("%s: got %d %s, want the documented 400", name, code, body)
						}
						continue
					}
					if code != http.StatusOK {
						t.Errorf("%s: %d %s", name, code, body)
						continue
					}
					var got cacheQueryResp
					if err := json.Unmarshal([]byte(body), &got); err != nil {
						t.Fatalf("%s: response not JSON: %v\n%s", name, err, body)
					}
					if got.Rows != want.Rows || sortedLines(got.Table) != sortedLines(want.Table) {
						t.Errorf("%s: table differs from the materializing bitset run:\n%s\nwant:\n%s", name, got.Table, want.Table)
					}
				}
			}
		}
	}
}

// TestPlanCacheKeyIsLossless is the regression test for the wrong-answer
// bug the PR 11 benchmark found: the cache was keyed on query.Render, which
// omits predicates and join columns, so a second plan differing only in a
// constant (or a column pair) was answered with the first one's rows.
func TestPlanCacheKeyIsLossless(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, name := range []string{"a", "b"} {
		if code, body := do(t, "PUT", ts.URL+"/relations/"+name, clusterKVTable); code != http.StatusOK {
			t.Fatalf("put %s: %d %s", name, code, body)
		}
	}
	for _, c := range []struct {
		plan string
		rows int
	}{
		{"select(scan(a), 0<3)", 2},
		{"select(scan(a), 0<6)", 5},
		{"join(scan(a), scan(b), 0=0)", 6},
		{"join(scan(a), scan(b), 0=1)", 0}, // no k equals any v
	} {
		first := queryOnce(t, ts.URL, map[string]any{"plan": c.plan})
		if first.Rows != c.rows {
			t.Errorf("%s: %d rows, want %d (cache hit %v)", c.plan, first.Rows, c.rows, first.CacheHit)
		}
		// The same text again must still hit, with the same answer.
		again := queryOnce(t, ts.URL, map[string]any{"plan": c.plan})
		if !again.CacheHit || again.Rows != c.rows {
			t.Errorf("%s repeated: cache hit %v, %d rows, want a hit with %d rows", c.plan, again.CacheHit, again.Rows, c.rows)
		}
	}
}
