package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer starts an httptest server around a Server with the given
// config.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func postQuery(t *testing.T, url string, req map[string]any) (int, string) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, "POST", url+"/query", string(b))
}

const suppliersTable = `#% types: int, dict:names
sid	sname
1	acme
2	globex
3	initech
`

const partsTable = `#% types: int, int
sid	pid
1	10
1	11
2	10
3	12
`

// TestEndToEndSession walks the whole API surface: load, list, query on
// host and machine, dump, metrics, delete.
func TestEndToEndSession(t *testing.T) {
	_, ts := testServer(t, Config{})

	code, body := do(t, "PUT", ts.URL+"/relations/S", suppliersTable)
	if code != http.StatusOK {
		t.Fatalf("PUT S: %d %s", code, body)
	}
	if code, body = do(t, "PUT", ts.URL+"/relations/P", partsTable); code != http.StatusOK {
		t.Fatalf("PUT P: %d %s", code, body)
	}

	code, body = do(t, "GET", ts.URL+"/relations", "")
	if code != http.StatusOK || !strings.Contains(body, `"name":"P"`) || !strings.Contains(body, `"name":"S"`) {
		t.Fatalf("list: %d %s", code, body)
	}

	// Host execution: suppliers who supply part 10.
	code, body = postQuery(t, ts.URL, map[string]any{
		"plan": "project(join(scan(S), scan(P), 0=0), 1, 2)",
	})
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	var resp struct {
		Rows    int     `json:"rows"`
		Pulses  int     `json:"pulses"`
		Table   string  `json:"table"`
		Elapsed float64 `json:"elapsed_ms"`
		Machine *struct {
			Events int `json:"events"`
		} `json:"machine"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("query response not JSON: %v\n%s", err, body)
	}
	if resp.Rows != 4 || resp.Machine != nil {
		t.Errorf("host query rows=%d machine=%v, want 4, nil\n%s", resp.Rows, resp.Machine, body)
	}
	if resp.Pulses <= 0 {
		t.Errorf("host query reported %d pulses", resp.Pulses)
	}
	if !strings.Contains(resp.Table, "acme") {
		t.Errorf("result table not decoded through domains:\n%s", resp.Table)
	}

	// Same plan on the §9 machine.
	code, body = postQuery(t, ts.URL, map[string]any{
		"plan": "project(join(scan(S), scan(P), 0=0), 1, 2)", "machine": true,
	})
	if code != http.StatusOK {
		t.Fatalf("machine query: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 4 || resp.Machine == nil || resp.Machine.Events == 0 {
		t.Errorf("machine query: rows=%d machine=%+v\n%s", resp.Rows, resp.Machine, body)
	}

	// Dump a relation and reload it under a new name: the text round trip
	// is the wire format.
	code, dump := do(t, "GET", ts.URL+"/relations/S", "")
	if code != http.StatusOK || !strings.Contains(dump, "globex") {
		t.Fatalf("dump: %d %s", code, dump)
	}
	if code, body = do(t, "PUT", ts.URL+"/relations/S2?types=int,dict:names", dump); code != http.StatusOK {
		t.Fatalf("reload dump: %d %s", code, body)
	}

	// Metrics exposes server counters in both formats.
	code, metrics := do(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"server_requests_total", "server_request_seconds", "server_queue_depth",
		"server_rejected_total", "server_queries_total", "query_node_pulses_total",
		"machine_transactions_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	code, jm := do(t, "GET", ts.URL+"/metrics?format=json", "")
	if code != http.StatusOK || !json.Valid([]byte(jm)) {
		t.Fatalf("json metrics: %d valid=%v", code, json.Valid([]byte(jm)))
	}

	// Deletes and 404s.
	if code, _ = do(t, "DELETE", ts.URL+"/relations/S2", ""); code != http.StatusNoContent {
		t.Errorf("delete: %d", code)
	}
	if code, _ = do(t, "DELETE", ts.URL+"/relations/S2", ""); code != http.StatusNotFound {
		t.Errorf("double delete: %d", code)
	}
	if code, _ = do(t, "GET", ts.URL+"/relations/nope", ""); code != http.StatusNotFound {
		t.Errorf("get missing: %d", code)
	}
	if code, _ = do(t, "GET", ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
}

func TestQueryRequestErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	if code, _ := do(t, "POST", ts.URL+"/query", "{not json"); code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d", code)
	}
	if code, _ := postQuery(t, ts.URL, map[string]any{"plan": "  "}); code != http.StatusBadRequest {
		t.Errorf("empty plan: %d", code)
	}
	if code, body := postQuery(t, ts.URL, map[string]any{"plan": "scan(ghost)"}); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown relation: %d %s", code, body)
	}
	if code, _ := postQuery(t, ts.URL, map[string]any{"plan": "scan("}); code != http.StatusUnprocessableEntity {
		t.Errorf("malformed plan: %d", code)
	}
	if code, _ := do(t, "PUT", ts.URL+"/relations/X", "x\nnotanint\n"); code != http.StatusBadRequest {
		t.Errorf("bad table: %d", code)
	}
}

// TestAdmissionControl pins the overload responses deterministically by
// occupying the worker slots directly.
func TestAdmissionControl(t *testing.T) {
	s, ts := testServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	if code, _ := do(t, "PUT", ts.URL+"/relations/A", "x\n1\n2\n"); code != http.StatusOK {
		t.Fatal("PUT failed")
	}

	// Occupy the only worker slot.
	s.sem <- struct{}{}

	// First query queues, then gives up at its deadline: 503.
	code, body := postQuery(t, ts.URL, map[string]any{"plan": "scan(A)", "timeout_ms": 80})
	if code != http.StatusServiceUnavailable {
		t.Errorf("queued-then-timeout: %d %s", code, body)
	}

	// Fill the queue with a waiter, then the next query must get 429.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postQuery(t, ts.URL, map[string]any{"plan": "scan(A)", "timeout_ms": 2000})
	}()
	// Wait until the waiter is queued.
	deadline := time.Now().Add(2 * time.Second)
	for s.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	code, body = postQuery(t, ts.URL, map[string]any{"plan": "scan(A)", "timeout_ms": 500})
	if code != http.StatusTooManyRequests {
		t.Errorf("queue full: %d %s", code, body)
	}
	if !strings.Contains(body, "retry") {
		t.Errorf("429 body should hint at retrying: %s", body)
	}

	// Release the slot; the queued waiter completes.
	<-s.sem
	wg.Wait()

	if s.reg.Counter("server_rejected_total", map[string]string{"reason": "queue_full"}).Value() == 0 {
		t.Error("queue_full rejection not counted")
	}
	if s.reg.Counter("server_rejected_total", map[string]string{"reason": "queue_timeout"}).Value() == 0 {
		t.Error("queue_timeout rejection not counted")
	}
}

// TestQueryDeadline: a query whose deadline expires mid-plan returns 504.
func TestQueryDeadline(t *testing.T) {
	_, ts := testServer(t, Config{})
	// A few hundred tuples makes the simulated join array slow enough
	// that a 1ms deadline always expires first.
	var sb strings.Builder
	sb.WriteString("x\ty\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%d\t%d\n", i%40, i)
	}
	if code, _ := do(t, "PUT", ts.URL+"/relations/big", sb.String()); code != http.StatusOK {
		t.Fatal("PUT failed")
	}
	code, body := postQuery(t, ts.URL, map[string]any{
		"plan": "join(scan(big), scan(big), 0=0)", "timeout_ms": 1,
	})
	if code != http.StatusGatewayTimeout {
		t.Errorf("deadline: %d %s", code, body)
	}
}

// TestGracefulShutdown: draining refuses new queries with 503 but lets
// in-flight queries finish.
func TestGracefulShutdown(t *testing.T) {
	s, ts := testServer(t, Config{MaxConcurrent: 2})
	if code, _ := do(t, "PUT", ts.URL+"/relations/A", "x\n1\n"); code != http.StatusOK {
		t.Fatal("PUT failed")
	}
	s.drain()
	code, body := postQuery(t, ts.URL, map[string]any{"plan": "scan(A)"})
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "shutting down") {
		t.Errorf("draining query: %d %s", code, body)
	}
	if got := s.reg.Counter("server_rejected_total", map[string]string{"reason": "shutdown"}).Value(); got == 0 {
		t.Error("shutdown rejection not counted")
	}
}

// TestStressMixedWorkload is the acceptance stress test: ≥100 concurrent
// clients mixing catalog writes, deletes, host and machine queries, dumps
// and metric scrapes against a small worker pool. Every response must be
// one of the defined codes — overload shows up as 429/503/504, never as a
// hang, a panic or a 500 — and afterwards /metrics must report latency,
// queue depth and rejections. Run with -race this also hammers the
// copy-on-write catalog from all sides.
func TestStressMixedWorkload(t *testing.T) {
	s, ts := testServer(t, Config{MaxConcurrent: 2, MaxQueue: 4, DefaultTimeout: 5 * time.Second})

	// Base relations: one small, one slow enough to pile up queries.
	var big strings.Builder
	big.WriteString("x\ty\n")
	for i := 0; i < 220; i++ {
		fmt.Fprintf(&big, "%d\t%d\n", i%25, i)
	}
	if code, _ := do(t, "PUT", ts.URL+"/relations/big", big.String()); code != http.StatusOK {
		t.Fatal("seed PUT failed")
	}
	if code, _ := do(t, "PUT", ts.URL+"/relations/small", "x\ty\n1\t2\n3\t4\n"); code != http.StatusOK {
		t.Fatal("seed PUT failed")
	}

	const clients = 120
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusNoContent: true, http.StatusNotFound: true,
		http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout: true,
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 6; i++ {
				var (
					method, url, body string
				)
				switch rng.Intn(10) {
				case 0: // write a private relation
					method, url = "PUT", fmt.Sprintf("%s/relations/scratch%d", ts.URL, c%8)
					body = "x\ty\n5\t6\n"
				case 1: // overwrite a shared, contended name
					method, url = "PUT", ts.URL+"/relations/shared"
					body = fmt.Sprintf("x\ty\n%d\t%d\n", c, i)
				case 2:
					method, url = "DELETE", fmt.Sprintf("%s/relations/scratch%d", ts.URL, c%8)
				case 3:
					method, url = "GET", ts.URL+"/relations"
				case 4:
					method, url = "GET", ts.URL+"/relations/big"
				case 5:
					method, url = "GET", ts.URL+"/metrics"
				case 6: // machine query
					method, url = "POST", ts.URL+"/query"
					body = `{"plan": "dedup(scan(small))", "machine": true}`
				default: // slow host query driving overload
					method, url = "POST", ts.URL+"/query"
					body = `{"plan": "join(scan(big), scan(big), 0=0)", "timeout_ms": 1500, "no_table": true}`
				}
				req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
				if err != nil {
					errCh <- err
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					errCh <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if !allowed[resp.StatusCode] {
					errCh <- fmt.Errorf("client %d: %s %s -> unexpected status %d", c, method, url, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The pool must be fully released and the queue empty.
	if got := len(s.sem); got != 0 {
		t.Errorf("%d worker slots leaked", got)
	}
	if got := s.waiting.Load(); got != 0 {
		t.Errorf("%d phantom waiters", got)
	}

	// The small pool against 120 clients of mostly-slow joins must have
	// actually exercised overload: some queries rejected or timed out.
	rejected := s.reg.Counter("server_rejected_total", map[string]string{"reason": "queue_full"}).Value() +
		s.reg.Counter("server_rejected_total", map[string]string{"reason": "queue_timeout"}).Value() +
		s.reg.Counter("server_rejected_total", map[string]string{"reason": "deadline"}).Value()
	if rejected == 0 {
		t.Error("stress run never hit admission control; workload too light to test overload")
	}

	// /metrics reports latency, queue depth and rejection counters.
	code, metrics := do(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"server_request_seconds_count", "server_queue_depth", "server_rejected_total",
		"server_rows_in_total", "server_rows_out_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s after stress:\n", want)
		}
	}
}
