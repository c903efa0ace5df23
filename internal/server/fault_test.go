package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"systolicdb/internal/fault"
	"systolicdb/internal/machine"
)

// alwaysBadPlan makes every device attempt fail checksum verification.
func alwaysBadPlan() *fault.Plan {
	return &fault.Plan{Mode: fault.Flip, Rate: 1, Seed: 1, Row: -1, Col: -1, Pulse: -1}
}

// TestDegradedMachineQuery: with an aggressive fault plan on every machine
// device, a machine query must still answer correctly — via retries, the
// host rung of the ladder, or the query-level fallback — and /healthz must
// flip to "degraded" once quarantine kicks in.
func TestDegradedMachineQuery(t *testing.T) {
	s, ts := testServer(t, Config{
		ArraySize: 8,
		Fault: &machine.FaultConfig{
			Plan:                alwaysBadPlan(),
			Verify:              fault.VerifyChecksum,
			QuarantineAfter:     2,
			Retry:               fault.RetryPolicy{MaxAttempts: 3},
			DisableHostFallback: true, // force the query-level fallback
			Sleep:               func(time.Duration) {},
		},
	})
	if code, _ := do(t, "PUT", ts.URL+"/relations/S", suppliersTable); code != http.StatusOK {
		t.Fatal("PUT failed")
	}
	if code, _ := do(t, "PUT", ts.URL+"/relations/P", partsTable); code != http.StatusOK {
		t.Fatal("PUT failed")
	}

	code, body := postQuery(t, ts.URL, map[string]any{
		"plan": "join(scan(S), scan(P), 0=0)", "machine": true,
	})
	if code != http.StatusOK {
		t.Fatalf("degraded machine query: %d %s", code, body)
	}
	var resp struct {
		Rows     int  `json:"rows"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 4 {
		t.Errorf("rows = %d, want 4", resp.Rows)
	}
	if !resp.Degraded {
		t.Error("response not marked degraded despite machine giving up")
	}
	if !s.health.Degraded() {
		t.Fatal("no device quarantined after an always-failing machine query")
	}

	// /healthz reports the quarantine.
	code, body = do(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var hz struct {
		Status      string   `json:"status"`
		Quarantined []string `json:"quarantined"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" {
		t.Errorf("healthz status = %q, want degraded", hz.Status)
	}
	if len(hz.Quarantined) == 0 {
		t.Error("healthz lists no quarantined devices")
	}

	// /metrics reports retry and fallback counters.
	_, metrics := do(t, "GET", ts.URL+"/metrics", "")
	for _, want := range []string{"fault_retries_total", "fault_quarantine_events_total", "query_machine_fallback_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// With the request-level fallback forbidden, the same query must fail
	// 503 with Retry-After — the transient-capacity contract.
	req, _ := http.NewRequest("POST", ts.URL+"/query",
		strings.NewReader(`{"plan":"join(scan(S), scan(P), 0=0)","machine":true,"no_fallback":true}`))
	rr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("no_fallback query: %d, want 503", rr.StatusCode)
	}
	if rr.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}

	// An operator revive clears the degradation.
	for _, name := range s.health.QuarantinedNames() {
		s.health.Revive(name)
	}
	_, body = do(t, "GET", ts.URL+"/healthz", "")
	if !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthz after revive: %s", body)
	}
}

// TestRetryAttemptsKnob: a request-level retry budget must override the
// server's policy — one attempt on an always-bad sole device cannot
// succeed on the machine, so the query-level fallback answers.
func TestRetryAttemptsKnob(t *testing.T) {
	_, ts := testServer(t, Config{
		ArraySize: 8,
		Fault: &machine.FaultConfig{
			Plan:                alwaysBadPlan(),
			Verify:              fault.VerifyChecksum,
			QuarantineAfter:     100, // never quarantine: isolate the retry knob
			Retry:               fault.RetryPolicy{MaxAttempts: 1},
			DisableHostFallback: true,
			Sleep:               func(time.Duration) {},
		},
	})
	if code, _ := do(t, "PUT", ts.URL+"/relations/A", "x\n1\n2\n3\n"); code != http.StatusOK {
		t.Fatal("PUT failed")
	}
	code, body := postQuery(t, ts.URL, map[string]any{
		"plan": "dedup(scan(A))", "machine": true, "retry_attempts": 3,
	})
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, body)
	}
	if !strings.Contains(body, `"degraded":true`) {
		t.Errorf("expected a degraded (fallback) answer: %s", body)
	}
}

// TestShutdownUnderLoad is the drain-fix regression test: a query already
// in flight when the drain begins, whose machine retries then exhaust with
// fallback forbidden, must be answered 503 with Retry-After — not 422, and
// not a hang.
func TestShutdownUnderLoad(t *testing.T) {
	inRetry := make(chan struct{})
	var once sync.Once
	release := make(chan struct{})
	s := New(Config{
		ArraySize: 8,
		Fault: &machine.FaultConfig{
			Plan:                alwaysBadPlan(),
			Verify:              fault.VerifyChecksum,
			QuarantineAfter:     100,
			Retry:               fault.RetryPolicy{MaxAttempts: 4},
			DisableHostFallback: true,
			Sleep: func(time.Duration) {
				// Signal that the query reached its first retry, then hold
				// it until the test has begun the drain.
				once.Do(func() { close(inRetry) })
				<-release
			},
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := do(t, "PUT", ts.URL+"/relations/A", "x\n1\n2\n3\n"); code != http.StatusOK {
		t.Fatal("PUT failed")
	}

	type result struct {
		code  int
		retry string
		body  string
	}
	done := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/query",
			strings.NewReader(`{"plan":"dedup(scan(A))","machine":true,"no_fallback":true}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{code: -1, body: err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{code: resp.StatusCode, retry: resp.Header.Get("Retry-After"), body: string(b)}
	}()

	// Wait until the query is mid-retry, then start draining and let the
	// retries run to exhaustion.
	select {
	case <-inRetry:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached its first retry")
	}
	s.drain()
	close(release)

	select {
	case res := <-done:
		if res.code != http.StatusServiceUnavailable {
			t.Errorf("in-flight query during drain: %d %s, want 503", res.code, res.body)
		}
		if res.retry == "" {
			t.Error("503 during drain without Retry-After header")
		}
		if got := s.reg.Counter("server_rejected_total", map[string]string{"reason": "shutdown"}).Value(); got == 0 {
			t.Error("drain-time degradation not counted under reason=shutdown")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight query hung during drain")
	}
}
