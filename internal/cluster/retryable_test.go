package cluster

// White-box classification tests: RetryableShardError is the switch that
// decides whether a failed sub-query walks the retry→quarantine→promotion
// ladder or fails the whole query, so its verdict for every error family
// is pinned here as a table.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"systolicdb/internal/relation"
)

func noParse(string) (*relation.Relation, error) {
	return nil, fmt.Errorf("no parser in this test")
}

// refusedErr dials a port nobody listens on.
func refusedErr(t *testing.T) error {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cl := NewShardClient("http://"+addr, noParse, ClientOptions{Timeout: time.Second})
	_, err = cl.Healthz(context.Background())
	if err == nil {
		t.Fatal("healthz against a closed port succeeded")
	}
	return err
}

// timeoutErr times out a client against a server that never answers.
func timeoutErr(t *testing.T) error {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // hang until the client gives up
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)
	cl := NewShardClient(ts.URL, noParse, ClientOptions{Timeout: 50 * time.Millisecond})
	_, err := cl.Healthz(context.Background())
	if err == nil {
		t.Fatal("healthz against a hung server succeeded")
	}
	return err
}

// canceledErr cancels the caller's context mid-request.
func canceledErr(t *testing.T) error {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // hang until the client gives up
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)
	cl := NewShardClient(ts.URL, noParse, ClientOptions{Timeout: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := cl.Healthz(ctx)
	if err == nil {
		t.Fatal("healthz with a cancelled context succeeded")
	}
	return err
}

// statusErr produces the client's error for one HTTP status.
func statusErr(t *testing.T, code int, header http.Header) error {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for k, vs := range header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		http.Error(w, fmt.Sprintf(`{"error":"status %d"}`, code), code)
	}))
	t.Cleanup(ts.Close)
	cl := NewShardClient(ts.URL, noParse, ClientOptions{Timeout: time.Second})
	_, err := cl.Healthz(context.Background())
	if err == nil {
		t.Fatalf("healthz against a %d server succeeded", code)
	}
	return err
}

// queryErr runs a Query against a server answering rawBody with 200.
func queryErr(t *testing.T, rawBody string) error {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(rawBody))
	}))
	t.Cleanup(ts.Close)
	cl := NewShardClient(ts.URL, noParse, ClientOptions{Timeout: time.Second})
	_, err := cl.Query(context.Background(), "scan r")
	if err == nil {
		t.Fatalf("query against body %q succeeded", rawBody)
	}
	return err
}

func TestRetryableShardErrorClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       func(t *testing.T) error
		retryable bool
	}{
		{"nil", func(*testing.T) error { return nil }, false},
		{"connection refused", refusedErr, true},
		{"client timeout", timeoutErr, true},
		{"context canceled", canceledErr, false},
		{"context canceled bare", func(*testing.T) error { return context.Canceled }, false},
		{"context canceled wrapped", func(*testing.T) error {
			return fmt.Errorf("sub-query: %w", context.Canceled)
		}, false},
		{"429 too many requests", func(t *testing.T) error {
			return statusErr(t, http.StatusTooManyRequests, nil)
		}, true},
		{"500 internal error", func(t *testing.T) error {
			return statusErr(t, http.StatusInternalServerError, nil)
		}, true},
		{"503 unavailable", func(t *testing.T) error {
			return statusErr(t, http.StatusServiceUnavailable, nil)
		}, true},
		{"504 gateway timeout", func(t *testing.T) error {
			return statusErr(t, http.StatusGatewayTimeout, nil)
		}, true},
		{"400 bad request", func(t *testing.T) error {
			return statusErr(t, http.StatusBadRequest, nil)
		}, false},
		{"404 not found", func(t *testing.T) error {
			return statusErr(t, http.StatusNotFound, nil)
		}, false},
		{"422 bad plan", func(t *testing.T) error {
			return statusErr(t, http.StatusUnprocessableEntity, nil)
		}, false},
		{"malformed json body", func(t *testing.T) error {
			return queryErr(t, `{"table": truncated`)
		}, true},
		{"unparseable result table", func(t *testing.T) error {
			return queryErr(t, `{"table":"not a table"}`)
		}, true},
		{"table checksum mismatch", func(t *testing.T) error {
			return queryErr(t, `{"table":"k\tv\n1\t2\n","table_crc32":12345}`)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err(t)
			if got := RetryableShardError(err); got != tc.retryable {
				t.Fatalf("RetryableShardError(%v) = %v, want %v", err, got, tc.retryable)
			}
			// Wrapping (as the ladder does with fmt.Errorf %w) must not
			// change the verdict.
			if err != nil {
				wrapped := fmt.Errorf("shard-3: %w", err)
				if got := RetryableShardError(wrapped); got != tc.retryable {
					t.Fatalf("RetryableShardError(wrapped %v) = %v, want %v", err, got, tc.retryable)
				}
			}
		})
	}
}

func TestChecksumMismatchNamesBothSums(t *testing.T) {
	err := queryErr(t, `{"table":"k\tv\n1\t2\n","table_crc32":12345}`)
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("checksum error not descriptive: %v", err)
	}
}

func TestRetryAfterHint(t *testing.T) {
	err := statusErr(t, http.StatusServiceUnavailable, http.Header{"Retry-After": []string{"2"}})
	hint, ok := RetryAfterHint(err)
	if !ok || hint != 2*time.Second {
		t.Fatalf("RetryAfterHint = %v, %v; want 2s, true", hint, ok)
	}
	// The hint survives the ladder's error wrapping.
	hint, ok = RetryAfterHint(fmt.Errorf("shard-0 failed 3 attempts: %w", err))
	if !ok || hint != 2*time.Second {
		t.Fatalf("RetryAfterHint(wrapped) = %v, %v; want 2s, true", hint, ok)
	}
	if _, ok := RetryAfterHint(statusErr(t, http.StatusServiceUnavailable, nil)); ok {
		t.Fatal("hint reported for a response without Retry-After")
	}
	if _, ok := RetryAfterHint(nil); ok {
		t.Fatal("hint reported for nil error")
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Fatalf("seconds form = %v, want 3s", d)
	}
	date := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(date); d < 80*time.Second || d > 91*time.Second {
		t.Fatalf("http-date form = %v, want ~90s", d)
	}
	for _, bad := range []string{"", "garbage", "-5", "Mon, 02 Jan 2006"} {
		if d := parseRetryAfter(bad); d != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want 0", bad, d)
		}
	}
}

// Healthz fetches the shard's health document: the simplest request these
// tests can send through ShardClient.do.
func (c *ShardClient) Healthz(ctx context.Context) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out, nil
}
