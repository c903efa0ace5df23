package netchaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"systolicdb/internal/obs"
)

func TestParseSpecExample(t *testing.T) {
	s, err := ParseSpec("seed=7,drop=0.05,latency=20ms±10ms,partition=shard1:30s,corrupt=0.01,dup=0.02")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.Drop != 0.05 || s.Latency != 20*time.Millisecond ||
		s.Jitter != 10*time.Millisecond || s.Corrupt != 0.01 || s.Dup != 0.02 {
		t.Fatalf("bad parse: %+v", s)
	}
	if len(s.Partitions) != 1 {
		t.Fatalf("want 1 partition, got %+v", s.Partitions)
	}
	p := s.Partitions[0]
	if p.Target != "shard1" || p.After != 0 || p.For != 30*time.Second || p.OneWay {
		t.Fatalf("bad partition: %+v", p)
	}
}

func TestParseSpecVariants(t *testing.T) {
	cases := []struct {
		spec string
		want func(*Spec) error
	}{
		{"latency=5ms+-2ms", func(s *Spec) error {
			if s.Latency != 5*time.Millisecond || s.Jitter != 2*time.Millisecond {
				return fmt.Errorf("got %v±%v", s.Latency, s.Jitter)
			}
			return nil
		}},
		{"partition=127.0.0.1:7001:2s+5s:oneway", func(s *Spec) error {
			p := s.Partitions[0]
			if p.Target != "127.0.0.1:7001" || p.After != 2*time.Second || p.For != 5*time.Second || !p.OneWay {
				return fmt.Errorf("got %+v", p)
			}
			return nil
		}},
		{"partition=a:1s,partition=b:2s", func(s *Spec) error {
			if len(s.Partitions) != 2 {
				return fmt.Errorf("got %+v", s.Partitions)
			}
			return nil
		}},
		{"partition=shard0:0s", func(s *Spec) error {
			if p := s.Partitions[0]; p.For != 0 {
				return fmt.Errorf("got %+v", p)
			}
			return nil
		}},
		{"dropresp=1", func(s *Spec) error {
			if s.DropResp != 1 {
				return fmt.Errorf("got %v", s.DropResp)
			}
			return nil
		}},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if err := c.want(s); err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"drop",
		"drop=2",
		"drop=-0.1",
		"drop=x",
		"seed=1.5",
		"latency=-5ms",
		"latency=±2ms",
		"partition=:5s",
		"partition=shard1",
		"partition=shard1:5s:oneway:extra",
		"partition=a:5s:junk",
		"partition=a:5s:junk:oneway",
		"bogus=1",
		"dup=1.01",
		"drop=NaN",
		"drop=Inf",
		",",
		" , ",
	}
	for _, spec := range bad {
		if s, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want error", spec, s)
		}
	}
}

// TestPartitionTrailingSegment pins the reason: a segment after the window
// that is not :oneway used to be dropped silently.
func TestPartitionTrailingSegment(t *testing.T) {
	for _, spec := range []string{"partition=a:5s:junk", "partition=host:7001:2s+5s:junk:oneway"} {
		_, err := ParseSpec(spec)
		if err == nil || !strings.Contains(err.Error(), "unexpected segment after window") {
			t.Errorf("ParseSpec(%q) error = %v, want unexpected segment after window", spec, err)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	specs := []string{
		"seed=7,drop=0.05,latency=20ms±10ms,partition=shard1:30s,corrupt=0.01,dup=0.02",
		"drop=1",
		"dropresp=0.5,dup=1",
		"latency=1ms",
		"partition=host:2s+5s:oneway",
		"seed=-3,partition=127.0.0.1:7001:1s",
	}
	for _, spec := range specs {
		s1, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		rendered := s1.String()
		s2, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", rendered, spec, err)
		}
		if s2.String() != rendered {
			t.Errorf("String not canonical: %q -> %q -> %q", spec, rendered, s2.String())
		}
	}
}

// chaosRig is a target server plus a transport-wrapped client.
type chaosRig struct {
	ts    *httptest.Server
	tr    *Transport
	cl    *http.Client
	hits  atomic.Int64
	body  []byte
	reg   *obs.Registry
	fakeT atomic.Int64 // nanoseconds of fake elapsed time
}

func newRig(t *testing.T, spec string) *chaosRig {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := &chaosRig{body: []byte("the quick brown fox jumps over the lazy dog"), reg: obs.NewRegistry()}
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.hits.Add(1)
		io.Copy(io.Discard, req.Body)
		w.Write(r.body)
	}))
	t.Cleanup(r.ts.Close)
	r.tr = NewTransport(s, nil, r.reg)
	r.tr.sleep = func(context.Context, time.Duration) error { return nil }
	r.tr.now = func() time.Time { return r.tr.start.Add(time.Duration(r.fakeT.Load())) }
	r.cl = &http.Client{Transport: r.tr}
	return r
}

func (r *chaosRig) get(t *testing.T) ([]byte, error) {
	t.Helper()
	resp, err := r.cl.Get(r.ts.URL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func TestTransportDrop(t *testing.T) {
	r := newRig(t, "drop=1")
	if _, err := r.get(t); err == nil || !strings.Contains(err.Error(), "injected drop") {
		t.Fatalf("want injected drop error, got %v", err)
	}
	if r.hits.Load() != 0 {
		t.Fatalf("dropped request reached server %d times", r.hits.Load())
	}
	if got := r.tr.Counts()[KindDrop]; got != 1 {
		t.Fatalf("drop count = %d, want 1", got)
	}
}

func TestTransportDropResp(t *testing.T) {
	r := newRig(t, "dropresp=1")
	if _, err := r.get(t); err == nil || !strings.Contains(err.Error(), "injected dropresp") {
		t.Fatalf("want injected dropresp error, got %v", err)
	}
	if r.hits.Load() != 1 {
		t.Fatalf("dropresp request hit server %d times, want 1 (delivered, ack lost)", r.hits.Load())
	}
}

func TestTransportQuietPassThrough(t *testing.T) {
	r := newRig(t, "seed=1")
	body, err := r.get(t)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, r.body) {
		t.Fatalf("body altered under quiet spec: %q", body)
	}
	if r.tr.Total() != 0 {
		t.Fatalf("quiet spec injected %v", r.tr.Counts())
	}
}

func TestTransportCorrupt(t *testing.T) {
	r := newRig(t, "corrupt=1")
	body, err := r.get(t)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(body, r.body) {
		t.Fatal("corrupt=1 left body untouched")
	}
	diff := 0
	for i := range body {
		if body[i] != r.body[i] {
			diff++
		}
	}
	if len(body) != len(r.body) || diff != 1 {
		t.Fatalf("want exactly one flipped byte, got %d (len %d vs %d)", diff, len(body), len(r.body))
	}
}

func TestTransportDup(t *testing.T) {
	r := newRig(t, "dup=1")
	req, _ := http.NewRequest("POST", r.ts.URL, strings.NewReader("payload"))
	resp, err := r.cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if r.hits.Load() != 2 {
		t.Fatalf("dup=1 delivered %d times, want 2", r.hits.Load())
	}
}

func TestTransportLatency(t *testing.T) {
	r := newRig(t, "latency=20ms±10ms")
	var slept []time.Duration
	r.tr.sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	for i := 0; i < 10; i++ {
		if _, err := r.get(t); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 10 {
		t.Fatalf("latency applied to %d/10 requests", len(slept))
	}
	for _, d := range slept {
		if d < 10*time.Millisecond || d > 30*time.Millisecond {
			t.Fatalf("sleep %v outside 20ms±10ms", d)
		}
	}
}

// TestTransportLatencyHonorsContext: an injected delay must not hold a
// canceled request hostage for the full duration.
func TestTransportLatencyHonorsContext(t *testing.T) {
	r := newRig(t, "latency=30s")
	r.tr.sleep = sleepCtx // the real, context-aware sleep
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", r.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := r.cl.Do(req); err == nil {
		t.Fatal("canceled request delivered through a 30s injected delay")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled request blocked %v on the injected delay", elapsed)
	}
}

// TestTransportPartitionClockStartsAtFirstRequest: PartitionSpec.After is
// measured from first activation, so wall time passing between transport
// construction and the first request must not consume the window.
func TestTransportPartitionClockStartsAtFirstRequest(t *testing.T) {
	r := newRig(t, "partition=127.0.0.1:1s+2s")
	// An absolute fake clock (the rig's default is relative to tr.start,
	// which would hide where the epoch is anchored).
	var fake atomic.Int64
	base := time.Unix(1000, 0)
	r.tr.now = func() time.Time { return base.Add(time.Duration(fake.Load())) }
	// Fake wall time passes before any traffic; the window [1s, 3s) would
	// already be over if the clock started at construction.
	fake.Store(int64(10 * time.Second))
	if _, err := r.get(t); err != nil {
		t.Fatalf("first request consumed a window that had not activated: %v", err)
	}
	// 1.5s after first activation: inside the window.
	fake.Store(int64(11500 * time.Millisecond))
	if _, err := r.get(t); err == nil || !strings.Contains(err.Error(), "injected partition") {
		t.Fatalf("in-window request after activation: want partition error, got %v", err)
	}
	// 4s after first activation: healed.
	fake.Store(int64(14 * time.Second))
	if _, err := r.get(t); err != nil {
		t.Fatalf("post-window request failed: %v", err)
	}
}

func TestTransportPartitionWindow(t *testing.T) {
	r := newRig(t, "partition=127.0.0.1:2s+5s")
	// Before the window opens: delivered.
	if _, err := r.get(t); err != nil {
		t.Fatalf("pre-window request failed: %v", err)
	}
	// Inside the window: fails, never reaches the server.
	r.fakeT.Store(int64(3 * time.Second))
	pre := r.hits.Load()
	if _, err := r.get(t); err == nil || !strings.Contains(err.Error(), "injected partition") {
		t.Fatalf("in-window request: want partition error, got %v", err)
	}
	if r.hits.Load() != pre {
		t.Fatal("partitioned request reached the server")
	}
	// After it heals: delivered again.
	r.fakeT.Store(int64(8 * time.Second))
	if _, err := r.get(t); err != nil {
		t.Fatalf("post-window request failed: %v", err)
	}
}

func TestTransportPartitionForever(t *testing.T) {
	r := newRig(t, "partition=127.0.0.1:0s")
	r.fakeT.Store(int64(1000 * time.Hour))
	if _, err := r.get(t); err == nil {
		t.Fatal("dur=0 partition healed")
	}
}

func TestTransportPartitionOneWay(t *testing.T) {
	r := newRig(t, "partition=127.0.0.1:0s:oneway")
	_, err := r.get(t)
	if err == nil || !strings.Contains(err.Error(), "injected dropresp") {
		t.Fatalf("want dropped response, got %v", err)
	}
	if r.hits.Load() != 1 {
		t.Fatalf("one-way partition delivered %d times, want 1", r.hits.Load())
	}
}

func TestTransportPartitionOtherHostUnaffected(t *testing.T) {
	r := newRig(t, "partition=shard9:0s")
	if _, err := r.get(t); err != nil {
		t.Fatalf("non-matching partition blocked request: %v", err)
	}
}

func TestTransportDeterministic(t *testing.T) {
	const spec = "seed=42,drop=0.3,corrupt=0.3,dup=0.2"
	run := func() []string {
		r := newRig(t, spec)
		var trace []string
		for i := 0; i < 200; i++ {
			body, err := r.get(t)
			switch {
			case err != nil:
				trace = append(trace, "err")
			case bytes.Equal(body, r.body):
				trace = append(trace, "ok")
			default:
				trace = append(trace, "corrupt")
			}
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %s vs %s", i, a[i], b[i])
		}
	}
}

// Counts returns per-kind injection totals since the transport was built.
func (t *Transport) Counts() map[string]int64 { return t.ledger.Counts() }

// Total returns the total number of injections across all kinds.
func (t *Transport) Total() int64 { return t.ledger.Total() }
