package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", Labels{"op": "join"})
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("ops_total", Labels{"op": "join"}); again != c {
		t.Error("same name+labels did not return the same counter")
	}
	if other := r.Counter("ops_total", Labels{"op": "dedup"}); other == c {
		t.Error("different labels returned the same counter")
	}

	g := r.Gauge("utilization", nil)
	g.Set(0.5)
	if got := g.Value(); got != 0.5 {
		t.Errorf("gauge = %v, want 0.5", got)
	}
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Errorf("gauge after reset = %v, want 0.25", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pulses", nil, []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 555.5 {
		t.Errorf("sum = %v, want 555.5", h.Sum())
	}
	buckets, count, sum, min, max := h.snapshot()
	if count != 4 || sum != 555.5 || min != 0.5 || max != 500 {
		t.Errorf("snapshot summary = (%d, %v, %v, %v)", count, sum, min, max)
	}
	wantCum := []uint64{1, 2, 3, 4} // le=1, le=10, le=100, le=+Inf
	for i, b := range buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d (le=%v) = %d, want %d", i, b.LE, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(buckets[len(buckets)-1].LE, 1) {
		t.Error("last bucket is not +Inf")
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("span_seconds", Labels{"node": "scan"})
	stop := tm.Start()
	d := stop()
	if d < 0 {
		t.Errorf("elapsed = %v", d)
	}
	tm.Observe(2 * time.Second)
	h := r.Histogram("span_seconds", Labels{"node": "scan"}, nil)
	if h.Count() != 2 {
		t.Errorf("timer recorded %d observations, want 2", h.Count())
	}
	if h.Sum() < 2 {
		t.Errorf("timer sum %v < 2s", h.Sum())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x", nil)
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", nil).Add(3)
	r.Gauge("util", Labels{"grid": "a b"}).Set(0.75)
	r.Histogram("lat", nil, []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"runs_total 3\n",
		`util{grid="a b"} 0.75` + "\n",
		`lat_bucket{le="1"} 1` + "\n",
		`lat_bucket{le="+Inf"} 1` + "\n",
		"lat_sum 0.5\n",
		"lat_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: lat lines before runs_total before util.
	if strings.Index(out, "lat_bucket") > strings.Index(out, "runs_total") {
		t.Errorf("exposition not sorted:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", Labels{"op": "join"}).Add(2)
	r.Histogram("lat", nil, []float64{1, 10}).Observe(3)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name    string            `json:"name"`
			Labels  map[string]string `json:"labels"`
			Kind    string            `json:"kind"`
			Value   float64           `json:"value"`
			Count   uint64            `json:"count"`
			Buckets []struct {
				LE    string `json:"le"`
				Count uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("got %d metrics, want 2:\n%s", len(doc.Metrics), buf.String())
	}
	hist := doc.Metrics[0]
	if hist.Name != "lat" || hist.Kind != "histogram" || hist.Count != 1 {
		t.Errorf("histogram sample = %+v", hist)
	}
	if got := hist.Buckets[len(hist.Buckets)-1].LE; got != "+Inf" {
		t.Errorf("last JSON bucket le = %q, want +Inf", got)
	}
	ctr := doc.Metrics[1]
	if ctr.Name != "runs_total" || ctr.Value != 2 || ctr.Labels["op"] != "join" {
		t.Errorf("counter sample = %+v", ctr)
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", nil).Inc()
	r.Reset()
	if n := len(r.Snapshot()); n != 0 {
		t.Errorf("snapshot after reset has %d entries", n)
	}
	// Re-registration after reset starts from zero.
	if v := r.Counter("x", nil).Value(); v != 0 {
		t.Errorf("counter after reset = %d", v)
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run with
// -race to back the concurrency claims.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c", Labels{"w": "x"}).Inc()
				r.Gauge("g", nil).Set(float64(j))
				r.Histogram("h", nil, nil).Observe(float64(j))
				r.Timer("t", nil).Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", Labels{"w": "x"}).Value(); got != 8*200 {
		t.Errorf("concurrent counter = %d, want %d", got, 8*200)
	}
	if got := r.Histogram("h", nil, nil).Count(); got != 8*200 {
		t.Errorf("concurrent histogram count = %d, want %d", got, 8*200)
	}
}
