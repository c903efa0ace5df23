// Package obs is the repository's unified metrics and observability layer:
// a small, dependency-free registry of counters, gauges, histograms and
// labeled timers that every pipeline layer (systolic engine, decomposition
// tiler, §9 machine scheduler, query executor/compiler) records into.
//
// The registry exists because each layer previously kept its own ad-hoc
// statistics (systolic.Stats, decompose.Stats, machine.Result) with no
// single way to observe a whole run. Those structs remain the per-call
// results; the registry is the cross-cutting accumulation — a
// machine-readable cost profile of everything that happened in a process,
// exposable as Prometheus-style text lines or as JSON.
//
// All metric types are safe for concurrent use; counters and gauges are
// lock-free, histograms take a short mutex per observation. Handles
// returned by Counter/Gauge/Histogram/Timer are stable and may be cached in
// package-level variables by hot callers.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attaches dimensions to a metric. A metric's identity is its name
// plus the full label set; the same name with different label values is a
// different time series (Prometheus semantics).
type Labels map[string]string

// canonical renders labels in sorted-key order for use in map keys and in
// the text exposition format. An empty or nil label set renders as "".
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// clone returns an independent copy so callers can't mutate a registered
// metric's identity after the fact.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Kind discriminates metric types in snapshots.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored: counters only go
// up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default histogram bucket upper bounds: decades from
// one microsecond to one million, wide enough for both second-valued
// timers and pulse-count distributions.
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// Histogram accumulates observations into cumulative buckets plus
// count/sum/min/max summary statistics.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []uint64  // per-bucket (non-cumulative) counts, len(bounds)+1
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	LE    float64 // upper bound; +Inf for the overflow bucket
	Count uint64
}

// MarshalJSON renders the bound as a string so the +Inf overflow bucket
// survives JSON encoding (encoding/json rejects infinite float64s).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}{formatLE(b.LE), b.Count})
}

// snapshot returns the histogram's cumulative buckets and summary under the
// lock.
func (h *Histogram) snapshot() (buckets []BucketCount, count uint64, sum, min, max float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		buckets = append(buckets, BucketCount{LE: b, Count: cum})
	}
	cum += h.counts[len(h.bounds)]
	buckets = append(buckets, BucketCount{LE: math.Inf(1), Count: cum})
	return buckets, h.count, h.sum, h.min, h.max
}

// Timer records durations (as seconds) into a histogram.
type Timer struct{ h *Histogram }

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) { t.h.Observe(d.Seconds()) }

// Start begins timing; the returned stop function records the elapsed host
// time and returns it.
func (t *Timer) Start() func() time.Duration {
	begin := time.Now()
	return func() time.Duration {
		d := time.Since(begin)
		t.Observe(d)
		return d
	}
}

// entry is one registered time series.
type entry struct {
	name   string
	labels Labels
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds a process's metrics. The zero value is not usable; call
// NewRegistry. Most code records into the package-level Default registry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is the process-wide registry all built-in instrumentation records
// into. CLI tools dump it with WriteText/WriteJSON at the end of a run.
var Default = NewRegistry()

func (r *Registry) lookup(name string, labels Labels, kind Kind) *entry {
	key := name + "|" + labels.canonical()
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: labels.clone(), kind: kind}
	r.entries[key] = e
	return e
}

// Counter returns (registering if needed) the counter with the given name
// and labels.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	e := r.lookup(name, labels, KindCounter)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns (registering if needed) the gauge with the given name and
// labels.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	e := r.lookup(name, labels, KindGauge)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// Histogram returns (registering if needed) the histogram with the given
// name and labels. Buckets are the upper bounds (sorted ascending); nil
// selects DefBuckets. Buckets are fixed at first registration.
func (r *Registry) Histogram(name string, labels Labels, buckets []float64) *Histogram {
	e := r.lookup(name, labels, KindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.h == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		e.h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	return e.h
}

// Timer returns a timer recording into the histogram of the given name and
// labels (DefBuckets, in seconds).
func (r *Registry) Timer(name string, labels Labels) *Timer {
	return &Timer{h: r.Histogram(name, labels, nil)}
}

// Reset drops every registered metric. Handles obtained before Reset keep
// working but are no longer exposed; callers that cache handles should
// re-fetch after a Reset. Intended for CLI startup and tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = make(map[string]*entry)
}

// Sample is one exported time series.
type Sample struct {
	Name   string  `json:"name"`
	Labels Labels  `json:"labels,omitempty"`
	Kind   Kind    `json:"kind"`
	Value  float64 `json:"value,omitempty"` // counter, gauge

	// Histogram fields.
	Count   uint64        `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Min     float64       `json:"min,omitempty"`
	Max     float64       `json:"max,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns every registered metric, sorted by name then label set.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].labels.canonical() < entries[j].labels.canonical()
	})

	out := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Labels: e.labels.clone(), Kind: e.kind}
		switch e.kind {
		case KindCounter:
			if e.c != nil {
				s.Value = float64(e.c.Value())
			}
		case KindGauge:
			if e.g != nil {
				s.Value = e.g.Value()
			}
		case KindHistogram:
			if e.h != nil {
				s.Buckets, s.Count, s.Sum, s.Min, s.Max = e.h.snapshot()
			}
		}
		out = append(out, s)
	}
	return out
}

// formatValue renders a metric value without exponent noise for integral
// values.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// formatLE renders a bucket bound for the le label.
func formatLE(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// labelString renders {k="v",...} or "" for no labels, with extra
// key/values appended after the metric's own labels.
func labelString(l Labels, extraK, extraV string) string {
	inner := l.canonical()
	if extraK != "" {
		if inner != "" {
			inner += ","
		}
		inner += fmt.Sprintf("%s=%q", extraK, extraV)
	}
	if inner == "" {
		return ""
	}
	return "{" + inner + "}"
}

// WriteText writes the registry in a Prometheus-style text exposition:
// one `name{label="v"} value` line per counter and gauge, and
// `_bucket`/`_sum`/`_count` lines per histogram.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		var err error
		switch s.Kind {
		case KindCounter, KindGauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", s.Name, labelString(s.Labels, "", ""), formatValue(s.Value))
		case KindHistogram:
			for _, b := range s.Buckets {
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, labelString(s.Labels, "le", formatLE(b.LE)), b.Count); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, labelString(s.Labels, "", ""), formatValue(s.Sum)); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count%s %d\n", s.Name, labelString(s.Labels, "", ""), s.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the registry as a JSON document {"metrics": [...]}.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics []Sample `json:"metrics"`
	}{Metrics: r.Snapshot()})
}
