package main

import (
	"testing"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileTenSamplesBeyond(t *testing.T) {
	// p99 of n sorted samples has n − ceil(0.99·n) samples beyond it: the
	// rule wants at least ten, so 1000 samples are the minimum.
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{0, 0.99, 0, false},
		{999, 0.99, 0, false},
		{1000, 0.99, 990, true},
		{2000, 0.99, 1980, true},
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestNullP99FailsTheRun(t *testing.T) {
	res := &result{workload: "w", e2e: map[string]float64{}, counts: map[string]int{}}
	res.publish("latency_p50_ms", "latency_p99_ms", "all", ramp(500))
	if _, ok := res.e2e["latency_p50_ms"]; !ok {
		t.Error("p50 of 500 samples was not published")
	}
	if _, ok := res.e2e["latency_p99_ms"]; ok {
		t.Error("p99 of 500 samples was published; it has only 5 samples beyond it")
	}
	if report(res, false) {
		t.Error("a run with an unpublished p99 was reported as standing")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
}

func TestPulsesPerQueryDropsTrailingPartialCycle(t *testing.T) {
	cycle := []int{10, 20, 30} // 60 pulses per 3 queries
	full := append(append([]int{}, cycle...), cycle...)
	// One client ends mid-cycle on the expensive plans; had the partial
	// cycle counted, the average would move.
	partial := append(append([]int{}, full...), 10, 20)
	for name, clients := range map[string][][]int{
		"whole cycles":     {full, cycle},
		"trailing partial": {partial, append(append([]int{}, cycle...), 10)},
	} {
		got, ok := pulsesPerQuery(clients, len(cycle))
		if !ok || got != 20 {
			t.Errorf("%s: pulsesPerQuery = %v, %v; want exactly 20", name, got, ok)
		}
	}
	if _, ok := pulsesPerQuery([][]int{{10, 20}}, 3); ok {
		t.Error("less than one whole cycle must not yield a value")
	}
}
