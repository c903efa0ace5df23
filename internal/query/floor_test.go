//go:build !race

package query

import (
	"testing"
	"time"

	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/workload"
)

// TestFloorPlanCacheHit: a plan-cache hit on the exact query text is at
// least twice as fast as preparing the plan cold (Parse + Optimize). Both
// timings come from the same process, so the ratio holds on any machine;
// the race detector distorts it, so this runs only without it. The two
// legs alternate and each keeps its best round, so a noisy stretch of the
// run slows both or neither.
func TestFloorPlanCacheHit(t *testing.T) {
	a, b, err := workload.JoinPair(1, 1024, 1024, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"A": a, "B": b}
	const (
		raw    = "project(join(scan(A), scan(B), 0=0), 0, 1)"
		rounds = 20
		reps   = 300
	)
	prepare := func() Node {
		parsed, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Optimize(parsed, cat)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	cache := NewPlanCache(16, obs.NewRegistry())
	plan := prepare()
	cache.Insert(raw, Render(plan), machine.BackendPulse, true, 1, plan)
	lookup := func() Node {
		cp, ok := cache.Lookup(raw, machine.BackendPulse, true, 1)
		if !ok {
			t.Fatal("warm lookup missed")
		}
		return cp.Plan
	}
	// perRep times reps calls of f and returns the time per call.
	perRep := func(f func() Node) time.Duration {
		start := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		return time.Since(start) / reps
	}

	cold, hit := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		cold = min(cold, perRep(prepare))
		hit = min(hit, perRep(lookup))
	}
	speedup := cold.Seconds() / hit.Seconds()
	t.Logf("cold %v, hit %v (%.1fx)", cold, hit, speedup)
	if speedup < 2 {
		t.Errorf("plan-cache hit is %.1fx faster than Parse + Optimize, want >= 2x", speedup)
	}
}
