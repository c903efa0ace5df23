// PR-9 executor benchmarks: plan-cache hit path vs cold preparation,
// streaming vs materializing execution of a select-heavy chain, and the
// tile-count payoff of predicate pushdown. Emitted as BENCH_9.json so CI
// can assert floors (cache hit >= 2x cold, streaming peak < materializing
// peak).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"systolicdb/internal/cells"
	"systolicdb/internal/decompose"
	"systolicdb/internal/join"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

type cacheBench struct {
	Plan        string  `json:"plan"`
	ColdSeconds float64 `json:"cold_seconds"` // parse + optimize + compile, per preparation
	HitSeconds  float64 `json:"hit_seconds"`  // cache lookup + memoized task copy
	Speedup     float64 `json:"speedup_hit_over_cold"`
}

type streamBench struct {
	Plan                 string  `json:"plan"`
	Rows                 int     `json:"rows"`
	MaterializingSeconds float64 `json:"materializing_seconds"`
	StreamingSeconds     float64 `json:"streaming_seconds"`
	MaterializingPeak    int     `json:"materializing_peak_tuples"`
	StreamingPeak        int     `json:"streaming_peak_tuples"`
	MaterializedNodes    int     `json:"materialized_nodes"`
	StreamingBreakers    int     `json:"streaming_breakers"`
}

type pushdownBench struct {
	Plan         string `json:"plan"`
	ArrayMaxA    int    `json:"array_max_a"`
	ArrayMaxB    int    `json:"array_max_b"`
	RowsBefore   int    `json:"rows_before_select"`
	RowsAfter    int    `json:"rows_after_select"`
	TilesBare    int    `json:"tiles_without_pushdown"`
	TilesPushed  int    `json:"tiles_with_pushdown"`
	TilesSaved   int    `json:"tiles_saved"`
	StripsSavedA int    `json:"strips_saved_a"`
	PushedDownOK bool   `json:"pushed_down"`
	ResultsAgree bool   `json:"results_agree"`
}

type executorReport struct {
	N         int           `json:"n"`
	Seed      int64         `json:"seed"`
	Iters     int           `json:"iters"`
	PlanCache cacheBench    `json:"plan_cache"`
	Streaming streamBench   `json:"streaming"`
	Pushdown  pushdownBench `json:"pushdown"`
}

// bestPer runs f (which performs reps inner repetitions) iters times and
// returns the fastest per-repetition duration.
func bestPer(iters, reps int, f func() error) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start) / time.Duration(reps); best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func runExecutor(n int, seed int64, iters int, out string) error {
	rep := executorReport{N: n, Seed: seed, Iters: iters}
	if err := benchPlanCache(n, seed, iters, &rep.PlanCache); err != nil {
		return fmt.Errorf("plan cache: %w", err)
	}
	if err := benchStreaming(n, seed, iters, &rep.Streaming); err != nil {
		return fmt.Errorf("streaming: %w", err)
	}
	if err := benchPushdown(n, seed, &rep.Pushdown); err != nil {
		return fmt.Errorf("pushdown: %w", err)
	}
	if out != "" {
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

// benchPlanCache times the full cold preparation pipeline (Parse +
// Optimize + Compile) against a warm plan-cache hit (raw-text lookup +
// memoized task-list copy) for the same query text.
func benchPlanCache(n int, seed int64, iters int, out *cacheBench) error {
	a, b, err := workload.JoinPair(seed, n, n, 2, 1)
	if err != nil {
		return err
	}
	cat := query.Catalog{"A": a, "B": b}
	raw := "project(join(scan(A), scan(B), 0=0), 0, 1)"
	opts := &query.Options{Metrics: obs.NewRegistry()}
	const reps = 300

	cold, err := bestPer(iters, reps, func() error {
		for r := 0; r < reps; r++ {
			parsed, err := query.Parse(raw)
			if err != nil {
				return err
			}
			plan, err := query.Optimize(parsed, cat)
			if err != nil {
				return err
			}
			if _, _, err := query.CompileOpts(plan, cat, opts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	cache := query.NewPlanCache(16, obs.NewRegistry())
	parsed, err := query.Parse(raw)
	if err != nil {
		return err
	}
	plan, err := query.Optimize(parsed, cat)
	if err != nil {
		return err
	}
	cp := cache.Insert(raw, query.Render(parsed), machine.BackendPulse, true, 1, plan)
	if _, _, err := cp.Tasks(cat, opts); err != nil { // memoize the compile
		return err
	}
	hit, err := bestPer(iters, reps, func() error {
		for r := 0; r < reps; r++ {
			got, ok := cache.Lookup(raw, machine.BackendPulse, true, 1)
			if !ok {
				return fmt.Errorf("warm lookup missed")
			}
			if _, _, err := got.Tasks(cat, opts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	out.Plan = raw
	out.ColdSeconds = cold.Seconds()
	out.HitSeconds = hit.Seconds()
	out.Speedup = cold.Seconds() / hit.Seconds()
	fmt.Printf("%-10s cold %9.3fµs  hit %9.3fµs  speedup %.1fx\n",
		"plancache", cold.Seconds()*1e6, hit.Seconds()*1e6, out.Speedup)
	return nil
}

// benchStreaming runs a select-heavy chain under both executors and
// records wall time plus the peak-tuple footprint each one reports. Both
// legs run on the bitset backend so the comparison isolates the executor
// (materializing vs pull-based), not the array simulator.
func benchStreaming(n int, seed int64, iters int, out *streamBench) error {
	a, err := workload.Uniform(seed, 16*n, 2, 64)
	if err != nil {
		return err
	}
	cat := query.Catalog{"A": a}
	plan := query.Dedup{Child: query.Project{
		Child: query.Select{Child: query.Scan{Name: "A"},
			Query: relation.Query{{Col: 0, Op: cells.LT, Value: 32}}},
		Cols: []int{0},
	}}
	out.Plan = query.Render(plan)

	var rel *relation.Relation
	runOnce := func(streaming bool, st *query.ExecStats) error {
		var err error
		rel, err = query.ExecuteCtx(context.Background(), plan, cat, &query.Options{
			Metrics: obs.NewRegistry(), Stats: st, Streaming: streaming,
			Backend: machine.BackendBitset})
		return err
	}

	var matSt, strSt query.ExecStats
	mat, err := bestPer(iters, 1, func() error { return runOnce(false, &matSt) })
	if err != nil {
		return err
	}
	str, err := bestPer(iters, 1, func() error { return runOnce(true, &strSt) })
	if err != nil {
		return err
	}

	out.Rows = rel.Cardinality()
	out.MaterializingSeconds = mat.Seconds()
	out.StreamingSeconds = str.Seconds()
	out.MaterializingPeak = matSt.PeakTuples
	out.StreamingPeak = strSt.PeakTuples
	out.MaterializedNodes = matSt.MaterializedNodes
	out.StreamingBreakers = strSt.MaterializedNodes
	fmt.Printf("%-10s materializing %9.3fms peak %d   streaming %9.3fms peak %d\n",
		"streaming", mat.Seconds()*1000, matSt.PeakTuples, str.Seconds()*1000, strSt.PeakTuples)
	return nil
}

// benchPushdown reports the tile arithmetic of selecting before tiling: a
// selective predicate over a join shrinks the A side before the array
// decomposes the problem (§8), measured with the real optimizer rewrite
// and the catalog's actual selectivity.
func benchPushdown(n int, seed int64, out *pushdownBench) error {
	a, err := workload.Uniform(seed+1, n, 2, 64)
	if err != nil {
		return err
	}
	b, err := workload.Uniform(seed+2, n, 2, 64)
	if err != nil {
		return err
	}
	cat := query.Catalog{"A": a, "B": b}
	sel := relation.Query{{Col: 1, Op: cells.LT, Value: 16}}
	plan := query.Select{
		Child: query.Join{L: query.Scan{Name: "A"}, R: query.Scan{Name: "B"},
			Spec: join.Spec{ACols: []int{0}, BCols: []int{0}}},
		Query: sel,
	}
	opt, err := query.Optimize(plan, cat)
	if err != nil {
		return err
	}
	_, pushed := opt.(query.Join)

	// Actual post-select cardinality of the A side.
	bitOpts := func() *query.Options {
		return &query.Options{Metrics: obs.NewRegistry(), Backend: machine.BackendBitset}
	}
	filtered, err := query.ExecuteCtx(context.Background(),
		query.Select{Child: query.Scan{Name: "A"}, Query: sel}, cat, bitOpts())
	if err != nil {
		return err
	}
	k := filtered.Cardinality()

	size := decompose.ArraySize{MaxA: 32, MaxB: 32}
	out.Plan = query.Render(plan)
	out.ArrayMaxA, out.ArrayMaxB = size.MaxA, size.MaxB
	out.RowsBefore, out.RowsAfter = n, k
	out.TilesBare = size.Tiles(n, n)
	out.TilesPushed = size.Tiles(k, n)
	out.TilesSaved = size.TilesSaved(n, k, n, n)
	out.StripsSavedA = decompose.StripsSaved(n, k, size.MaxA)
	out.PushedDownOK = pushed

	// Sanity: the rewritten plan computes the same relation.
	want, err := query.ExecuteCtx(context.Background(), plan, cat, bitOpts())
	if err != nil {
		return err
	}
	got, err := query.ExecuteCtx(context.Background(), opt, cat, bitOpts())
	if err != nil {
		return err
	}
	out.ResultsAgree = got.EqualAsMultiset(want)
	fmt.Printf("%-10s tiles %d -> %d (saved %d, A rows %d -> %d)\n",
		"pushdown", out.TilesBare, out.TilesPushed, out.TilesSaved, n, k)
	return nil
}
