package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"systolicdb/internal/obs"
	"systolicdb/internal/query"
	"systolicdb/internal/workload"
)

// clusterSeries lists every cluster_* counter (with its value) and histogram
// (with its observation count — durations vary) in reg, sorted.
func clusterSeries(reg *obs.Registry) []string {
	var out []string
	for _, s := range reg.Snapshot() {
		if !strings.HasPrefix(s.Name, "cluster_") {
			continue
		}
		keys := make([]string, 0, len(s.Labels))
		for k, v := range s.Labels {
			keys = append(keys, fmt.Sprintf("%s=%q", k, v))
		}
		sort.Strings(keys)
		name := fmt.Sprintf("%s{%s}", s.Name, strings.Join(keys, ","))
		switch s.Kind {
		case obs.KindCounter:
			out = append(out, fmt.Sprintf("%s %d", name, int64(s.Value)))
		case obs.KindHistogram:
			out = append(out, fmt.Sprintf("%s count=%d", name, s.Count))
		}
	}
	sort.Strings(out)
	return out
}

// TestEngineMetricLabels pins every series the engine records, label values
// included, for each strategy and for a join or division under a peeled
// wrapper. The expectations were captured by running this file against the
// commit before the engine was rebuilt on query.Children / WithChildren: a
// join under project/select/dedup must still be labelled op="join", not
// with the wrapper's name, and the fallback must name the operator that ran
// at the coordinator.
func TestEngineMetricLabels(t *testing.T) {
	j2 := joinBase(t, 25, 100, 2)
	j1 := joinBase(t, 23, 200, 1)
	a, b, err := workload.OverlapPair(41, 120, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	va, vb, err := workload.DivisionCase(31, 40, 6, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	widths := func(name string) (int, bool) { return 1, true }
	cases := []struct {
		name string
		base query.Catalog
		plan string
		opt  ExecOptions
		want []string
	}{
		{"broadcast under project", j2, "project(join(scan(j1),scan(j2),0=0),0,1)", ExecOptions{BroadcastLimit: 10_000}, []string{
			`cluster_broadcast_rows_total{} 300`,
			`cluster_gather_rows_total{op="join"} 85`,
			`cluster_gather_rows_total{op="scan"} 100`,
			`cluster_join_strategy_total{strategy="broadcast"} 1`,
			`cluster_scatter_seconds{op="join"} count=1`,
			`cluster_scatter_seconds{op="scan"} count=1`,
			`cluster_subqueries_total{op="join"} 3`,
			`cluster_subqueries_total{op="scan"} 3`,
		}},
		{"shuffle under select", j2, "select(join(scan(j1),scan(j2),0=0),0<40)", ExecOptions{BroadcastLimit: 1}, []string{
			`cluster_gather_rows_total{op="join"} 143`,
			`cluster_gather_rows_total{op="scan"} 200`,
			`cluster_join_strategy_total{strategy="shuffle"} 1`,
			`cluster_scatter_seconds{op="join"} count=1`,
			`cluster_scatter_seconds{op="scan"} count=2`,
			`cluster_shuffle_rows_total{} 200`,
			`cluster_subqueries_total{op="join"} 3`,
			`cluster_subqueries_total{op="scan"} 6`,
		}},
		{"copartitioned under dedup", j1, "dedup(join(scan(j1),scan(j2),0=0))", ExecOptions{Width: widths}, []string{
			`cluster_gather_dedup_skipped_total{} 1`,
			`cluster_gather_rows_total{op="join"} 80`,
			`cluster_join_strategy_total{strategy="copartitioned"} 1`,
			`cluster_scatter_seconds{op="join"} count=1`,
			`cluster_subqueries_total{op="join"} 3`,
		}},
		{"derived probe side", j2, "project(select(join(project(scan(j1),1,0),scan(j2),1=0),1<40),2)", ExecOptions{}, []string{
			`cluster_broadcast_rows_total{} 300`,
			`cluster_gather_rows_total{op="join"} 66`,
			`cluster_gather_rows_total{op="project"} 100`,
			`cluster_gather_rows_total{op="scan"} 100`,
			`cluster_join_strategy_total{strategy="broadcast"} 1`,
			`cluster_scatter_seconds{op="join"} count=1`,
			`cluster_scatter_seconds{op="project"} count=1`,
			`cluster_scatter_seconds{op="scan"} count=1`,
			`cluster_shuffle_rows_total{} 100`,
			`cluster_subqueries_total{op="join"} 3`,
			`cluster_subqueries_total{op="project"} 3`,
			`cluster_subqueries_total{op="scan"} 3`,
		}},
		{"division under dedup", query.Catalog{"v1": va, "v2": vb}, "dedup(divide(scan(v1),scan(v2),quot=0,div=1,by=0))", ExecOptions{}, []string{
			`cluster_broadcast_rows_total{} 18`,
			`cluster_gather_dedup_skipped_total{} 1`,
			`cluster_gather_rows_total{op="divide"} 18`,
			`cluster_gather_rows_total{op="scan"} 224`,
			`cluster_scatter_seconds{op="divide"} count=1`,
			`cluster_scatter_seconds{op="scan"} count=2`,
			`cluster_shuffle_rows_total{} 218`,
			`cluster_subqueries_total{op="divide"} 3`,
			`cluster_subqueries_total{op="scan"} 6`,
		}},
		{"local fallback chain", query.Catalog{"a": a, "b": b},
			"select(difference(project(scan(a),0),dedup(project(scan(b),0))),0<600)", ExecOptions{}, []string{
				`cluster_gather_rows_total{op="dedup"} 120`,
				`cluster_gather_rows_total{op="project"} 120`,
				`cluster_local_fallback_total{op="difference"} 1`,
				`cluster_local_fallback_total{op="select"} 1`,
				`cluster_scatter_seconds{op="dedup"} count=1`,
				`cluster_scatter_seconds{op="project"} count=1`,
				`cluster_subqueries_total{op="dedup"} 3`,
				`cluster_subqueries_total{op="project"} 3`,
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want, ms, reg := execBoth(t, 3, c.base, c.plan, c.opt)
			requireEqual(t, c.plan, got, want)
			requireNoTemps(t, ms)
			if series := clusterSeries(reg); !reflect.DeepEqual(series, c.want) {
				t.Errorf("%s recorded\n\t%s\nwant\n\t%s", c.plan,
					strings.Join(series, "\n\t"), strings.Join(c.want, "\n\t"))
			}
		})
	}
}
