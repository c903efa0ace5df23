package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/workload"
)

// TestOptionsBackendSelection pins that Options.Backend selects the
// execution engine: both backends produce the same relation for the same
// plan, each reports cost in its own unit (pulses vs word ops), and the
// per-node metrics carry the backend label.
func TestOptionsBackendSelection(t *testing.T) {
	cat := optionsCatalog(t)
	for _, src := range []string{
		"intersect(scan(A), scan(B))",
		"difference(scan(A), scan(B))",
		"union(scan(A), scan(B))",
		"dedup(scan(A))",
		"project(join(scan(A), scan(B), 0=0), 0)",
		"theta(scan(A), scan(B), 0>0)",
	} {
		plan, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}

		var pulseSt ExecStats
		pulseRel, err := ExecuteCtx(context.Background(), plan, cat,
			&Options{Metrics: obs.NewRegistry(), Stats: &pulseSt})
		if err != nil {
			t.Fatalf("%s pulse: %v", src, err)
		}

		reg := obs.NewRegistry()
		var bitSt ExecStats
		bitRel, err := ExecuteCtx(context.Background(), plan, cat,
			&Options{Metrics: reg, Stats: &bitSt, Backend: machine.BackendBitset})
		if err != nil {
			t.Fatalf("%s bitset: %v", src, err)
		}

		if !pulseRel.EqualAsMultiset(bitRel) {
			t.Errorf("%s: backends disagree:\npulse:\n%s\nbitset:\n%s", src, pulseRel, bitRel)
		}
		if pulseSt.Pulses == 0 || pulseSt.WordOps != 0 {
			t.Errorf("%s pulse stats: pulses=%d wordOps=%d, want pulses>0 wordOps=0",
				src, pulseSt.Pulses, pulseSt.WordOps)
		}
		if bitSt.WordOps == 0 || bitSt.Pulses != 0 {
			t.Errorf("%s bitset stats: pulses=%d wordOps=%d, want wordOps>0 pulses=0",
				src, bitSt.Pulses, bitSt.WordOps)
		}
		if reg.Counter("query_node_word_ops_total",
			obs.Labels{"node": "scan", "backend": "bitset"}).Value() != 0 {
			t.Errorf("%s: scan charged word ops", src)
		}
		pulseSt, bitSt = ExecStats{}, ExecStats{}
	}
}

// TestBitsetBackendMetricLabels pins the per-backend metric shape: bitset
// runs emit query_node_word_ops_total under backend="bitset" and no pulse
// series for the same node.
func TestBitsetBackendMetricLabels(t *testing.T) {
	cat := optionsCatalog(t)
	plan, err := Parse("intersect(scan(A), scan(B))")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := ExecuteCtx(context.Background(), plan, cat,
		&Options{Metrics: reg, Backend: machine.BackendBitset}); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("query_node_word_ops_total",
		obs.Labels{"node": "intersect", "backend": "bitset"}).Value() == 0 {
		t.Error("no word ops recorded under backend=bitset")
	}
	if reg.Counter("query_node_pulses_total",
		obs.Labels{"node": "intersect", "backend": "bitset"}).Value() != 0 {
		t.Error("bitset run recorded pulse series")
	}
}

// TestDivisionBackendEquivalence runs the division plan node on both
// backends (it reduces through different distinct-x machinery, so it gets
// its own pin).
func TestDivisionBackendEquivalence(t *testing.T) {
	a, b, err := workload.DivisionCase(11, 16, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"A": a, "B": b}
	plan, err := Parse("divide(scan(A), scan(B), quot=0, div=1, by=0)")
	if err != nil {
		t.Fatal(err)
	}
	pulseRel, err := ExecuteCtx(context.Background(), plan, cat, &Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	bitRel, err := ExecuteCtx(context.Background(), plan, cat,
		&Options{Metrics: obs.NewRegistry(), Backend: machine.BackendBitset})
	if err != nil {
		t.Fatal(err)
	}
	if !pulseRel.EqualAsMultiset(bitRel) {
		t.Errorf("division backends disagree:\npulse:\n%s\nbitset:\n%s", pulseRel, bitRel)
	}
}

// TestStreamingHonoursBackend: streaming and backend compose. A Divide is
// a pipeline breaker, so under Streaming it runs on the selected backend's
// kernel — pulses on the pulse arrays, word ops on the bitset engine, never
// quietly on the other — and, being a blocking node, records its span.
func TestStreamingHonoursBackend(t *testing.T) {
	a, b, err := workload.DivisionCase(11, 16, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"A": a, "B": b}
	plan, err := Parse("divide(scan(A), scan(B), quot=0, div=1, by=0)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecuteCtx(context.Background(), plan, cat, &Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []machine.Backend{machine.BackendPulse, machine.BackendBitset} {
		reg := obs.NewRegistry()
		var st ExecStats
		got, err := ExecuteCtx(context.Background(), plan, cat,
			&Options{Metrics: reg, Stats: &st, Backend: backend, Streaming: true})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if !got.EqualAsMultiset(want) {
			t.Errorf("%v: streaming divide differs from the materializing run", backend)
		}
		own, other := st.Pulses, st.WordOps
		if backend == machine.BackendBitset {
			own, other = other, own
		}
		if own == 0 || other != 0 {
			t.Errorf("%v: stats %+v: want the backend's own cost unit only", backend, st)
		}
		if st.MaterializedNodes != 1 {
			t.Errorf("%v: %d materialized nodes, want 1 (the divide)", backend, st.MaterializedNodes)
		}
		// Open is the same tree handed to the caller: it honours the
		// same options.
		var ost ExecStats
		it, err := Open(context.Background(), plan, cat, &Options{Metrics: obs.NewRegistry(), Stats: &ost, Backend: backend})
		if err != nil {
			t.Fatalf("%v: Open: %v", backend, err)
		}
		rows := 0
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			rows++
		}
		it.Close()
		if it.Err() != nil || rows != want.Cardinality() || ost.Pulses != st.Pulses || ost.WordOps != st.WordOps {
			t.Errorf("%v: Open yielded %d rows (err %v), stats %+v; ExecuteCtx gave %d rows, stats %+v",
				backend, rows, it.Err(), ost, want.Cardinality(), st)
		}
		var text strings.Builder
		if err := reg.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		span := fmt.Sprintf("query_node_host_seconds_count{backend=%q,node=\"divide\"} 1\n", backend.String())
		if !strings.Contains(text.String(), span) {
			t.Errorf("%v: no breaker span %q in:\n%s", backend, span, text.String())
		}
	}
}
