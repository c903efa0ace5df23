package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"systolicdb/internal/machine"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

var updatePulseCycle = flag.Bool("update", false, "rewrite testdata/pulse_cycle.golden")

// TestPulseSimCycle replays the pulse_sim benchmark's round-robin: its
// relations are rebuilt from internal/workload at seed 11 the way the load
// generator builds them (OverlapPair for A/B and the join's JA/JB, D with
// duplicates, a fully covered division case), loaded through the HTTP API
// of a pulse-backend daemon with array size 16, and each of the six plans
// runs on the host arrays and on the DefaultConfig1980(16) machine. Every
// request's simulated pulses and formatted table must match
// testdata/pulse_cycle.golden byte for byte: the simulator may get faster,
// but its pulse counts and answers may not move. Rewrite the file with
// -update only when a change to the arrays' timing is intended.
func TestPulseSimCycle(t *testing.T) {
	_, ts := testServer(t, Config{Backend: machine.BackendPulse, ArraySize: 16})
	a, b, err := workload.OverlapPair(11, 48, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.WithDuplicates(13, 48, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	da, db, err := workload.DivisionCase(14, 16, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		rel  *relation.Relation
	}{{"A", a}, {"B", b}, {"JA", a}, {"JB", b}, {"D", d}, {"DA", da}, {"DB", db}} {
		var sb strings.Builder
		if err := relation.FormatTable(&sb, r.rel); err != nil {
			t.Fatal(err)
		}
		if code, body := do(t, "PUT", ts.URL+"/relations/"+r.name, sb.String()); code != http.StatusOK {
			t.Fatalf("PUT %s: %d %s", r.name, code, body)
		}
	}

	plans := []string{
		"intersect(scan(A), scan(B))",
		"difference(scan(A), scan(B))",
		"union(scan(A), scan(B))",
		"dedup(scan(D))",
		"project(join(scan(JA), scan(JB), 0=0), 1, 2)",
		"divide(scan(DA), scan(DB), quot=0, div=1, by=0)",
	}
	var got strings.Builder
	total := 0
	for _, plan := range plans {
		for _, onMachine := range []bool{false, true} {
			code, body := postQuery(t, ts.URL, map[string]any{"plan": plan, "machine": onMachine})
			if code != http.StatusOK {
				t.Fatalf("%s machine=%v: %d %s", plan, onMachine, code, body)
			}
			var resp struct {
				Pulses   int    `json:"pulses"`
				Degraded bool   `json:"degraded"`
				Table    string `json:"table"`
			}
			if err := json.Unmarshal([]byte(body), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Degraded {
				t.Fatalf("%s fell back to the host executor", plan)
			}
			total += resp.Pulses
			fmt.Fprintf(&got, "== %s machine=%v pulses=%d\n%s", plan, onMachine, resp.Pulses, resp.Table)
		}
	}
	fmt.Fprintf(&got, "== total pulses per cycle %d\n", total)

	const path = "testdata/pulse_cycle.golden"
	if *updatePulseCycle {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("pulse_sim cycle differs from %s:\n%s", path, got.String())
	}
}
