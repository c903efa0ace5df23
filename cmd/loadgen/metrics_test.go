package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"systolicdb/internal/query"
)

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the metric tables")

func renderForm(t *testing.T, text string) string {
	t.Helper()
	n, err := query.Parse(text)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	return query.Render(n)
}

// benchmarkFile is BENCHMARK.json, key for key as the driver's contract
// spells it.
type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchLayer    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declared builds BENCHMARK.json's content from the tables loadgen prints
// from, so the file cannot drift from the program.
func declared() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "cmd/loadgen", "."},
		Paths:      []string{"cmd/loadgen"},
		RunSeconds: 15,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchMetric{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchLayer{m.name, m.unit, m.better})
	}
	return f
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	want := declared()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from loadgen's metric tables; run `go test -run BenchmarkJSON -update`")
	}
}

// TestDeclarationsFitTheContract checks the limits the driver refuses a
// benchmark over, before it gets the chance.
func TestDeclarationsFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not fit the contract", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		use("workload", w.name)
		if len(w.why) > 200 || len(w.why) == 0 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n != 120 {
		t.Errorf("%d per-layer metrics, want the 120 the README counts (and at most 128)", n)
	}
	setup := false
	for _, m := range endToEnd {
		use("end-to-end", m.name)
		if m.bound < 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			setup = m.unit == "s" && m.better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(m.unit) {
			t.Errorf("%s: unit %q does not fit the contract", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
	for _, m := range perLayer {
		use("per-layer", m.name)
	}
}
