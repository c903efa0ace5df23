package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"systolicdb/internal/machine"
	"systolicdb/internal/server"
)

// capture runs f with os.Stdout redirected and returns what it printed. The
// pipe is drained while f runs: a pipe buffers 64 KiB, so reading only after
// f returns would deadlock any run that prints more than that.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	type drained struct {
		out []byte
		err error
	}
	outCh := make(chan drained, 1)
	go func() {
		out, err := io.ReadAll(r)
		outCh <- drained{out, err}
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	d := <-outCh
	if d.err != nil {
		t.Fatal(d.err)
	}
	if runErr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", runErr, d.out)
	}
	return string(d.out)
}

// TestCaptureLargeOutput prints more than a pipe buffer holds; before capture
// drained concurrently this hung until the test timeout.
func TestCaptureLargeOutput(t *testing.T) {
	line := strings.Repeat("x", 1023) + "\n"
	out := capture(t, func() error {
		for i := 0; i < 200; i++ { // 200 KiB > the 64 KiB pipe buffer
			if _, err := os.Stdout.WriteString(line); err != nil {
				return err
			}
		}
		return nil
	})
	if len(out) != 200*len(line) {
		t.Fatalf("captured %d bytes, want %d", len(out), 200*len(line))
	}
}

func TestRunAllOperations(t *testing.T) {
	ops := []string{"intersect", "difference", "union", "dedup", "project",
		"join", "theta-join", "divide", "select"}
	for _, op := range ops {
		op := op
		t.Run(op, func(t *testing.T) {
			out := capture(t, func() error {
				return run(op, machine.BackendPulse, 8, 2, 1, 0.5, 0.5, 1, ">", 3, 0.5, true)
			})
			if !strings.Contains(out, "tuples") {
				t.Errorf("%s output missing tuple counts:\n%s", op, out)
			}
		})
	}
}

func TestRunUnknownOp(t *testing.T) {
	err := run("bogus", machine.BackendPulse, 8, 2, 1, 0.5, 0.5, 1, ">", 3, 0.5, true)
	if err == nil {
		t.Fatal("unknown op not rejected")
	}
	// The error must enumerate every valid mode, including the ones that
	// are dispatched before run() (select, match, query).
	for _, mode := range []string{"intersect", "difference", "union", "dedup", "project",
		"join", "theta-join", "divide", "select", "match", "query"} {
		if !strings.Contains(err.Error(), mode) {
			t.Errorf("unknown-op error does not list %q: %v", mode, err)
		}
	}
	if err := run("theta-join", machine.BackendPulse, 8, 2, 1, 0.5, 0.5, 1, "??", 3, 0.5, true); err == nil {
		t.Error("unknown θ operator not rejected")
	}
}

func TestUsageStringListsAllModes(t *testing.T) {
	for _, mode := range []string{"select", "match", "query"} {
		if !strings.Contains(validOps, mode) {
			t.Errorf("-op usage string omits %q: %s", mode, validOps)
		}
	}
}

func TestRunMatchCLI(t *testing.T) {
	out := capture(t, func() error {
		return runMatch("ab", "ababab")
	})
	if !strings.Contains(out, "matches at: [0 2 4]") {
		t.Errorf("match output wrong:\n%s", out)
	}
}

func TestRunQueryCLI(t *testing.T) {
	out := capture(t, func() error {
		return runQuery("intersect(scan(A), scan(B))", 10, 2, 1, 1, nil, nil, machine.BackendPulse, false, true, false)
	})
	if !strings.Contains(out, "intersect(scan(A), scan(B))") || !strings.Contains(out, "optimized:") {
		t.Errorf("query output missing plan or optimization line:\n%s", out)
	}
	out = capture(t, func() error {
		return runQuery("project(join(scan(A), scan(B), 0=0), 0)", 10, 2, 1, 1, nil, nil, machine.BackendPulse, true, true, false)
	})
	if !strings.Contains(out, "makespan") {
		t.Errorf("machine query output missing gantt:\n%s", out)
	}
	if err := runQuery("", 4, 2, 1, 1, nil, nil, machine.BackendPulse, false, true, false); err == nil {
		t.Error("empty query not rejected")
	}
	if err := runQuery("scan(", 4, 2, 1, 1, nil, nil, machine.BackendPulse, false, true, false); err == nil {
		t.Error("malformed query not rejected")
	}
}

// TestRunQueryFromFiles runs -op query over relations loaded from table
// files with -rel, including a join across two separately loaded files
// (their dict columns must share a pooled domain to be comparable).
func TestRunQueryFromFiles(t *testing.T) {
	dir := t.TempDir()
	emp := filepath.Join(dir, "emp.tbl")
	dept := filepath.Join(dir, "dept.tbl")
	if err := os.WriteFile(emp, []byte("#% types: int, dict:names, int\nid\tname\tdept\n1\talice\t10\n2\tbob\t20\n3\tcarol\t10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dept, []byte("#% types: int, dict:names\ndid\thead\n10\talice\n20\tbob\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rels := server.RelSpecs{{Name: "emp", Path: emp}, {Name: "dept", Path: dept}}
	out := capture(t, func() error {
		return runQuery("project(join(scan(emp), scan(dept), 2=0), 1)", 0, 0, 1, 1, rels, nil, machine.BackendPulse, false, true, false)
	})
	for _, want := range []string{"loaded emp: 3 tuples, 3 columns", "loaded dept: 2 tuples, 2 columns", "result: 3 tuples"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Non-quiet file-backed results decode through their domains.
	out = capture(t, func() error {
		return runQuery("project(scan(emp), 1)", 0, 0, 1, 1, rels, nil, machine.BackendPulse, false, false, false)
	})
	if !strings.Contains(out, "alice") || !strings.Contains(out, "bob") {
		t.Errorf("decoded dump missing dictionary values:\n%s", out)
	}
	bad := server.RelSpecs{{Name: "x", Path: filepath.Join(dir, "missing.tbl")}}
	if err := runQuery("scan(x)", 0, 0, 1, 1, bad, nil, machine.BackendPulse, false, true, false); err == nil {
		t.Error("missing -rel file not rejected")
	}
}

// TestMetricsDump exercises the acceptance scenario: a -op query -metrics
// run must emit a non-empty dump covering grid pulses, tile counts,
// per-device busy time and per-plan-node spans, in text and JSON forms.
func TestMetricsDump(t *testing.T) {
	out := capture(t, func() error {
		if err := runQuery("project(join(scan(A), scan(B), 0=0), 0)", 10, 2, 1, 1, nil, nil, machine.BackendPulse, false, true, true); err != nil {
			return err
		}
		return dumpMetrics(os.Stdout)
	})
	if !strings.Contains(out, "=== metrics (text) ===") || !strings.Contains(out, "=== metrics (json) ===") {
		t.Fatalf("metrics dump missing section headers:\n%s", out)
	}
	text := out[strings.Index(out, "=== metrics (text) ==="):strings.Index(out, "=== metrics (json) ===")]
	jsonPart := out[strings.Index(out, "=== metrics (json) ===")+len("=== metrics (json) ===")+1:]

	for _, want := range []string{
		"systolic_pulses_total",                                      // grid pulses
		"decompose_tiles_total",                                      // tile counts
		`machine_device_busy_seconds_sum{device="join0"}`,            // per-device busy time
		`query_node_host_seconds_count{backend="pulse",node="join"}`, // per-plan-node spans
		`query_node_pulses_total{backend="pulse",node="project"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text metrics missing %q:\n%s", want, text)
		}
	}
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(jsonPart), &doc); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, jsonPart)
	}
	if len(doc.Metrics) == 0 {
		t.Error("metrics JSON is empty")
	}
	names := make(map[string]bool)
	for _, m := range doc.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"systolic_pulses_total", "decompose_tiles_total",
		"machine_device_busy_seconds", "query_node_host_seconds"} {
		if !names[want] {
			t.Errorf("metrics JSON missing %q", want)
		}
	}
}
