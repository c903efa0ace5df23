package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"systolicdb/internal/trace"
)

func captureTrace(t *testing.T, f func(*trace.Recorder) error) (string, *trace.Recorder) {
	t.Helper()
	rec := &trace.Recorder{}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errCh := make(chan error, 1)
	go func() { errCh <- f(rec) }()
	runErr := <-errCh
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("trace failed: %v", runErr)
	}
	return string(out), rec
}

func TestTraceComparison(t *testing.T) {
	out, rec := captureTrace(t, traceComparison)
	if !strings.Contains(out, "result matrix T") {
		t.Errorf("missing result matrix:\n%s", out)
	}
	if rec.Pulses() == 0 {
		t.Error("no pulses recorded")
	}
	var buf bytes.Buffer
	if err := rec.RenderPulse(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pulse 0") {
		t.Error("pulse rendering broken")
	}
}

func TestTraceIntersection(t *testing.T) {
	out, rec := captureTrace(t, traceIntersection)
	if !strings.Contains(out, "membership bits") {
		t.Errorf("missing bits line:\n%s", out)
	}
	// A matches b_0 and b_2 of B: bits [true true true]? The figure
	// relations share tuples 0 and 1 of A with B.
	if rec.Pulses() == 0 {
		t.Error("no pulses recorded")
	}
}

func TestTraceDivision(t *testing.T) {
	out, rec := captureTrace(t, traceDivision)
	if !strings.Contains(out, "quotient bits per stored x: [true false true]") {
		t.Errorf("division trace bits wrong:\n%s", out)
	}
	if rec.Pulses() == 0 {
		t.Error("no pulses recorded")
	}
}

// TestTraceGolden pins the whole output of `trace -array X` for every array
// byte for byte: the result lines and every rendered pulse. The files in
// testdata were written by the command itself (`go run ./cmd/trace -array X
// > testdata/X.golden`); a change to the engine's stepping may make it
// faster but must leave every traced snapshot as it was.
func TestTraceGolden(t *testing.T) {
	for name, run := range map[string]func(*trace.Recorder) error{
		"comparison":   traceComparison,
		"intersection": traceIntersection,
		"division":     traceDivision,
	} {
		out, rec := captureTrace(t, run)
		var buf bytes.Buffer
		buf.WriteString(out)
		if err := rec.RenderRange(&buf, 0, rec.Pulses()); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("testdata/" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if buf.String() != string(want) {
			t.Errorf("trace -array %s differs from testdata/%s.golden:\n%s", name, name, buf.String())
		}
	}
}
