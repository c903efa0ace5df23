package machine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"systolicdb/internal/join"
	"systolicdb/internal/workload"
)

func sampleResult(t *testing.T) *Result {
	t.Helper()
	a, b, err := workload.JoinPair(80, 40, 40, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Default1980(32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]Task{
		{Op: OpLoad, Base: a, Output: "A"},
		{Op: OpLoad, Base: b, Output: "B"},
		{Op: OpJoin, Inputs: []string{"A", "B"}, Output: "AB",
			Join: &join.Spec{ACols: []int{0}, BCols: []int{0}}},
		{Op: OpProject, Inputs: []string{"AB"}, Cols: []int{0}, Output: "P"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidateAcceptsScheduler(t *testing.T) {
	res := sampleResult(t)
	if err := res.Validate(); err != nil {
		t.Errorf("scheduler produced invalid schedule: %v", err)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	res := &Result{
		Makespan: 10 * time.Millisecond,
		Events: []Event{
			{Task: "x", Resource: "dev", Start: 0, End: 5 * time.Millisecond},
			{Task: "y", Resource: "dev", Start: 4 * time.Millisecond, End: 8 * time.Millisecond},
		},
	}
	if err := res.Validate(); err == nil {
		t.Error("overlapping events not caught")
	}
}

func TestValidateCatchesBadEvent(t *testing.T) {
	res := &Result{
		Makespan: time.Millisecond,
		Events:   []Event{{Task: "x", Resource: "d", Start: 2 * time.Millisecond, End: time.Millisecond}},
	}
	if err := res.Validate(); err == nil {
		t.Error("end-before-start not caught")
	}
	res = &Result{
		Makespan: time.Millisecond,
		Events:   []Event{{Task: "x", Resource: "d", Start: 0, End: 2 * time.Millisecond}},
	}
	if err := res.Validate(); err == nil {
		t.Error("event past makespan not caught")
	}
}

func TestRenderGantt(t *testing.T) {
	res := sampleResult(t)
	var buf bytes.Buffer
	if err := res.RenderGantt(&buf, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"disk", "join0", "intersect0", "makespan", "#"} {
		if !strings.Contains(out, frag) {
			t.Errorf("gantt output missing %q:\n%s", frag, out)
		}
	}
}

func TestRenderGanttEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Result{}).RenderGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Errorf("empty schedule rendering = %q", buf.String())
	}
}

func TestResultString(t *testing.T) {
	res := sampleResult(t)
	s := res.String()
	if !strings.Contains(s, "join") || !strings.Contains(s, "makespan") {
		t.Errorf("String() = %q", s)
	}
}

// String renders a compact one-line-per-event schedule (for logs).
func (r *Result) String() string {
	var b strings.Builder
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "%s %s on %s [%v..%v]\n", ev.Task, ev.Op, ev.Resource, ev.Start, ev.End)
	}
	fmt.Fprintf(&b, "makespan %v\n", r.Makespan)
	return b.String()
}
