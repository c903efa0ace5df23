package machine

import (
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

// TestScheduleResourceExclusivity checks the physical invariant of the §9
// machine: a device (or the disk) executes at most one operation at a time,
// so events on the same resource must not overlap in modeled time.
func TestScheduleResourceExclusivity(t *testing.T) {
	a, b, err := workload.JoinPair(60, 40, 40, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, d, err := workload.JoinPair(61, 40, 40, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Default1980(32)
	if err != nil {
		t.Fatal(err)
	}
	spec := &join.Spec{ACols: []int{0}, BCols: []int{0}}
	res, err := m.Run([]Task{
		{Op: OpLoad, Base: a, Output: "A"},
		{Op: OpLoad, Base: b, Output: "B"},
		{Op: OpLoad, Base: c, Output: "C"},
		{Op: OpLoad, Base: d, Output: "D"},
		{Op: OpJoin, Inputs: []string{"A", "B"}, Join: spec, Output: "AB"},
		{Op: OpJoin, Inputs: []string{"C", "D"}, Join: spec, Output: "CD"},
		{Op: OpUnion, Inputs: []string{"AB", "CD"}, Output: "U"},
		{Op: OpDedup, Inputs: []string{"U"}, Output: "out"},
		{Op: OpStore, Inputs: []string{"out"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	byResource := make(map[string][]Event)
	for _, ev := range res.Events {
		byResource[ev.Resource] = append(byResource[ev.Resource], ev)
		if ev.End < ev.Start {
			t.Errorf("event %q ends before it starts: %v..%v", ev.Task, ev.Start, ev.End)
		}
	}
	for resName, evs := range byResource {
		for i := 0; i < len(evs); i++ {
			for j := i + 1; j < len(evs); j++ {
				x, y := evs[i], evs[j]
				if x.Start < y.End && y.Start < x.End {
					t.Errorf("resource %q double-booked: %q [%v..%v] overlaps %q [%v..%v]",
						resName, x.Task, x.Start, x.End, y.Task, y.Start, y.End)
				}
			}
		}
	}
}

// TestScheduleDependencyOrdering checks that no task starts before every
// input it consumes has been produced.
func TestScheduleDependencyOrdering(t *testing.T) {
	a, b, err := workload.OverlapPair(62, 30, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Default1980(32)
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task{
		{Op: OpLoad, Base: a, Output: "A"},
		{Op: OpLoad, Base: b, Output: "B"},
		{Op: OpIntersect, Inputs: []string{"A", "B"}, Output: "I"},
		{Op: OpDedup, Inputs: []string{"I"}, Output: "D"},
		{Op: OpStore, Inputs: []string{"D"}},
	}
	res, err := m.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	end := make(map[string]Event)
	byTask := make(map[string]Event)
	for _, ev := range res.Events {
		byTask[ev.Task] = ev
	}
	for i, task := range tasks {
		ev := byTask[task.ID]
		if task.ID == "" {
			// IDs were auto-assigned task0..task4 in order.
			ev = byTask[autoID(i)]
		}
		for _, in := range task.Inputs {
			producer, ok := end[in]
			if !ok {
				t.Fatalf("input %q consumed before produced", in)
			}
			if ev.Start < producer.End {
				t.Errorf("task %q starts at %v before its input %q is ready at %v",
					ev.Task, ev.Start, in, producer.End)
			}
		}
		if task.Output != "" {
			end[task.Output] = ev
		}
	}
}

func autoID(i int) string {
	return "task" + string(rune('0'+i))
}

// TestSelectingLoadTakesOneRevolution checks the §9 logic-per-track timing
// inside the machine: a selecting load costs one revolution, not a full
// relation transfer.
func TestSelectingLoadTakesOneRevolution(t *testing.T) {
	big, err := workload.Uniform(63, 5000, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Default1980(32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]Task{
		{Op: OpLoad, Base: big, Output: "S",
			Select: relation.Query{{Col: 0, Op: cells.LT, Value: 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rev := m.cfg.Disk.RevolutionTime()
	if got := res.Events[0].End - res.Events[0].Start; got != rev {
		t.Errorf("selecting load took %v, want one revolution %v", got, rev)
	}
	if res.Relations["S"].Cardinality() == 0 || res.Relations["S"].Cardinality() == big.Cardinality() {
		t.Errorf("selection did not filter: %d of %d", res.Relations["S"].Cardinality(), big.Cardinality())
	}
}
