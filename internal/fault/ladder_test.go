package fault

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestHealthLadder enumerates the device quarantine ladder over every
// (state, event) pair through Health's exported methods (quarantine after
// 3). A state is named by the path of events that reaches it; a row records
// the state one more event leaves behind, whether the event was refused (no
// observable effect), and the quarantines RecordFailure reported — the
// transitions the Executor counts as fault_quarantine_events_total.
func TestHealthLadder(t *testing.T) {
	states := []struct {
		name string
		path []string
	}{
		{"healthy", nil},
		{"healthy-1", []string{"failure"}},
		{"healthy-2", []string{"failure", "failure"}},
		{"quarantined", []string{"failure", "failure", "failure"}},
	}
	type outcome struct {
		want        string
		refused     bool
		quarantines int
	}
	rows := map[[2]string]outcome{
		{"healthy", "failure"}:     {"healthy s=1", false, 0},
		{"healthy", "success"}:     {"healthy s=0", true, 0},
		{"healthy", "revive"}:      {"healthy s=0", true, 0},
		{"healthy-1", "failure"}:   {"healthy s=2", false, 0},
		{"healthy-1", "success"}:   {"healthy s=0", false, 0},
		{"healthy-1", "revive"}:    {"healthy s=0", false, 0},
		{"healthy-2", "failure"}:   {"quarantined", false, 1},
		{"healthy-2", "success"}:   {"healthy s=0", false, 0},
		{"healthy-2", "revive"}:    {"healthy s=0", false, 0},
		{"quarantined", "failure"}: {"quarantined", true, 0},
		{"quarantined", "success"}: {"quarantined", true, 0},
		{"quarantined", "revive"}:  {"healthy s=0", false, 0},
	}
	for _, st := range states {
		for _, ev := range []string{"failure", "success", "revive"} {
			h := runHealth(st.path)
			before := observeHealth(h, st.path)
			path := append(append([]string(nil), st.path...), ev)
			got := outcome{quarantines: fireHealth(h, ev), want: observeHealth(h, path)}
			got.refused = got.want == before && got.quarantines == 0
			if want, ok := rows[[2]string{st.name, ev}]; !ok || got != want {
				t.Errorf("(%s, %s) = %#v, want %#v", st.name, ev, got, want)
			}
		}
	}
}

func runHealth(path []string) *Health {
	h := NewHealth(3)
	for _, ev := range path {
		fireHealth(h, ev)
	}
	return h
}

// fireHealth delivers one event and returns the quarantines it reported.
func fireHealth(h *Health, ev string) int {
	switch ev {
	case "failure":
		if h.RecordFailure("d") {
			return 1
		}
	case "success":
		h.RecordSuccess("d")
	case "revive":
		h.Revive("d")
	}
	return 0
}

// observeHealth renders the device's rung; a healthy device's failure
// streak s is read off a replay of path, as the failures it still takes to
// reach quarantine.
func observeHealth(h *Health, path []string) string {
	q, names, degraded := h.Quarantined("d"), h.QuarantinedNames(), h.Degraded()
	if q != degraded || q != (len(names) == 1) {
		return fmt.Sprintf("inconsistent: quarantined=%v names=%v degraded=%v", q, names, degraded)
	}
	if q {
		return "quarantined"
	}
	r := runHealth(path)
	n := 1
	for !r.RecordFailure("d") {
		n++
	}
	return fmt.Sprintf("healthy s=%d", 3-n)
}

// TestLadderCauses pins the core's cause rules on the shared latch: causes
// join as they trip it, each clear releases only its own, the earliest
// cause still held is the one reported, the base returns only with the
// last cause, and a duplicate trip or a stray clear is refused without
// reaching the counters. Entry times follow the ladder's clock.
func TestLadderCauses(t *testing.T) {
	const (
		ok, held   = 0, LatchHeld
		trip, free = LatchTrip, LatchClear
	)
	clock := time.Unix(0, 0)
	var moves []string
	l := NewLadder(Latch,
		func(from, to, _ int, cause string) { moves = append(moves, fmt.Sprintf("%d>%d:%s", from, to, cause)) },
		func() time.Time { return clock })
	step := func(on int, cause string, want bool, state int, first string) {
		t.Helper()
		clock = clock.Add(time.Second)
		if got := l.Move(on, cause); got != want || l.State() != state || l.Cause() != first {
			t.Fatalf("Move(%d, %q) = %v, state %d, cause %q; want %v, %d, %q",
				on, cause, got, l.State(), l.Cause(), want, state, first)
		}
	}
	step(free, "a", false, ok, "")
	step(trip, "a", true, held, "a")
	step(trip, "b", true, held, "a")
	if l.Since() != time.Second {
		t.Errorf("Since = %v, want 1s: a self-loop must not restart the entry time", l.Since())
	}
	step(trip, "a", false, held, "a")
	step(free, "a", true, held, "b")
	step(free, "a", false, held, "b")
	step(free, "b", true, ok, "")
	if got, want := strings.Join(moves, " "), "0>1:a 1>1:b 1>1:a 1>0:b"; got != want {
		t.Errorf("counted moves %q, want %q", got, want)
	}
}
