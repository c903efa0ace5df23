package wal

import (
	"fmt"
	"strings"
	"testing"

	"systolicdb/internal/diskchaos"
)

// TestWALLadder enumerates the log's append-state ladder — healthy or
// wedged — over every (state, event) pair. A row records the state one
// more event leaves behind, whether the call returned an error, whether
// the event was refused (no observable effect), and the wal_wedged_total
// and wal_repairs_total moves. Faults come from failFS: "wedge" is a
// rotation whose create and reopen both fail, the "-fail" events fail the
// reopen of the current segment, and "probe-scratch-fail" fails only the
// probe's scratch-file create. "repair" is the recovery a running server
// makes, which is Probe.
func TestWALLadder(t *testing.T) {
	type outcome struct {
		want    string
		err     bool
		refused bool
		wedges  int64
		repairs int64
	}
	rows := map[[2]string]outcome{
		{"healthy", "wedge"}:              {"wedged", true, false, 1, 0},
		{"healthy", "repair"}:             {"healthy", false, true, 0, 0},
		{"healthy", "repair-fail"}:        {"healthy", false, true, 0, 0}, // Probe leaves a healthy tail alone
		{"healthy", "probe"}:              {"healthy", false, true, 0, 0},
		{"healthy", "probe-fail"}:         {"healthy", false, true, 0, 0},
		{"healthy", "probe-scratch-fail"}: {"healthy", true, true, 0, 0},
		{"wedged", "wedge"}:               {"wedged", true, true, 0, 0},
		{"wedged", "repair"}:              {"healthy", false, false, 0, 1},
		{"wedged", "repair-fail"}:         {"wedged", true, true, 0, 0}, // a wedge counts once
		{"wedged", "probe"}:               {"healthy", false, false, 0, 1},
		{"wedged", "probe-fail"}:          {"wedged", true, true, 0, 0},
		{"wedged", "probe-scratch-fail"}:  {"healthy", true, false, 0, 1},
	}
	for _, st := range []string{"healthy", "wedged"} {
		for _, ev := range []string{"wedge", "repair", "repair-fail", "probe", "probe-fail", "probe-scratch-fail"} {
			ffs := &failFS{FS: diskchaos.OS}
			l, err := Open(Options{Dir: t.TempDir(), Fsync: true, Decode: testDecoder(), FS: ffs, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if st == "wedged" {
				fireWAL(l, ffs, "wedge")
			}
			before, wedges, repairs := observeWAL(l), l.reg.Counter("wal_wedged_total", nil).Value(), l.reg.Counter("wal_repairs_total", nil).Value()
			err = fireWAL(l, ffs, ev)
			got := outcome{want: observeWAL(l), err: err != nil,
				wedges:  l.reg.Counter("wal_wedged_total", nil).Value() - wedges,
				repairs: l.reg.Counter("wal_repairs_total", nil).Value() - repairs}
			got.refused = got.want == before && got.wedges == 0 && got.repairs == 0
			if want, ok := rows[[2]string{st, ev}]; !ok || got != want {
				t.Errorf("(%s, %s) = %#v, want %#v", st, ev, got, want)
			}
			l.Close()
		}
	}
}

// fireWAL delivers one event under its fault and heals the disk after.
func fireWAL(l *Log, ffs *failFS, ev string) error {
	defer func() { ffs.failCreate, ffs.failReopen = false, false }()
	switch ev {
	case "wedge":
		ffs.failCreate, ffs.failReopen = true, true
		_, err := l.Rotate()
		return err
	case "repair-fail":
		ffs.failReopen = true
		fallthrough
	case "repair":
		return l.Probe()
	case "probe-fail":
		ffs.failReopen = true
		return l.Probe()
	case "probe-scratch-fail":
		ffs.failCreate = true
		fallthrough
	case "probe":
		return l.Probe()
	}
	return fmt.Errorf("unknown event %q", ev)
}

func observeWAL(l *Log) string {
	if l.Wedged() != nil {
		return "wedged"
	}
	return "healthy"
}

// TestWedgeCountedOnce: a wedged log that fails to repair stays wedged
// without counting or logging another wedge, however often Probe fails.
func TestWedgeCountedOnce(t *testing.T) {
	ffs := &failFS{FS: diskchaos.OS}
	var lines []string
	l, err := Open(Options{Dir: t.TempDir(), Fsync: true, Decode: testDecoder(), FS: ffs,
		Logf: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ffs.failCreate, ffs.failReopen = true, true
	if _, err := l.Rotate(); err == nil || l.Wedged() == nil {
		t.Fatalf("failed rotate + reopen did not wedge the log (err %v)", err)
	}
	if l.Probe() == nil || l.Probe() == nil || l.Probe() == nil {
		t.Fatal("repair on a broken disk reported success")
	}
	if n := l.reg.Counter("wal_wedged_total", nil).Value(); n != 1 {
		t.Errorf("wal_wedged_total = %d, want 1", n)
	}
	wedged := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "wal wedged") {
			wedged++
		}
	}
	if wedged != 1 {
		t.Errorf("logged %d wedges, want 1: %q", wedged, lines)
	}
	ffs.failCreate, ffs.failReopen = false, false
	if err := l.Probe(); err != nil || l.Wedged() != nil {
		t.Fatalf("Probe on a healed disk: %v (wedged: %v)", err, l.Wedged())
	}
	if n := l.reg.Counter("wal_repairs_total", nil).Value(); n != 1 {
		t.Errorf("wal_repairs_total = %d, want 1", n)
	}
}

// Wedged reports the log's failed state, nil when appendable.
func (l *Log) Wedged() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ladder.Cause()
}

// AppendDelete logs one catalog delete.
func (l *Log) AppendDelete(name string) error {
	return l.AppendDeleteKeyed(name, "")
}
