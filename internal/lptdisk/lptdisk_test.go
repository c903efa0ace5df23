package lptdisk

import (
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/perf"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

func storedDisk(t *testing.T, tracks, n int) (*Disk, *relation.Relation) {
	t.Helper()
	r, err := workload.Uniform(1, n, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(tracks, perf.Disk1980)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store(r); err != nil {
		t.Fatal(err)
	}
	return d, r
}

func TestSelectMatchesHostFilter(t *testing.T) {
	d, r := storedDisk(t, 4, 50)
	q := relation.Query{{Col: 0, Op: cells.LT, Value: 5}}
	got, st, err := d.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < r.Cardinality(); i++ {
		if r.Tuple(i)[0] < 5 {
			want++
		}
	}
	if got.Cardinality() != want {
		t.Errorf("selected %d, want %d", got.Cardinality(), want)
	}
	if st.TuplesMatched != want || st.TuplesScanned != 50 {
		t.Errorf("stats %+v", st)
	}
	for i := 0; i < got.Cardinality(); i++ {
		if got.Tuple(i)[0] >= 5 {
			t.Errorf("tuple %v violates predicate", got.Tuple(i))
		}
	}
}

func TestConjunction(t *testing.T) {
	d, r := storedDisk(t, 3, 40)
	q := relation.Query{
		{Col: 0, Op: cells.GE, Value: 3},
		{Col: 1, Op: cells.LT, Value: 7},
	}
	got, _, err := d.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < r.Cardinality(); i++ {
		tu := r.Tuple(i)
		if tu[0] >= 3 && tu[1] < 7 {
			want++
		}
	}
	if got.Cardinality() != want {
		t.Errorf("selected %d, want %d", got.Cardinality(), want)
	}
}

func TestOneRevolutionRegardlessOfSize(t *testing.T) {
	small, _ := storedDisk(t, 8, 10)
	large, _ := storedDisk(t, 8, 1000)
	_, stSmall, err := small.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stLarge, err := large.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stSmall.Revolutions != 1 || stLarge.Revolutions != 1 {
		t.Errorf("revolutions = %d / %d, want 1 / 1", stSmall.Revolutions, stLarge.Revolutions)
	}
	if stSmall.Time != stLarge.Time {
		t.Errorf("selection time depends on relation size: %v vs %v (the logic-per-track point is that it must not)",
			stSmall.Time, stLarge.Time)
	}
	if stLarge.Time != perf.Disk1980.RevolutionTime() {
		t.Errorf("selection time %v, want one revolution %v", stLarge.Time, perf.Disk1980.RevolutionTime())
	}
}

func TestReadAllPreservesRelation(t *testing.T) {
	d, r := storedDisk(t, 5, 23)
	got, _, err := d.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsMultiset(r) {
		t.Error("an empty query lost or duplicated tuples")
	}
}

func TestTrackDistribution(t *testing.T) {
	d, _ := storedDisk(t, 4, 10)
	// Round-robin across 4 tracks: 3,3,2,2.
	_, st, err := d.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TracksScanned != 4 {
		t.Errorf("tracks scanned = %d, want 4", st.TracksScanned)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, perf.Disk1980); err == nil {
		t.Error("zero tracks not rejected")
	}
	d, _ := New(2, perf.Disk1980)
	if _, _, err := d.Select(nil); err == nil {
		t.Error("select with nothing stored not rejected")
	}
	if err := d.Store(nil); err == nil {
		t.Error("nil relation not rejected")
	}
	dd, r := storedDisk(t, 2, 5)
	_ = r
	if _, _, err := dd.Select(relation.Query{{Col: 9, Op: cells.EQ, Value: 1}}); err == nil {
		t.Error("out-of-range predicate column not rejected")
	}
}

func TestQueryMatchesEdge(t *testing.T) {
	q := relation.Query{{Col: 3, Op: cells.EQ, Value: 1}}
	if q.Matches(relation.Tuple{1, 2}) {
		t.Error("out-of-range column matched")
	}
	if !(relation.Query{}).Matches(relation.Tuple{1}) {
		t.Error("empty query must match everything")
	}
}
