package server

import (
	"strings"
	"testing"
	"time"

	"systolicdb/internal/relation"
)

// TestReadRepairAdoptsDivergedCopy: a relation the primary still holds but
// whose copy differs from the replica's is re-adopted from the replica,
// not counted as verified.
func TestReadRepairAdoptsDivergedCopy(t *testing.T) {
	s := New(Config{})
	rel, err := s.cat.ParseTable(strings.NewReader(suppliersTable), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cat.Put("S", rel); err != nil {
		t.Fatal(err)
	}
	if err := s.readRepair(map[string]string{"S": partsTable}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.cat.Get("S"); !got.EqualAsMultiset(mustParse(t, s, partsTable)) {
		t.Errorf("S after read repair has %d rows, want the replica's copy", got.Cardinality())
	}
	adopted := s.reg.Counter("server_read_repair_adopted_total", nil).Value()
	verified := s.reg.Counter("server_read_repair_verified_total", nil).Value()
	if adopted != 1 || verified != 0 {
		t.Errorf("adopted %d, verified %d; want 1 and 0", adopted, verified)
	}
}

// TestReadRepairFailsWhenAdoptionFails: an adoption whose durable commit
// fails fails the whole repair, so the scrub loop keeps the server
// read-only and retries instead of dropping the replica's copy.
func TestReadRepairFailsWhenAdoptionFails(t *testing.T) {
	s, _, ffs := flakyServer(t, t.TempDir(), Config{ProbeEvery: time.Hour})
	ffs.set(true, false)
	if err := s.readRepair(map[string]string{"lost": suppliersTable}); err == nil {
		t.Fatal("read repair reported success although adopting \"lost\" could not be made durable")
	}
	if _, ok := s.cat.Get("lost"); ok {
		t.Error("an adoption that could not be made durable was published")
	}
}

func mustParse(t *testing.T, s *Server, table string) *relation.Relation {
	t.Helper()
	rel, err := s.cat.ParseTable(strings.NewReader(table), "")
	if err != nil {
		t.Fatal(err)
	}
	return rel
}
