package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"systolicdb/internal/relation"
	"systolicdb/internal/wal"
)

// durableServer builds a server whose catalog is backed by a WAL in dir,
// wiring the decode path through the catalog's own domain pool the way
// the daemon does.
func durableServer(t *testing.T, dir string, snapshotEvery int) (*Server, *httptest.Server) {
	t.Helper()
	cat := NewCatalog()
	l, err := wal.Open(wal.Options{
		Dir:    dir,
		Fsync:  false, // tests exercise ordering, not power loss
		Decode: func(table string) (*relation.Relation, error) { return cat.ParseTable(strings.NewReader(table), "") },
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for name, rel := range l.Recovered().Relations {
		if err := cat.Put(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	s, ts := testServer(t, Config{Catalog: cat, WAL: l, SnapshotEvery: snapshotEvery})
	return s, ts
}

// reopenState recovers dir with a fresh catalog/pool (a simulated new
// process) and returns the recovered relations as canonical dumps.
func reopenState(t *testing.T, dir string) map[string]string {
	t.Helper()
	cat := NewCatalog()
	l, err := wal.Open(wal.Options{
		Dir:    dir,
		Decode: func(table string) (*relation.Relation, error) { return cat.ParseTable(strings.NewReader(table), "") },
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	out := map[string]string{}
	for name, rel := range l.Recovered().Relations {
		out[name] = dumpTyped(t, rel)
	}
	return out
}

// dumpTyped canonicalises a relation (types directive + table text) so
// relations from different domain pools compare by value.
func dumpTyped(t *testing.T, r *relation.Relation) string {
	t.Helper()
	var sb strings.Builder
	if err := relation.FormatTableTypes(&sb, r); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestDurablePutDeleteRecovered: acked mutations through the HTTP
// handlers survive a reopen, including overwrites and deletes, and GET
// serves a typed dump that round-trips.
func TestDurablePutDeleteRecovered(t *testing.T) {
	dir := t.TempDir()
	s, ts := durableServer(t, dir, 1000)

	if code, body := do(t, "PUT", ts.URL+"/relations/S", suppliersTable); code != http.StatusOK {
		t.Fatalf("PUT S: %d %s", code, body)
	}
	if code, body := do(t, "PUT", ts.URL+"/relations/P", partsTable); code != http.StatusOK {
		t.Fatalf("PUT P: %d %s", code, body)
	}
	if code, _ := do(t, "DELETE", ts.URL+"/relations/P", ""); code != http.StatusNoContent {
		t.Fatalf("DELETE P: %d", code)
	}
	// Deleting a missing relation is a 404 and must not be WAL-logged.
	if code, _ := do(t, "DELETE", ts.URL+"/relations/nope", ""); code != http.StatusNotFound {
		t.Fatalf("DELETE missing: %d", code)
	}

	// GET emits the types directive (satellite: typed round trips), and
	// feeding the dump back preserves the domains.
	code, dump := do(t, "GET", ts.URL+"/relations/S", "")
	if code != http.StatusOK {
		t.Fatalf("GET S: %d", code)
	}
	if !strings.HasPrefix(dump, "#% types: int, dict:names\n") {
		t.Fatalf("GET dump lacks types directive:\n%s", dump)
	}
	if code, body := do(t, "PUT", ts.URL+"/relations/S2", dump); code != http.StatusOK {
		t.Fatalf("PUT of GET dump: %d %s", code, body)
	}
	a, _ := s.Catalog().Get("S")
	b, _ := s.Catalog().Get("S2")
	if !a.Schema().UnionCompatible(b.Schema()) {
		t.Fatal("GET→PUT round trip lost domain identity")
	}

	state := reopenState(t, dir)
	if len(state) != 2 {
		t.Fatalf("recovered %d relations, want 2 (S, S2): %v", len(state), state)
	}
	if state["S"] != dumpTyped(t, a) {
		t.Errorf("recovered S differs:\n%s\nwant:\n%s", state["S"], dumpTyped(t, a))
	}
	if _, ok := state["P"]; ok {
		t.Error("deleted relation P recovered")
	}
}

// TestDrainRefusesMutations: once Shutdown begins, PUT and DELETE answer
// 503 with Retry-After instead of accepting writes the final snapshot
// might miss (satellite: reject catalog mutations during drain).
func TestDrainRefusesMutations(t *testing.T) {
	s, ts := testServer(t, Config{})
	if code, _ := do(t, "PUT", ts.URL+"/relations/S", suppliersTable); code != http.StatusOK {
		t.Fatal("seed PUT failed")
	}
	s.drain()

	req, _ := http.NewRequest("PUT", ts.URL+"/relations/X", strings.NewReader(suppliersTable))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("PUT during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if code, _ := do(t, "DELETE", ts.URL+"/relations/S", ""); code != http.StatusServiceUnavailable {
		t.Errorf("DELETE during drain: %d, want 503", code)
	}
	// Reads still work mid-drain.
	if code, _ := do(t, "GET", ts.URL+"/relations/S", ""); code != http.StatusOK {
		t.Error("GET refused during drain")
	}
	if _, ok := s.Catalog().Get("X"); ok {
		t.Error("drained PUT still mutated the catalog")
	}
}

// TestConcurrentMutationsSnapshotsQueries is the durability race test:
// writers PUT/DELETE through the handlers while the snapshot writer
// rotates and compacts and queries execute against snapshots. Afterwards
// a fresh recovery must equal the server's final catalog exactly.
// Run under -race this also proves the lock discipline.
func TestConcurrentMutationsSnapshotsQueries(t *testing.T) {
	dir := t.TempDir()
	s, ts := durableServer(t, dir, 5) // low threshold: snapshots trigger mid-test

	const writers = 4
	iters := 25
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("r%d_%d", w, i%7)
				table := fmt.Sprintf("#%%types: int, dict:names\nid\tname\n%d\tw%d\n", i, w)
				if code, body := do(t, "PUT", ts.URL+"/relations/"+name, table); code != http.StatusOK {
					t.Errorf("PUT %s: %d %s", name, code, body)
					return
				}
				if i%5 == 4 {
					do(t, "DELETE", ts.URL+"/relations/"+name, "")
				}
			}
		}(w)
	}
	// Explicit snapshots race the lag-triggered background ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := s.WriteSnapshot(); err != nil {
				t.Errorf("WriteSnapshot: %v", err)
				return
			}
		}
	}()
	// Readers run queries against catalog snapshots throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			postQuery(t, ts.URL, map[string]any{"plan": "scan(r0_0)", "no_table": true})
		}
	}()
	wg.Wait()

	// Wait out any in-flight background snapshot before comparing.
	for s.snapshotting.Load() {
		time.Sleep(time.Millisecond)
	}

	want := map[string]string{}
	for name, rel := range s.Catalog().Snapshot() {
		want[name] = dumpTyped(t, rel)
	}
	got := reopenState(t, dir)
	if len(got) != len(want) {
		t.Fatalf("recovered %d relations, want %d", len(got), len(want))
	}
	for name, wdump := range want {
		if got[name] != wdump {
			t.Errorf("relation %q differs after recovery:\n%s\nwant:\n%s", name, got[name], wdump)
		}
	}
}

// TestSnapshotTriggeredByLag: crossing SnapshotEvery kicks off a
// background snapshot that compacts the log.
func TestSnapshotTriggeredByLag(t *testing.T) {
	dir := t.TempDir()
	s, ts := durableServer(t, dir, 3)
	for i := 0; i < 8; i++ {
		table := fmt.Sprintf("id\n%d\n", i)
		if code, _ := do(t, "PUT", ts.URL+fmt.Sprintf("/relations/r%d", i), table); code != http.StatusOK {
			t.Fatalf("PUT r%d failed", i)
		}
	}
	for s.snapshotting.Load() {
		time.Sleep(time.Millisecond)
	}
	st := s.wal.Status()
	if st.SnapshotGen == 0 {
		t.Errorf("no snapshot after %d puts with SnapshotEvery=3: %+v", 8, st)
	}
	if got := reopenState(t, dir); len(got) != 8 {
		t.Errorf("recovered %d relations, want 8", len(got))
	}
}
