package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"systolicdb/internal/obs"
)

// TestServerLadders enumerates the server's two ladders — the storage
// read-only latch and the drain lifecycle — over every (state, event) pair.
// A state is named by the path of events that reaches it from a fresh
// durable server; a row records what /healthz reports after one more event
// (status, durability mode/cause, the server_readonly gauge), whether the
// event was refused (no observable effect), and the latch counters it
// moved.
func TestServerLadders(t *testing.T) {
	states := []struct {
		name string
		path []string
	}{
		{"ok", nil},
		{"ro-append", []string{"trip-append"}},
		{"ro-enospc", []string{"trip-enospc"}},
		{"ro-scrub", []string{"trip-scrub"}},
		{"ro-append+scrub", []string{"trip-append", "trip-scrub"}},
		{"draining", []string{"drain"}},
		{"ro-append+draining", []string{"trip-append", "drain"}},
	}
	events := []string{"trip-append", "trip-enospc", "trip-scrub",
		"clear-append", "clear-enospc", "clear-scrub", "drain"}
	type outcome struct {
		want    string
		refused bool
		deltas  string
	}
	rows := map[[2]string]outcome{
		{"ok", "trip-append"}:                  {"degraded read-only/append g=1", false, "trips.append+1"},
		{"ok", "trip-enospc"}:                  {"degraded read-only/enospc g=1", false, "trips.enospc+1"},
		{"ok", "trip-scrub"}:                   {"degraded read-only/scrub g=1", false, "trips.scrub+1"},
		{"ok", "clear-append"}:                 {"ok ok/ g=0", true, ""},
		{"ok", "clear-enospc"}:                 {"ok ok/ g=0", true, ""},
		{"ok", "clear-scrub"}:                  {"ok ok/ g=0", true, ""},
		{"ok", "drain"}:                        {"draining ok/ g=0", false, ""},
		{"ro-append", "trip-append"}:           {"degraded read-only/append g=1", true, ""},
		{"ro-append", "trip-enospc"}:           {"degraded read-only/append g=1", false, "trips.enospc+1"}, // each cause holds the latch
		{"ro-append", "trip-scrub"}:            {"degraded read-only/append g=1", false, "trips.scrub+1"},  // each cause holds the latch
		{"ro-append", "clear-append"}:          {"ok ok/ g=0", false, "recoveries+1"},
		{"ro-append", "clear-enospc"}:          {"degraded read-only/append g=1", true, ""},
		{"ro-append", "clear-scrub"}:           {"degraded read-only/append g=1", true, ""},
		{"ro-append", "drain"}:                 {"draining read-only/append g=1", false, ""},               // draining outranks degraded
		{"ro-enospc", "trip-append"}:           {"degraded read-only/enospc g=1", false, "trips.append+1"}, // each cause holds the latch
		{"ro-enospc", "trip-enospc"}:           {"degraded read-only/enospc g=1", true, ""},
		{"ro-enospc", "trip-scrub"}:            {"degraded read-only/enospc g=1", false, "trips.scrub+1"}, // each cause holds the latch
		{"ro-enospc", "clear-append"}:          {"degraded read-only/enospc g=1", true, ""},
		{"ro-enospc", "clear-enospc"}:          {"ok ok/ g=0", false, "recoveries+1"},
		{"ro-enospc", "clear-scrub"}:           {"degraded read-only/enospc g=1", true, ""},
		{"ro-enospc", "drain"}:                 {"draining read-only/enospc g=1", false, ""},              // draining outranks degraded
		{"ro-scrub", "trip-append"}:            {"degraded read-only/scrub g=1", false, "trips.append+1"}, // each cause holds the latch
		{"ro-scrub", "trip-enospc"}:            {"degraded read-only/scrub g=1", false, "trips.enospc+1"}, // each cause holds the latch
		{"ro-scrub", "trip-scrub"}:             {"degraded read-only/scrub g=1", true, ""},
		{"ro-scrub", "clear-append"}:           {"degraded read-only/scrub g=1", true, ""},
		{"ro-scrub", "clear-enospc"}:           {"degraded read-only/scrub g=1", true, ""},
		{"ro-scrub", "clear-scrub"}:            {"ok ok/ g=0", false, "recoveries+1"},
		{"ro-scrub", "drain"}:                  {"draining read-only/scrub g=1", false, ""}, // draining outranks degraded
		{"ro-append+scrub", "trip-append"}:     {"degraded read-only/append g=1", true, ""},
		{"ro-append+scrub", "trip-enospc"}:     {"degraded read-only/append g=1", false, "trips.enospc+1"}, // each cause holds the latch
		{"ro-append+scrub", "trip-scrub"}:      {"degraded read-only/append g=1", true, ""},
		{"ro-append+scrub", "clear-append"}:    {"degraded read-only/scrub g=1", false, ""}, // each cause holds the latch
		{"ro-append+scrub", "clear-enospc"}:    {"degraded read-only/append g=1", true, ""},
		{"ro-append+scrub", "clear-scrub"}:     {"degraded read-only/append g=1", true, ""},
		{"ro-append+scrub", "drain"}:           {"draining read-only/append g=1", false, ""},               // draining outranks degraded
		{"draining", "trip-append"}:            {"draining read-only/append g=1", false, "trips.append+1"}, // draining outranks degraded
		{"draining", "trip-enospc"}:            {"draining read-only/enospc g=1", false, "trips.enospc+1"}, // draining outranks degraded
		{"draining", "trip-scrub"}:             {"draining read-only/scrub g=1", false, "trips.scrub+1"},   // draining outranks degraded
		{"draining", "clear-append"}:           {"draining ok/ g=0", true, ""},
		{"draining", "clear-enospc"}:           {"draining ok/ g=0", true, ""},
		{"draining", "clear-scrub"}:            {"draining ok/ g=0", true, ""},
		{"draining", "drain"}:                  {"draining ok/ g=0", true, ""},
		{"ro-append+draining", "trip-append"}:  {"draining read-only/append g=1", true, ""},                // draining outranks degraded
		{"ro-append+draining", "trip-enospc"}:  {"draining read-only/append g=1", false, "trips.enospc+1"}, // draining outranks degraded; each cause holds the latch
		{"ro-append+draining", "trip-scrub"}:   {"draining read-only/append g=1", false, "trips.scrub+1"},  // draining outranks degraded; each cause holds the latch
		{"ro-append+draining", "clear-append"}: {"draining ok/ g=0", false, "recoveries+1"},
		{"ro-append+draining", "clear-enospc"}: {"draining read-only/append g=1", true, ""}, // draining outranks degraded
		{"ro-append+draining", "clear-scrub"}:  {"draining read-only/append g=1", true, ""}, // draining outranks degraded
		{"ro-append+draining", "drain"}:        {"draining read-only/append g=1", true, ""}, // draining outranks degraded
	}
	for _, st := range states {
		for _, ev := range events {
			s, _, _ := flakyServer(t, t.TempDir(), Config{ProbeEvery: time.Hour})
			for _, step := range st.path {
				fireServer(s, step)
			}
			before, counts := observeServer(t, s), latchCounts(s.reg)
			fireServer(s, ev)
			got := outcome{want: observeServer(t, s), deltas: countDeltas(counts, latchCounts(s.reg))}
			got.refused = got.want == before && got.deltas == ""
			if want, ok := rows[[2]string{st.name, ev}]; !ok || got != want {
				t.Errorf("(%s, %s) = %#v, want %#v", st.name, ev, got, want)
			}
		}
	}
}

func fireServer(s *Server, ev string) {
	switch op, cause, _ := strings.Cut(ev, "-"); op {
	case "trip":
		s.tripReadOnly(cause)
	case "clear":
		s.clearReadOnly(cause)
	case "drain":
		s.Shutdown(context.Background())
	}
}

func observeServer(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var body struct {
		Status     string `json:"status"`
		Durability struct {
			Mode  string `json:"mode"`
			Cause string `json:"cause"`
		} `json:"durability"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	return fmt.Sprintf("%s %s/%s g=%v", body.Status, body.Durability.Mode, body.Durability.Cause,
		s.reg.Gauge("server_readonly", nil).Value())
}

func latchCounts(reg *obs.Registry) map[string]int64 {
	m := map[string]int64{"recoveries": reg.Counter("server_readonly_recoveries_total", nil).Value()}
	for _, cause := range []string{"append", "enospc", "scrub"} {
		m["trips."+cause] = reg.Counter("server_readonly_trips_total", obs.Labels{"cause": cause}).Value()
	}
	return m
}

// countDeltas renders the nonzero counter moves, sorted ("" for none).
func countDeltas(before, after map[string]int64) string {
	var out []string
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out = append(out, fmt.Sprintf("%s%+d", k, d))
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// TestHealthzDrainOutranksReadOnly: a server that is read-only from a disk
// fault and then shuts down must tell the load balancer it is draining —
// draining outranks degraded.
func TestHealthzDrainOutranksReadOnly(t *testing.T) {
	s, ts, ffs := flakyServer(t, t.TempDir(), Config{ProbeEvery: time.Hour})
	ffs.set(true, false)
	if code, _ := do(t, "PUT", ts.URL+"/relations/X", suppliersTable); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT on broken disk: %d, want 503", code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, body := do(t, "GET", ts.URL+"/healthz", "")
	if !strings.Contains(body, `"status":"draining"`) || !strings.Contains(body, `"mode":"read-only"`) {
		t.Fatalf("healthz of a read-only server draining: %s", body)
	}
}

// TestReadOnlyHeldForEveryCause: at-rest damage found while an append
// fault already holds the latch must keep the server read-only after the
// disk heals and the probe loop clears the append fault; writes reopen
// only once the scrub repair clears its own cause.
func TestReadOnlyHeldForEveryCause(t *testing.T) {
	s, ts, ffs := flakyServer(t, t.TempDir(), Config{ProbeEvery: 10 * time.Millisecond})
	ffs.set(true, false)
	if code, _ := do(t, "PUT", ts.URL+"/relations/X", suppliersTable); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT on broken disk: %d, want 503", code)
	}
	s.tripReadOnly("scrub")
	ffs.set(false, false)
	waitFor(t, 5*time.Second, "the probe loop to clear the append fault", func() bool {
		mode, cause := healthzDurability(t, ts.URL)
		return mode == "ok" || cause == "scrub"
	})
	if mode, cause := healthzDurability(t, ts.URL); mode != "read-only" || cause != "scrub" {
		t.Fatalf("healthz durability = %q/%q, want read-only/scrub", mode, cause)
	}
	if code, _ := do(t, "PUT", ts.URL+"/relations/X", suppliersTable); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT over unrepaired damage: %d, want 503", code)
	}
	s.clearReadOnly("scrub")
	if code, body := do(t, "PUT", ts.URL+"/relations/X", suppliersTable); code != http.StatusOK {
		t.Fatalf("PUT after the scrub repair: %d %s", code, body)
	}
	_, metrics := do(t, "GET", ts.URL+"/metrics", "")
	for _, want := range []string{`server_readonly_trips_total{cause="append"} 1`,
		`server_readonly_trips_total{cause="scrub"} 1`, "server_readonly_recoveries_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("missing %s in:\n%s", want, grepMetrics(metrics, "server_readonly"))
		}
	}
}
