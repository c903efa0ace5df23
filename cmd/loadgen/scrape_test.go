package main

import (
	"bytes"
	"testing"
	"time"

	"systolicdb/internal/obs"
)

// TestScrapeRoundTripsWriteText feeds parseScrape what obs.WriteText
// prints — counters, gauges, labelled series (one label value holding a
// space) and histograms — and checks the values and a delta come back.
func TestScrapeRoundTripsWriteText(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("server_requests_total", obs.Labels{"route": "query", "code": "200"}).Add(7)
	reg.Counter("server_rejected_total", obs.Labels{"reason": "queue full"}).Add(2)
	reg.Counter("wal_appends_total", obs.Labels{"op": "put"}).Add(5)
	reg.Counter("wal_appends_total", obs.Labels{"op": "delete"}).Add(1)
	reg.Gauge("server_queue_depth", nil).Set(1.5)
	reg.Timer("wal_fsync_seconds", nil).Observe(2 * time.Millisecond)
	reg.Timer("wal_fsync_seconds", nil).Observe(4 * time.Millisecond)

	read := func() scrape {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := parseScrape(&buf)
		if err != nil {
			t.Fatalf("parseScrape: %v\n%s", err, buf.String())
		}
		return s
	}
	before := read()
	if got := before[`server_requests_total{code="200",route="query"}`]; got != 7 {
		t.Errorf("labelled counter = %v, want 7", got)
	}
	if got := before.sum("server_rejected_total", `reason="queue full"`); got != 2 {
		t.Errorf("label value with a space = %v, want 2", got)
	}
	if got := before["server_queue_depth"]; got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	if got := before.sum("wal_appends_total"); got != 6 {
		t.Errorf("sum over labels = %v, want 6", got)
	}
	if c, s := before["wal_fsync_seconds_count"], before["wal_fsync_seconds_sum"]; c != 2 || s < 0.0059 || s > 0.0061 {
		t.Errorf("histogram count, sum = %v, %v; want 2, 0.006", c, s)
	}
	if got := before[`wal_fsync_seconds_bucket{le="+Inf"}`]; got != 2 {
		t.Errorf("+Inf bucket = %v, want 2", got)
	}

	reg.Counter("wal_appends_total", obs.Labels{"op": "put"}).Add(3)
	reg.Counter("wal_snapshots_total", nil).Add(1) // first seen after `before`
	reg.Timer("wal_fsync_seconds", nil).Observe(6 * time.Millisecond)
	d := delta(before, read())
	if got := d.sum("wal_appends_total", `op="put"`); got != 3 {
		t.Errorf("counter delta = %v, want 3", got)
	}
	if got := d.sum("wal_appends_total", `op="delete"`); got != 0 {
		t.Errorf("untouched counter delta = %v, want 0", got)
	}
	if got := d["wal_snapshots_total"]; got != 1 {
		t.Errorf("series absent from the first scrape: delta = %v, want 1", got)
	}
	if got := 1000 * ratio(d["wal_fsync_seconds_sum"], d["wal_fsync_seconds_count"]); got < 5.9 || got > 6.1 {
		t.Errorf("mean of the window's one observation = %v ms, want 6", got)
	}
}
