package netchaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"systolicdb/internal/obs"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestAbsoluteReplay pins the decision stream itself: for each spec, what
// fired at request ordinals 0…255 and every drawn value (jitter, corrupt
// byte and bit) must equal the stored table, not merely a second transport
// built by the same binary.
func TestAbsoluteReplay(t *testing.T) {
	for _, spec := range []string{
		"seed=7,drop=0.1,dropresp=0.1,latency=20ms±10ms,corrupt=0.2,dup=0.1",
		"seed=-3,latency=5ms±5ms,corrupt=1",
		"drop=0.5,dropresp=0.25,dup=0.5",
	} {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		var hits int
		var slept time.Duration
		tr := NewTransport(s, roundTripFunc(func(*http.Request) (*http.Response, error) {
			hits++
			return &http.Response{StatusCode: 200, Body: io.NopCloser(bytes.NewReader(make([]byte, 64)))}, nil
		}), obs.NewRegistry())
		tr.sleep = func(_ context.Context, d time.Duration) error { slept = d; return nil }
		var got []string
		for i := 0; i < 256; i++ {
			hits, slept = 0, 0
			req, err := http.NewRequest("GET", "http://shard1/x", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := tr.RoundTrip(req)
			var ev []string
			if slept > 0 {
				ev = append(ev, "latency="+slept.String())
			}
			if hits == 2 {
				ev = append(ev, "dup")
			}
			if ce, ok := err.(*Error); ok {
				ev = append(ev, ce.Kind)
			} else if err != nil {
				t.Fatal(err)
			} else {
				body, _ := io.ReadAll(resp.Body)
				for pos, b := range body {
					for bit := 0; bit < 8; bit++ {
						if b == 1<<bit {
							ev = append(ev, fmt.Sprintf("corrupt=%d.%d", pos, bit))
						}
					}
				}
			}
			if ev == nil {
				ev = []string{"-"}
			}
			got = append(got, strings.Join(ev, "+"))
		}
		golden(t, "netchaos "+spec, got)
	}
}

// golden checks one named sequence against the absolute-replay table
// internal/chaos/testdata/replay.json, captured at the commit before the
// fault layers shared internal/chaos. A sequence that differs is never
// fixed by editing the table.
func golden(t *testing.T, name string, got []string) {
	t.Helper()
	data, err := os.ReadFile("../chaos/testdata/replay.json")
	if err != nil {
		t.Fatal(err)
	}
	var table map[string]string
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, " "); g != table[name] {
		t.Fatalf("%s: replay differs from the golden table\n got: %s\nwant: %s", name, g, table[name])
	}
}
