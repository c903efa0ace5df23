package cluster

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestRingAbsoluteReplay pins the vnode positions against the stored
// table: a ring that places tuples differently from the one that wrote a
// cluster's data cannot find that data again.
func TestRingAbsoluteReplay(t *testing.T) {
	r, err := NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := uint64(0); k < 64; k++ {
		got = append(got, strconv.Itoa(r.Locate(k*0x9e3779b97f4a7c15)))
	}
	golden(t, "cluster ring shards=3", got)
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
