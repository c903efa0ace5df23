package diskchaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"systolicdb/internal/obs"
)

// TestAbsoluteReplay pins the decision stream itself: for each spec, what
// fired at operation ordinals 0…255 and every drawn value (short-write
// length, bitrot bit) must equal the stored table, not merely a second
// filesystem built by the same binary.
func TestAbsoluteReplay(t *testing.T) {
	for _, spec := range []string{
		"seed=7,enospc=0.1,eio-write=0.1,shortwrite=0.3,fsync-lie=0.2,bitrot-read=0.3",
		"seed=-3,shortwrite=1,bitrot-read=1",
		"enospc=0.5,fsync-lie=0.5,at=5:eio-write,at=6:fsync-lie,at=7:bitrot-read",
	} {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		wpath, rpath := filepath.Join(dir, "w.dat"), filepath.Join(dir, "r.dat")
		for _, p := range []string{wpath, rpath} {
			if err := os.WriteFile(p, make([]byte, 64), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c := New(s, OS, obs.NewRegistry())
		// Ordinal 0: a handle to write and sync through. Opening without
		// O_CREATE is never subject to injection.
		h, err := c.OpenFile(wpath, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		got := []string{"-"}
		for i := 1; i < 256; i++ {
			ev := "-"
			lies := c.Counts()[KindFsyncLie]
			switch i % 4 {
			case 0:
				var f File
				if f, err = c.OpenFile(wpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
					f.Close()
				}
			case 1:
				var n int
				if n, err = h.Write(make([]byte, 64)); errors.Is(err, io.ErrShortWrite) {
					ev = fmt.Sprintf("%s=%d", KindShortWrite, n)
					err = nil
				}
			case 2:
				if err = h.Sync(); c.Counts()[KindFsyncLie] > lies {
					ev = KindFsyncLie
				}
			case 3:
				var data []byte
				data, err = c.ReadFile(rpath)
				for pos, b := range data {
					for bit := 0; bit < 8; bit++ {
						if b == 1<<bit {
							ev = fmt.Sprintf("%s=%d", KindBitrotRead, pos*8+bit)
						}
					}
				}
			}
			var ce *Error
			if errors.As(err, &ce) {
				ev = ce.Kind
			} else if err != nil {
				t.Fatal(err)
			}
			got = append(got, ev)
		}
		golden(t, "diskchaos "+spec, got)
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
