package diskchaos

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"systolicdb/internal/obs"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"seed=7,enospc=0.01,eio-write=0.005,shortwrite=0.02,fsync-lie=0.01,bitrot-read=0.001,slow=5ms",
		"enospc=1",
		"seed=-3,bitrot-read=0.5",
		"at=12:enospc,at=40:fsync-lie",
		"shortwrite=0.25,at=0:bitrot-read",
	}
	for _, in := range cases {
		s1, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		out := s1.String()
		s2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parse of %q -> %q: %v", in, out, err)
		}
		if s2.String() != out {
			t.Fatalf("String not canonical: %q -> %q -> %q", in, out, s2.String())
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, in := range []string{
		"", "enospc=1.5", "eio-write=-0.1", "slow=-5ms", "bogus=1",
		"at=3", "at=x:enospc", "at=3:slow", "at=3:nope", "enospc",
		"enospc=NaN", "enospc=Inf", "at=5:enospc,at=5:eio-write", ",", " , ",
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec", in)
		}
	}
}

// workload runs a fixed op sequence against an FS and returns what each
// op observed, for determinism comparison.
func workload(t *testing.T, fsys FS, dir string) []string {
	t.Helper()
	var events []string
	note := func(op string, err error) {
		if err == nil {
			events = append(events, op+":ok")
			return
		}
		var ce *Error
		if errors.As(err, &ce) {
			events = append(events, op+":"+ce.Kind)
		} else {
			events = append(events, op+":err")
		}
	}
	path := filepath.Join(dir, "w.dat")
	for i := 0; i < 40; i++ {
		f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		note("open", err)
		if err != nil {
			continue
		}
		_, werr := f.Write([]byte("0123456789abcdef"))
		note("write", werr)
		note("sync", f.Sync())
		f.Close()
		if _, rerr := fsys.ReadFile(path); rerr != nil {
			note("read", rerr)
		} else {
			note("read", nil)
		}
	}
	return events
}

func TestReplayDeterministic(t *testing.T) {
	spec, err := ParseSpec("seed=41,enospc=0.1,eio-write=0.1,shortwrite=0.1,fsync-lie=0.1,bitrot-read=0.1")
	if err != nil {
		t.Fatal(err)
	}
	runs := make([][]string, 2)
	var totals [2]int64
	for r := 0; r < 2; r++ {
		c := New(spec, OS, obs.NewRegistry())
		runs[r] = workload(t, c, t.TempDir())
		totals[r] = c.Total()
	}
	if totals[0] == 0 {
		t.Fatalf("campaign injected nothing; decisions can't be compared")
	}
	if totals[0] != totals[1] {
		t.Fatalf("injection totals differ across replays: %d vs %d", totals[0], totals[1])
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("event counts differ: %d vs %d", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("event %d differs across replays: %q vs %q", i, runs[0][i], runs[1][i])
		}
	}
	// A different seed must make different decisions somewhere.
	other := *spec
	other.Seed = 42
	c := New(&other, OS, obs.NewRegistry())
	diverged := false
	for i, ev := range workload(t, c, t.TempDir()) {
		if i < len(runs[0]) && ev != runs[0][i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatalf("seed change did not alter any decision")
	}
}

func TestShortWritePersistsPrefix(t *testing.T) {
	dir := t.TempDir()
	// Pin a short write onto the write op (open=0, write=1).
	spec := &Spec{Seed: 9, At: []At{{Ordinal: 1, Kind: KindShortWrite}}}
	c := New(spec, OS, obs.NewRegistry())
	path := filepath.Join(dir, "s.dat")
	f, err := c.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown fox jumps over the lazy dog")
	n, werr := f.Write(payload)
	f.Close()
	if !errors.Is(werr, io.ErrShortWrite) {
		t.Fatalf("want io.ErrShortWrite, got %v", werr)
	}
	if n < 0 || n >= len(payload) {
		t.Fatalf("short write claimed %d of %d bytes", n, len(payload))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload[:n]) {
		t.Fatalf("on-disk prefix %q does not match claimed %d bytes", got, n)
	}
}

func TestInjectedErrnosClassify(t *testing.T) {
	dir := t.TempDir()
	spec := &Spec{At: []At{{Ordinal: 1, Kind: KindENOSPC}, {Ordinal: 3, Kind: KindEIOWrite}}}
	c := New(spec, OS, obs.NewRegistry())
	f, err := c.OpenFile(filepath.Join(dir, "e.dat"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("op 1: want ENOSPC, got %v", err)
	}
	if _, err := f.Write([]byte("x")); err != nil { // op 2: clean
		t.Fatalf("op 2: want success, got %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("op 3: want EIO, got %v", err)
	}
	if got := c.Counts()[KindENOSPC]; got != 1 {
		t.Fatalf("enospc count = %d, want 1", got)
	}
}

func TestBitrotReadIsTransient(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.dat")
	clean := make([]byte, 256)
	for i := range clean {
		clean[i] = byte(i)
	}
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Seed: 5, At: []At{{Ordinal: 0, Kind: KindBitrotRead}}}
	c := New(spec, OS, obs.NewRegistry())
	rotted, err := c.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range clean {
		if rotted[i] != clean[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bitrot flipped %d bytes, want exactly 1", diff)
	}
	// The file at rest is untouched: the next read is clean.
	again, err := c.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(clean) {
		t.Fatalf("re-read still corrupt: bitrot leaked to disk")
	}
}

func TestFsyncLieReportsSuccess(t *testing.T) {
	dir := t.TempDir()
	spec := &Spec{At: []At{{Ordinal: 1, Kind: KindFsyncLie}}}
	c := New(spec, OS, obs.NewRegistry())
	f, err := c.OpenFile(filepath.Join(dir, "f.dat"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("lying fsync should report success, got %v", err)
	}
	if got := c.Counts()[KindFsyncLie]; got != 1 {
		t.Fatalf("fsync-lie count = %d, want 1", got)
	}
	if err := c.SyncDir(dir); err != nil {
		t.Fatalf("clean SyncDir: %v", err)
	}
}

func TestSlowStallsEveryOp(t *testing.T) {
	spec := &Spec{Slow: 3 * time.Millisecond}
	c := New(spec, OS, obs.NewRegistry())
	var slept time.Duration
	c.sleep = func(d time.Duration) { slept += d }
	if _, err := c.ReadDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if slept != 3*time.Millisecond {
		t.Fatalf("slept %v, want 3ms", slept)
	}
	if got := c.Counts()[KindSlow]; got != 1 {
		t.Fatalf("slow count = %d, want 1", got)
	}
	if c.Total() != 0 {
		t.Fatalf("slow must not count toward Total, got %d", c.Total())
	}
}

// Total returns the total number of injections across all kinds except
// slow (a stall changes timing, not outcomes).
func (c *Chaos) Total() int64 { return c.ledger.Total() - c.ledger.Counts()[KindSlow] }
