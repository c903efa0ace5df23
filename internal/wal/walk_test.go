package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"systolicdb/internal/diskchaos"
	"systolicdb/internal/relation"
)

// fsckMarked runs Fsck on dir and returns the live files it reports with
// an error, by name.
func fsckMarked(t *testing.T, dir string) map[string]string {
	t.Helper()
	rep, err := Fsck(dir, testDecoder())
	if err != nil {
		t.Fatal(err)
	}
	marked := map[string]string{}
	for _, fr := range append(rep.Snapshots, rep.Segments...) {
		if !fr.Stale && fr.Err != "" {
			marked[fr.Name] = fr.Err
		}
	}
	return marked
}

// openAgrees asserts the Open ⇔ Fsck property on dir — Open succeeds
// exactly when Fsck marks no live file — and reports whether Open
// succeeded. Fsck runs first, since a successful Open truncates a torn
// tail.
func openAgrees(t *testing.T, label, dir string) bool {
	t.Helper()
	marked := fsckMarked(t, dir)
	l, err := Open(Options{Dir: dir, Decode: testDecoder(), Logf: func(string, ...any) {}})
	if err == nil {
		l.Close()
	}
	if (err == nil) != (len(marked) == 0) {
		t.Fatalf("%s: Open error %v, but Fsck marks live files %v", label, err, marked)
	}
	return err == nil
}

// writeFrames writes dir/name as the framing of payloads, in order.
func writeFrames(t *testing.T, dir, name string, payloads ...[]byte) {
	t.Helper()
	var buf []byte
	for _, p := range payloads {
		buf = append(buf, frame(p)...)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// putPayload encodes a put of a one-row relation under seq.
func putPayload(t *testing.T, seq uint64, name string) []byte {
	t.Helper()
	p, err := encodePut(seq, name, "", testRel(t, int(seq), name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOpenAgreesWithFsck makes README's fsck promise a property: Open
// succeeds exactly when Fsck reports no error on a live file. It runs
// over every directory the recovery sweeps build — each truncation cut of
// TestTruncationPrefixProperty, each single-byte flip of the torture log
// (a superset of TestBitFlipSweepRefused's) and each single disk fault of
// TestSingleFaultRecoveryProperty — and over one hand-framed violation of
// each structural rule, which both must refuse.
func TestOpenAgreesWithFsck(t *testing.T) {
	data, _, _ := tortureLog(t)
	step := 1
	if testing.Short() {
		step = 17
	}
	segDir := func(t *testing.T, b []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("cuts", func(t *testing.T) {
		for cut := 0; cut <= len(data); cut += step {
			openAgrees(t, fmt.Sprintf("cut %d", cut), segDir(t, data[:cut]))
		}
	})
	t.Run("flips", func(t *testing.T) {
		for off := 0; off < len(data); off += step {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x20
			openAgrees(t, fmt.Sprintf("flip at %d", off), segDir(t, mut))
		}
	})
	t.Run("faults", func(t *testing.T) {
		if testing.Short() {
			t.Skip("fault sweep is slow; skipped in -short")
		}
		_, probe := runFaultedWorkload(t, t.TempDir(), &diskchaos.Spec{Seed: 1})
		nOps := probe.Ops()
		for _, kind := range workloadKinds {
			for ord := uint64(0); ord < nOps; ord++ {
				dir := t.TempDir()
				runFaultedWorkload(t, dir, &diskchaos.Spec{Seed: 1, At: []diskchaos.At{{Ordinal: ord, Kind: kind}}})
				openAgrees(t, fmt.Sprintf("%s@%d", kind, ord), dir)
			}
		}
	})

	head, foot := encodeHeader(1, 1, 0), encodeFooter(1, 1)
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, dir string)
	}{
		{"snapshot renamed to another generation", func(t *testing.T, dir string) {
			buildRecoverableDir(t, dir) // its snapshot is generation 2
			if err := os.Rename(filepath.Join(dir, snapName(2)), filepath.Join(dir, snapName(3))); err != nil {
				t.Fatal(err)
			}
		}},
		{"duplicate snapshot header", func(t *testing.T, dir string) {
			writeFrames(t, dir, snapName(1), head, head, putPayload(t, 0, "a"), foot)
		}},
		{"put after the footer repeating a name", func(t *testing.T, dir string) {
			writeFrames(t, dir, snapName(1), head, putPayload(t, 0, "a"), foot, putPayload(t, 0, "a"))
		}},
		{"snap record inside a segment", func(t *testing.T, dir string) {
			writeFrames(t, dir, segName(1), putPayload(t, 1, "a"), encodeHeader(1, 0, 1), putPayload(t, 2, "b"))
		}},
		{"segment seq goes backwards", func(t *testing.T, dir string) {
			writeFrames(t, dir, segName(1), putPayload(t, 2, "a"), putPayload(t, 1, "b"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			if openAgrees(t, tc.name, dir) {
				t.Fatal("Open and Fsck both accepted a broken rule")
			}
		})
	}
}

// frameStarts returns the offset of every frame in data, then len(data).
func frameStarts(t *testing.T, data []byte) []int64 {
	t.Helper()
	var starts []int64
	if res := scanFrames(data, false, func(off int64, _ []byte) error {
		starts = append(starts, off)
		return nil
	}); res.corrupt != nil {
		t.Fatal(res.corrupt)
	}
	return append(starts, int64(len(data)))
}

// TestScrubMatchesFsck damages live files at rest under an open log: the
// offsets TestBitFlipSweepRefused flips (CRC field and payload bytes) in
// every frame of the live snapshot and of the active segment, and a swap
// of the active segment's first two records, which only the seq rule
// catches. Scrub must condemn every live file Fsck marks, and may condemn
// more only for damage in the active segment's last acked frame, which
// Fsck reads as a possibly torn tail while Scrub knows it was acked.
func TestScrubMatchesFsck(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, false)
	defer l.Close()
	rels := map[string]*relation.Relation{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("s%d", i)
		rels[name] = testRel(t, i, name)
		if err := l.AppendPut(name, rels[name]); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			gen, err := l.Rotate()
			if err != nil {
				t.Fatal(err)
			}
			if err := l.WriteSnapshot(gen, rels); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := l.Status()
	active := segName(st.Gen)
	check := func(label, damaged string, lastFrame bool) {
		t.Helper()
		marked := fsckMarked(t, dir)
		rep, err := l.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		condemned := map[string]bool{}
		for _, name := range rep.Corrupt {
			condemned[name] = true
		}
		if !condemned[damaged] {
			t.Fatalf("%s: Scrub missed at-rest damage: %+v", label, rep)
		}
		for name, why := range marked {
			if !condemned[name] {
				t.Fatalf("%s: Fsck marks %s (%s), Scrub passed it", label, name, why)
			}
		}
		for name := range condemned {
			if _, ok := marked[name]; !ok && !(name == active && lastFrame) {
				t.Fatalf("%s: Scrub condemned %s, which Fsck passes", label, name)
			}
		}
	}
	for _, name := range []string{snapName(st.SnapshotGen), active} {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		starts := frameStarts(t, orig)
		for i := 0; i+1 < len(starts); i++ {
			start, end := starts[i], starts[i+1]
			for _, off := range []int64{
				start + 4, start + frameHeaderSize, start + (end-start)/2, end - 1,
				start + frameHeaderSize + (end-start-frameHeaderSize)/3,
			} {
				mut := append([]byte(nil), orig...)
				mut[off] ^= 0x20
				if err := os.WriteFile(path, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s offset %d", name, off), name, end == int64(len(orig)))
			}
		}
		if name == active {
			swapped := append(append(append([]byte(nil), orig[starts[1]:starts[2]]...), orig[:starts[1]]...), orig[starts[2]:]...)
			if err := os.WriteFile(path, swapped, 0o644); err != nil {
				t.Fatal(err)
			}
			check("records swapped", name, false)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeqSurvivesCompaction: the snapshot header carries the log's seq,
// so a compacting restart neither rewinds Seq nor lets ReadSince skip the
// first records written after it.
func TestSeqSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, false)
	state := map[string]*relation.Relation{}
	for i, name := range []string{"a", "b", "c"} {
		state[name] = testRel(t, i, name)
		if err := l.AppendPut(name, state[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendDelete("c"); err != nil {
		t.Fatal(err)
	}
	delete(state, "c")
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(gen, state); err != nil {
		t.Fatal(err)
	}
	seq := l.Seq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, false)
	defer r.Close()
	if got := r.Seq(); got != seq {
		t.Fatalf("Seq after a compacting restart = %d, want %d", got, seq)
	}
	if err := r.AppendPut("d", testRel(t, 9, "d")); err != nil {
		t.Fatal(err)
	}
	recs, full, err := r.ReadSince(seq)
	if err != nil || full || len(recs) != 1 || recs[0].Seq != seq+1 || recs[0].Name != "d" {
		t.Fatalf("ReadSince(%d) = %+v full=%v err=%v, want exactly the put of d", seq, recs, full, err)
	}
}

// TestSnapshotHeaderWithoutSeq: a header written before the seq field
// existed still checks clean and opens, with Seq starting from 0.
func TestSnapshotHeaderWithoutSeq(t *testing.T) {
	dir := t.TempDir()
	writeFrames(t, dir, snapName(1), []byte("snap 1 1\n"), putPayload(t, 0, "a"), encodeFooter(1, 1))
	if marked := fsckMarked(t, dir); len(marked) != 0 {
		t.Fatalf("fsck marks a two-field header: %v", marked)
	}
	l := mustOpen(t, dir, false)
	defer l.Close()
	if got := len(l.Recovered().Relations); got != 1 || l.Seq() != 0 {
		t.Fatalf("recovered %d relations at seq %d, want 1 at seq 0", got, l.Seq())
	}
}

// TestReadSinceIgnoresStaleSegment: a crash between a snapshot's rename
// and its GC leaves a superseded segment behind. Open and Scrub skip it,
// and so must log shipping, even once that segment has rotted.
func TestReadSinceIgnoresStaleSegment(t *testing.T) {
	dir := t.TempDir()
	l := shipTestLog(t, dir)
	defer l.Close()
	state := map[string]*relation.Relation{}
	for i, name := range []string{"a", "b", "c"} {
		state[name] = shipTestRel(t, i+1)
		if err := l.AppendPut(name, state[name]); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(gen, state); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPut("d", shipTestRel(t, 4)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDelete("a"); err != nil {
		t.Fatal(err)
	}
	stale[len(stale)/2] ^= 0x20
	if err := os.WriteFile(filepath.Join(dir, segName(1)), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, full, err := l.ReadSince(3)
	if err != nil || full || len(recs) != 2 || recs[0].Seq != 4 || recs[1].Seq != 5 {
		t.Fatalf("ReadSince(3) beside a rotted stale segment = %+v full=%v err=%v", recs, full, err)
	}
}
