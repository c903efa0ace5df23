package wal

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"systolicdb/internal/diskchaos"
	"systolicdb/internal/obs"
	"systolicdb/internal/relation"
)

// failFS wraps a real filesystem, failing chosen operations on demand —
// the handle for wedge-path regression tests that need faults diskchaos's
// grammar doesn't model (e.g. a reopen without O_CREATE failing).
type failFS struct {
	diskchaos.FS
	failCreate bool // OpenFile with O_CREATE fails with ENOSPC
	failReopen bool // OpenFile without O_CREATE fails with EIO
}

func (f *failFS) OpenFile(name string, flag int, perm fs.FileMode) (diskchaos.File, error) {
	if flag&os.O_CREATE != 0 && f.failCreate {
		return nil, fmt.Errorf("failFS: create %s: %w", name, syscall.ENOSPC)
	}
	if flag&os.O_CREATE == 0 && f.failReopen {
		return nil, fmt.Errorf("failFS: reopen %s: %w", name, syscall.EIO)
	}
	return f.FS.OpenFile(name, flag, perm)
}

// TestRotateCreateFailureKeepsLogUsable is the regression test for the
// discarded segment-reopen errors: when rotation cannot create the next
// generation but the sealed segment reopens fine, the log must stay
// fully usable.
func TestRotateCreateFailureKeepsLogUsable(t *testing.T) {
	dir := t.TempDir()
	ffs := &failFS{FS: diskchaos.OS}
	l, err := Open(Options{Dir: dir, Fsync: true, Decode: testDecoder(), FS: ffs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPut("a", testRel(t, 1, "alice")); err != nil {
		t.Fatal(err)
	}
	ffs.failCreate = true
	if _, err := l.Rotate(); err == nil {
		t.Fatal("Rotate with failing create reported success")
	}
	if w := l.Wedged(); w != nil {
		t.Fatalf("clean reopen after failed rotation must not wedge, got %v", w)
	}
	ffs.failCreate = false
	if err := l.AppendPut("b", testRel(t, 2, "bob")); err != nil {
		t.Fatalf("append after failed rotation: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, true)
	defer l2.Close()
	if got := len(l2.Recovered().Relations); got != 2 {
		t.Fatalf("recovered %d relations, want 2", got)
	}
}

// TestRotateReopenFailureWedgesAndRepairs pins the defined failed state:
// when both the rotation and the reopen of the sealed segment fail, the
// log wedges — appends refuse with an error instead of writing through a
// broken handle — and Probe returns it to service with no acked loss.
func TestRotateReopenFailureWedgesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	ffs := &failFS{FS: diskchaos.OS}
	l, err := Open(Options{Dir: dir, Fsync: true, Decode: testDecoder(), FS: ffs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPut("a", testRel(t, 1, "alice")); err != nil {
		t.Fatal(err)
	}
	ffs.failCreate, ffs.failReopen = true, true
	if _, err := l.Rotate(); err == nil {
		t.Fatal("Rotate with failing create reported success")
	}
	if l.Wedged() == nil {
		t.Fatal("failed reopen after failed rotation must wedge the log")
	}
	if err := l.AppendPut("b", testRel(t, 2, "bob")); err == nil {
		t.Fatal("append on a wedged log was accepted")
	} else if !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("append on a wedged log: error %q does not name the state", err)
	}
	// The disk heals; Probe restores service.
	ffs.failCreate, ffs.failReopen = false, false
	if err := l.Probe(); err != nil {
		t.Fatalf("Probe on a healed disk: %v", err)
	}
	if l.Wedged() != nil {
		t.Fatal("log still wedged after successful Probe")
	}
	if err := l.AppendPut("b", testRel(t, 2, "bob")); err != nil {
		t.Fatalf("append after Probe: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, true)
	defer l2.Close()
	if got := len(l2.Recovered().Relations); got != 2 {
		t.Fatalf("recovered %d relations, want 2", got)
	}
}

func TestProbeHealthyLog(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, true)
	defer l.Close()
	if err := l.Probe(); err != nil {
		t.Fatalf("probe on a healthy log: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "probe.tmp")); !os.IsNotExist(err) {
		t.Fatalf("probe scratch file left behind (stat err %v)", err)
	}
}

// workloadKinds are the write-side faults swept by the single-fault
// property test. bitrot-read gets its own sweep over recovery's read
// ordinals (TestRecoveryBitrotSweep): the write workload performs no
// reads for it to land on.
var workloadKinds = []string{
	diskchaos.KindENOSPC, diskchaos.KindEIOWrite, diskchaos.KindShortWrite, diskchaos.KindFsyncLie,
}

// runFaultedWorkload drives a fixed append/rotate/snapshot/append/delete
// cycle against a chaos filesystem and returns the acked state (name →
// canonical dump) plus the chaos handle. An op the log refuses is simply
// not acked; a wedge is repaired and the workload moves on, the way the
// server's probe loop would.
func runFaultedWorkload(t *testing.T, dir string, spec *diskchaos.Spec) (map[string]string, *diskchaos.Chaos) {
	t.Helper()
	c := diskchaos.New(spec, diskchaos.OS, obs.NewRegistry())
	acked := map[string]string{}
	l, err := Open(Options{Dir: dir, Fsync: true, Decode: testDecoder(), FS: c})
	if err != nil {
		return acked, c // the injected fault hit segment creation; nothing acked
	}
	state := map[string]*relation.Relation{}
	commit := func(i int) {
		name := fmt.Sprintf("w%d", i)
		rel := testRel(t, i, fmt.Sprintf("row%d", i), i+100, "pad")
		if err := l.AppendPut(name, rel); err != nil {
			l.Probe() // may fail; later appends then refuse, which is fine
			return
		}
		state[name] = rel
		acked[name] = dump(t, rel)
	}
	for i := 0; i < 4; i++ {
		commit(i)
	}
	if gen, err := l.Rotate(); err == nil {
		snap := make(map[string]*relation.Relation, len(state))
		for k, v := range state {
			snap[k] = v
		}
		l.WriteSnapshot(gen, snap) // a failed snapshot leaves the old base; fine
	}
	for i := 4; i < 8; i++ {
		commit(i)
	}
	if err := l.AppendDelete("w0"); err == nil {
		delete(acked, "w0")
		delete(state, "w0")
	} else {
		l.Probe()
	}
	l.Close() // a wedged close can error; recovery below is the judge
	return acked, c
}

// TestSingleFaultRecoveryProperty extends the PR 4 truncation-prefix
// property to the fault dimension: for every write-side fault kind
// injected at every single op ordinal of the workload, recovery on a
// healed disk must rebuild exactly the acked state — never a phantom
// record, never a lost ack, never a refusal.
func TestSingleFaultRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is slow; skipped in -short")
	}
	// Count the op ordinals a clean run consumes, then sweep them.
	clean, probe := runFaultedWorkload(t, t.TempDir(), &diskchaos.Spec{Seed: 1})
	if len(clean) != 7 { // 8 puts minus 1 delete
		t.Fatalf("clean workload acked %d relations, want 7", len(clean))
	}
	nOps := int(probe.Ops())
	if nOps == 0 {
		t.Fatal("workload consumed no op ordinals; the sweep is empty")
	}

	for _, kind := range workloadKinds {
		for ord := 0; ord < nOps; ord++ {
			name := fmt.Sprintf("%s@%d", kind, ord)
			dir := t.TempDir()
			spec := &diskchaos.Spec{Seed: 1, At: []diskchaos.At{{Ordinal: uint64(ord), Kind: kind}}}
			acked, _ := runFaultedWorkload(t, dir, spec)

			l, err := Open(Options{Dir: dir, Fsync: true, Decode: testDecoder()})
			if err != nil {
				t.Fatalf("%s: recovery on a healed disk refused: %v", name, err)
			}
			rec := l.Recovered()
			if len(rec.Relations) != len(acked) {
				t.Fatalf("%s: recovered %d relations, acked %d", name, len(rec.Relations), len(acked))
			}
			for rn, want := range acked {
				rel, ok := rec.Relations[rn]
				if !ok {
					t.Fatalf("%s: acked relation %q lost", name, rn)
				}
				if got := dump(t, rel); got != want {
					t.Fatalf("%s: relation %q recovered wrong:\n got %q\nwant %q", name, rn, got, want)
				}
			}
			l.Close()
		}
	}
}

// TestRecoveryBitrotSweep pins the read side of the property: a bit
// flipped in transit (not at rest) during recovery, at any read ordinal,
// must not truncate acked records, refuse recovery, or serve wrong data —
// the confirmed-read discipline shakes it out.
func TestRecoveryBitrotSweep(t *testing.T) {
	dir := t.TempDir()
	want := buildRecoverableDir(t, dir)

	// Count recovery's op ordinals with a quiet chaos run. Recovery of a
	// clean directory mutates nothing, so the same dir serves every pass.
	quiet := diskchaos.New(&diskchaos.Spec{Seed: 1}, diskchaos.OS, obs.NewRegistry())
	l, err := Open(Options{Dir: dir, Fsync: true, Decode: testDecoder(), FS: quiet})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	nOps := int(quiet.Ops())

	for ord := 0; ord < nOps; ord++ {
		spec := &diskchaos.Spec{Seed: 1, At: []diskchaos.At{{Ordinal: uint64(ord), Kind: diskchaos.KindBitrotRead}}}
		c := diskchaos.New(spec, diskchaos.OS, obs.NewRegistry())
		l, err := Open(Options{Dir: dir, Fsync: true, Decode: testDecoder(), FS: c})
		if err != nil {
			t.Fatalf("bitrot@%d: recovery refused despite transient-only rot: %v", ord, err)
		}
		rec := l.Recovered()
		if len(rec.Relations) != len(want) {
			t.Fatalf("bitrot@%d: recovered %d relations, want %d", ord, len(rec.Relations), len(want))
		}
		for rn, w := range want {
			rel, ok := rec.Relations[rn]
			if !ok || dump(t, rel) != w {
				t.Fatalf("bitrot@%d: relation %q wrong after recovery", ord, rn)
			}
		}
		l.Close()
	}
}

// buildRecoverableDir writes a clean directory holding a snapshot plus a
// post-snapshot segment, returning the expected recovered state as dumps.
func buildRecoverableDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	l := mustOpen(t, dir, true)
	want := map[string]string{}
	rels := map[string]*relation.Relation{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("r%d", i)
		rel := testRel(t, i, fmt.Sprintf("pre%d", i))
		if err := l.AppendPut(name, rel); err != nil {
			t.Fatal(err)
		}
		want[name] = dump(t, rel)
		rels[name] = rel
	}
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(gen, rels); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		name := fmt.Sprintf("r%d", i)
		rel := testRel(t, i, fmt.Sprintf("post%d", i))
		if err := l.AppendPut(name, rel); err != nil {
			t.Fatal(err)
		}
		want[name] = dump(t, rel)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestScrubDetectsAndQuarantinesAtRestRot drives the full anti-entropy
// arc: at-rest damage is found by Scrub, MarkCorrupt plus a fresh
// snapshot quarantines the file into corrupt/, and the directory
// recovers the full state afterwards.
func TestScrubDetectsAndQuarantinesAtRestRot(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, true)
	rels := map[string]*relation.Relation{}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("s%d", i)
		rel := testRel(t, i, fmt.Sprintf("row%d", i))
		if err := l.AppendPut(name, rel); err != nil {
			t.Fatal(err)
		}
		rels[name] = rel
	}
	if rep, err := l.Scrub(); err != nil || !rep.OK() {
		t.Fatalf("scrub of a clean dir: rep=%+v err=%v", rep, err)
	}

	// Rot a byte at rest, inside an early record of the active segment.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x10
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := l.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Corrupt) != 1 || rep.Corrupt[0] != segName(1) {
		t.Fatalf("scrub missed at-rest rot: %+v", rep)
	}

	// Server-style repair: quarantine mark + fresh snapshot from live state.
	l.MarkCorrupt(rep.Corrupt)
	gen, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(gen, rels); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "corrupt", segName(1))); err != nil {
		t.Fatalf("corrupt segment not quarantined: %v", err)
	}
	if rep, err := l.Scrub(); err != nil || !rep.OK() {
		t.Fatalf("scrub after repair: rep=%+v err=%v", rep, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, true)
	defer l2.Close()
	if got := len(l2.Recovered().Relations); got != 5 {
		t.Fatalf("recovered %d relations after quarantine repair, want 5", got)
	}
}

// TestScrubTransientRotNotCondemned: a bit flipped in the scrubber's own
// read path must not condemn a healthy file — the confirming re-read
// sees clean bytes.
func TestScrubTransientRotNotCondemned(t *testing.T) {
	// Dry run to learn the op ordinal of the scrub's first read. Ops()
	// is read before Close, which consumes ordinals of its own.
	dry := diskchaos.New(&diskchaos.Spec{Seed: 3}, diskchaos.OS, obs.NewRegistry())
	var scrubReadOrd uint64
	{
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Fsync: true, Decode: testDecoder(), FS: dry})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendPut("a", testRel(t, 1, "alice")); err != nil {
			t.Fatal(err)
		}
		scrubReadOrd = dry.Ops() // the next op a Scrub would perform
		l.Close()
	}

	spec := &diskchaos.Spec{Seed: 3, At: []diskchaos.At{{Ordinal: scrubReadOrd, Kind: diskchaos.KindBitrotRead}}}
	c := diskchaos.New(spec, diskchaos.OS, obs.NewRegistry())
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: true, Decode: testDecoder(), FS: c})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendPut("a", testRel(t, 1, "alice")); err != nil {
		t.Fatal(err)
	}
	rep, err := l.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("transient read rot condemned a healthy file: %+v", rep)
	}
	if got := c.Counts()[diskchaos.KindBitrotRead]; got != 1 {
		t.Fatalf("bitrot injection did not fire (count %d); the test lost its target ordinal", got)
	}
}

// TestOfflineRepairQuarantines covers wal.Repair, the engine behind
// systolicdb -op fsck -repair.
func TestOfflineRepairQuarantines(t *testing.T) {
	dir := t.TempDir()
	buildRecoverableDir(t, dir)

	// Rot the post-snapshot segment at rest, mid-file.
	segs, err := listGens(diskchaos.OS, dir, "wal-", ".log")
	if err != nil || len(segs) == 0 {
		t.Fatalf("listGens: %v (%d segs)", err, len(segs))
	}
	seg := filepath.Join(dir, segName(segs[len(segs)-1]))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if rep, err := Fsck(dir, testDecoder()); err != nil || rep.OK() {
		t.Fatalf("fsck should report the rot: rep.OK=%v err=%v", rep != nil && rep.OK(), err)
	}
	rrep, err := Repair(dir, testDecoder())
	if err != nil {
		t.Fatal(err)
	}
	if len(rrep.Quarantined) != 1 || rrep.Quarantined[0] != filepath.Base(seg) {
		t.Fatalf("quarantined %v, want [%s]", rrep.Quarantined, filepath.Base(seg))
	}
	if !rrep.After.OK() {
		t.Fatalf("post-repair fsck still dirty: %v", rrep.After.Errors)
	}
	if _, err := os.Stat(filepath.Join(dir, "corrupt", filepath.Base(seg))); err != nil {
		t.Fatalf("quarantined file missing from corrupt/: %v", err)
	}
	// Recovery works again — with the quarantined segment's records
	// abandoned, which is the documented lossy trade.
	l, err := Open(Options{Dir: dir, Fsync: true, Decode: testDecoder(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("recovery after offline repair: %v", err)
	}
	l.Close()
}
