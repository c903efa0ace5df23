// Package wal makes the daemon's relation catalog durable and
// crash-safe. Kung & Lehman's §9 database machine keeps its relations on
// disk drives that feed the systolic arrays; this package is that disk in
// software — the host owns durable state while the arrays own throughput.
//
// The design is a classic write-ahead log with snapshot compaction:
//
//   - Every catalog mutation (put or delete of a named relation) is
//     appended to the current log segment — CRC32- and length-framed,
//     carrying the relation's schema (`#% types:` domain specs) and its
//     fault.RelationChecksum — and optionally fsynced, *before* the
//     mutation is acknowledged. An acked write is therefore recoverable.
//
//   - Periodically the log rotates to a fresh segment and the whole
//     catalog is written to a snapshot file (write temp + fsync + rename,
//     so a snapshot is atomic), after which the segments it supersedes
//     are deleted. Snapshots bound both recovery time and disk use.
//
//   - On boot, Open replays the newest snapshot plus every later segment,
//     re-verifying every relation against its logged cardinality and
//     order-independent XOR checksum through the fault package's Verify
//     machinery, so recovery-time integrity failures are caught the same
//     way tile-level faults are. Which files are live, what each may
//     hold, and what Open, Fsck, Scrub and ReadSince each do with a
//     violation is the rule book tabled in DESIGN.md §6 ("The WAL rule
//     book"); walk.go is its one implementation.
//
// The file layout under the data directory is generation-numbered:
// wal-<g>.log holds the mutations of generation g, and snap-<g>.snap
// holds the full catalog as of the rotation that opened generation g
// (records are full-state puts, so replaying a segment the snapshot
// already covers is idempotent). Recovery loads the newest snapshot and
// replays every segment of that generation and later.
package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"systolicdb/internal/diskchaos"
	"systolicdb/internal/fault"
	"systolicdb/internal/obs"
	"systolicdb/internal/relation"
)

// DecodeFunc rebuilds a relation from its serialised form — a `#% types:`
// directive plus the text-table format. The caller supplies it (typically
// the server catalog's ParseTable) so recovered relations are built
// against the caller's domain pool and stay union-compatible with
// relations loaded later.
type DecodeFunc func(table string) (*relation.Relation, error)

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if missing.
	Dir string

	// Fsync syncs the segment file after every append, making the
	// ack-implies-durable guarantee hold through power loss, not just
	// process death. Segment seals and snapshots are always synced
	// regardless. Off trades the unsynced tail of the log for append
	// throughput.
	Fsync bool

	// Decode rebuilds relations during recovery. Required.
	Decode DecodeFunc

	// Metrics receives the WAL's counters, gauges and timers (append and
	// fsync latency, bytes, lag, snapshot and recovery stats). Nil
	// records into a private throwaway registry.
	Metrics *obs.Registry

	// Logf reports recovery warnings, e.g. a truncated torn tail. Nil is
	// silent.
	Logf func(format string, args ...any)

	// FS is the filesystem seam every log, snapshot and recovery I/O goes
	// through. Nil selects the real OS filesystem; the disk-chaos harness
	// and fault-injection tests plug their filesystems in here.
	FS diskchaos.FS
}

// Recovery summarises what Open reconstructed.
type Recovery struct {
	// Relations is the recovered catalog state. Consumed by the caller;
	// not serialised into status reports.
	Relations map[string]*relation.Relation `json:"-"`

	// AppliedKeys lists the idempotency keys of replayed mutations in log
	// order (unkeyed records contribute nothing). The server seeds its
	// dedup window from this so a retry that lands after a restart is
	// still recognised.
	AppliedKeys []string `json:"-"`

	SnapshotGen  uint64  `json:"snapshot_gen"`       // 0 = no snapshot found
	SnapshotRels int     `json:"snapshot_relations"` // relations loaded from it
	Segments     int     `json:"segments_replayed"`
	Records      int     `json:"records_replayed"`
	TornBytes    int64   `json:"torn_bytes_truncated"` // tail bytes discarded
	Verified     int     `json:"relations_verified"`   // checksum verifications run
	DurationMS   float64 `json:"duration_ms"`
}

// Status is the log's live state, reported by /healthz.
type Status struct {
	Dir         string   `json:"dir"`
	Fsync       bool     `json:"fsync"`
	Gen         uint64   `json:"segment_gen"`  // current segment generation
	Seq         uint64   `json:"last_seq"`     // last assigned record sequence
	Lag         int64    `json:"lag_records"`  // appends not yet snapshotted
	SnapshotGen uint64   `json:"snapshot_gen"` // newest completed snapshot
	Recovery    Recovery `json:"recovery"`     // what the last Open rebuilt
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; the caller is responsible for ordering appends against its own
// state (the server holds one commit mutex across append + publish so
// log order equals publish order).
type Log struct {
	opt Options
	reg *obs.Registry
	rec Recovery

	fs diskchaos.FS

	mu      sync.Mutex
	f       diskchaos.File  // current segment, append-only (nil while wedged)
	gen     uint64          // current segment generation
	seq     uint64          // last assigned record seq
	lag     int64           // appends since the last completed snapshot
	snapGen uint64          // generation of the newest completed snapshot
	size    int64           // bytes of complete, acked frames in the current segment
	corrupt map[string]bool // files to quarantine (not delete) at the next snapshot GC
	closed  bool

	// ladder is the append state: healthy, or wedged with the error that
	// wedged it, when the segment tail could not be restored; appends
	// refuse until Repair.
	ladder *fault.Ladder[error]
}

func segName(gen uint64) string  { return fmt.Sprintf("wal-%016d.log", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%016d.snap", gen) }

// parseGen extracts the generation from a wal/snap file name.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var gen uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%d", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// listGens returns the sorted generations of files matching prefix/suffix
// in dir.
func listGens(fsys diskchaos.FS, dir, prefix, suffix string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if gen, ok := parseGen(e.Name(), prefix, suffix); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Open recovers the catalog state persisted in opts.Dir and returns a log
// ready for appends. A torn final record is truncated (reported through
// opts.Logf and the recovery stats); any other corruption — a CRC
// mismatch mid-file, a checksum-failing relation, an unparseable record —
// refuses to open with an error naming the damage.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty data directory")
	}
	if opts.Decode == nil {
		return nil, fmt.Errorf("wal: Options.Decode is required")
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.FS == nil {
		opts.FS = diskchaos.OS
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opt: opts, reg: opts.Metrics, fs: opts.FS}
	l.ladder = fault.NewLadder(appendTable, l.countAppend, time.Now)

	start := time.Now()
	if err := l.recover(); err != nil {
		return nil, err
	}
	l.rec.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	// Records replayed from segments are appends no snapshot covers yet, so
	// they are lag: the snapshot policy (and the shutdown compaction) must
	// see them, or a daemon that crash-loops never compacts.
	l.lag = int64(l.rec.Records)

	// Open (or create) the segment recovery chose for appending.
	f, err := l.fs.OpenFile(filepath.Join(opts.Dir, segName(l.gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	if err := l.syncDir(); err != nil {
		l.f.Close()
		return nil, err
	}

	l.reg.Timer("wal_recovery_seconds", nil).Observe(time.Since(start))
	l.reg.Counter("wal_recovery_records_total", nil).Add(int64(l.rec.Records))
	l.reg.Counter("wal_recovery_torn_bytes_total", nil).Add(l.rec.TornBytes)
	l.reg.Counter("wal_recovery_checksum_failures_total", nil).Add(0)
	l.reg.Gauge("wal_recovered_relations", nil).Set(float64(len(l.rec.Relations)))
	l.reg.Gauge("wal_lag_records", nil).Set(float64(l.lag))
	for _, op := range []string{"put", "delete"} {
		l.reg.Counter("wal_appends_total", obs.Labels{"op": op}).Add(0)
	}
	return l, nil
}

// Recovered returns the state Open reconstructed. The Relations map is
// shared with the Log's status copy; callers must treat the relations as
// immutable (the catalog contract already requires this).
func (l *Log) Recovered() Recovery { return l.rec }

// Status reports the log's current state for health endpoints.
func (l *Log) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Status{
		Dir: l.opt.Dir, Fsync: l.opt.Fsync,
		Gen: l.gen, Seq: l.seq, Lag: l.lag, SnapshotGen: l.snapGen,
		Recovery: l.rec,
	}
}

// Lag returns the number of appended records not yet covered by a
// completed snapshot — the WAL lag the snapshot policy acts on.
func (l *Log) Lag() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lag
}

// AppendPut logs one catalog put. It returns only after the record is
// written (and fsynced, per Options.Fsync) — the caller acks afterwards.
func (l *Log) AppendPut(name string, rel *relation.Relation) error {
	return l.AppendPutKeyed(name, "", rel)
}

// AppendPutKeyed logs one catalog put stamped with an idempotency key
// (empty key = unkeyed, identical to AppendPut). The key rides in the
// record so recovery and log shipping can recognise a retried mutation.
func (l *Log) AppendPutKeyed(name, key string, rel *relation.Relation) error {
	if rel == nil {
		return fmt.Errorf("wal: nil relation")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	payload, err := encodePut(l.seq+1, name, key, rel)
	if err != nil {
		return err
	}
	return l.append("put", payload)
}

// AppendDeleteKeyed logs one catalog delete stamped with an idempotency
// key (empty key = unkeyed).
func (l *Log) AppendDeleteKeyed(name, key string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append("delete", encodeDelete(l.seq+1, name, key))
}

// append writes one framed payload to the current segment. Caller holds mu.
//
// Failure discipline: a failed or short write (and, with Fsync on, a
// failed fsync) refuses the ack, and the segment tail is restored to the
// last complete acked frame — a torn frame left mid-file would turn every
// later append into hard corruption, and a written-but-refused frame
// would resurrect as a phantom mutation at recovery. If the tail cannot
// be restored the log wedges: appends refuse until Repair succeeds.
func (l *Log) append(op string, payload []byte) error {
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.ladder.Cause(); err != nil {
		return fmt.Errorf("wal: log is wedged pending repair: %w", err)
	}
	buf := frame(payload)
	if n, err := l.f.Write(buf); err != nil || n != len(buf) {
		if err == nil {
			err = io.ErrShortWrite
		}
		l.reg.Counter("wal_append_errors_total", nil).Inc()
		l.unwedge() // a failed restore wedges the log
		return fmt.Errorf("wal: append: %w", err)
	}
	if l.opt.Fsync {
		stop := l.reg.Timer("wal_fsync_seconds", nil).Start()
		err := l.f.Sync()
		stop()
		if err != nil {
			l.reg.Counter("wal_append_errors_total", nil).Inc()
			l.unwedge() // a failed restore wedges the log
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	l.size += int64(len(buf))
	l.seq++
	l.lag++
	l.reg.Counter("wal_appends_total", obs.Labels{"op": op}).Inc()
	l.reg.Counter("wal_append_bytes_total", nil).Add(int64(len(buf)))
	l.reg.Gauge("wal_lag_records", nil).Set(float64(l.lag))
	return nil
}

// Rotate seals the current segment (fsync + close) and starts the next
// generation, returning its number. The caller captures its state *after*
// Rotate returns — while holding the same lock that orders its appends —
// and passes both to WriteSnapshot; state captured that way covers every
// record of the sealed generations, so deleting them after the snapshot
// commits cannot lose data.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if err := l.ladder.Cause(); err != nil {
		return 0, fmt.Errorf("wal: log is wedged pending repair: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: sealing %s: %w", segName(l.gen), err)
	}
	if err := l.f.Close(); err != nil {
		// The handle is gone either way; reattach so the log stays usable.
		l.reopenCurrent()
		return 0, fmt.Errorf("wal: sealing %s: %w", segName(l.gen), err)
	}
	gen := l.gen + 1
	f, err := l.fs.OpenFile(filepath.Join(l.opt.Dir, segName(gen)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Reopen the sealed segment so the log stays usable; a failed
		// reopen wedges the log rather than leaving a broken handle for
		// the next append to crash into.
		l.reopenCurrent()
		return 0, fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.syncDir(); err != nil {
		f.Close()
		l.fs.Remove(filepath.Join(l.opt.Dir, segName(gen))) // best effort; an empty next-gen file is harmless
		l.reopenCurrent()
		return 0, err
	}
	l.f, l.gen, l.size = f, gen, 0
	// Appends into the new generation count as post-snapshot lag; the
	// about-to-be-written snapshot covers everything before it.
	l.lag = 0
	l.reg.Gauge("wal_lag_records", nil).Set(0)
	return gen, nil
}

// WriteSnapshot persists state as the snapshot for generation gen (as
// returned by Rotate) — write temp file, fsync, rename, fsync directory —
// then deletes the segments and snapshots it supersedes. On success the
// snapshot is the new recovery base; on failure the old files remain and
// recovery is unaffected.
func (l *Log) WriteSnapshot(gen uint64, state map[string]*relation.Relation) error {
	stop := l.reg.Timer("wal_snapshot_seconds", nil).Start()
	err := l.writeSnapshot(gen, state)
	stop()
	if err != nil {
		l.reg.Counter("wal_snapshot_errors_total", nil).Inc()
		return err
	}
	l.reg.Counter("wal_snapshots_total", nil).Inc()
	return nil
}

func (l *Log) writeSnapshot(gen uint64, state map[string]*relation.Relation) error {
	names := make([]string, 0, len(state))
	for name := range state {
		names = append(names, name)
	}
	sort.Strings(names)
	// The header carries the log's seq, so Seq survives a compacting restart.
	l.mu.Lock()
	seq := l.seq
	l.mu.Unlock()

	tmp := filepath.Join(l.opt.Dir, snapName(gen)+".tmp")
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	defer l.fs.Remove(tmp) // no-op after the rename succeeds

	// The whole snapshot body is framed in memory and lands in one write:
	// on a faulty disk every write is a chance to fail, and a snapshot
	// that needs one success instead of one per relation is the
	// difference between degraded-mode recovery converging and starving.
	var body bytes.Buffer
	body.Write(frame(encodeHeader(gen, len(names), seq)))
	for _, name := range names {
		var payload []byte
		if payload, err = encodePut(0, name, "", state[name]); err != nil {
			break
		}
		body.Write(frame(payload))
	}
	if err == nil {
		body.Write(frame(encodeFooter(gen, len(names))))
		var n int
		if n, err = f.Write(body.Bytes()); err == nil && n != body.Len() {
			err = io.ErrShortWrite
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.opt.Dir, snapName(gen))); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := l.syncDir(); err != nil {
		return err
	}

	l.mu.Lock()
	if gen > l.snapGen {
		l.snapGen = gen
	}
	quarantine := make(map[string]bool, len(l.corrupt))
	for name := range l.corrupt {
		quarantine[name] = true
	}
	l.mu.Unlock()

	// Garbage-collect everything the new snapshot supersedes. Files marked
	// corrupt are quarantined into corrupt/ for forensics instead of
	// deleted — but only now, once the fresh snapshot is the recovery base
	// and abandoning their records cannot lose state.
	files, _, err := listFiles(l.fs, l.opt.Dir)
	if err != nil {
		return fmt.Errorf("wal: snapshot gc: %w", err)
	}
	for _, df := range files {
		if df.gen >= gen {
			continue
		}
		if quarantine[df.name] {
			if err := quarantineFile(l.fs, l.opt.Dir, df.name); err != nil {
				return fmt.Errorf("wal: snapshot gc: %w", err)
			}
			l.reg.Counter("wal_quarantined_total", nil).Inc()
			l.mu.Lock()
			delete(l.corrupt, df.name)
			l.mu.Unlock()
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.opt.Dir, df.name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: snapshot gc: %w", err)
		}
	}
	return l.syncDir()
}

// Close seals the current segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil { // wedged with no handle; nothing left to seal
		return l.ladder.Cause()
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	return l.f.Close()
}

// syncDir fsyncs the data directory, making renames and file creations
// durable.
func (l *Log) syncDir() error {
	if err := l.fs.SyncDir(l.opt.Dir); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", l.opt.Dir, err)
	}
	return nil
}

// The append state's rung and events. A wedged log refuses a second
// wedge: it keeps the error that wedged it, and neither counts nor logs the
// repeat.
const (
	appendWedge, appendUnwedge = 0, 1
	appendWedged               = 1 // the append handle is unusable; appends refuse until Repair
)

var appendTable = fault.Table{0: {appendWedge: appendWedged}, appendWedged: {appendUnwedge: 0}}

func (l *Log) countAppend(_, to, _ int, err error) {
	if to == appendWedged {
		l.reg.Counter("wal_wedged_total", nil).Inc()
		l.opt.Logf("wal wedged: %v", err)
		return
	}
	l.reg.Counter("wal_repairs_total", nil).Inc()
}

// unwedge restores the current segment's tail to the last acked frame
// boundary and reopens the handle: after a failed append, and as Repair's
// and Probe's one way back into service. A failed restore wedges a healthy
// log and leaves a wedged one as it was. Caller holds mu.
func (l *Log) unwedge() error {
	if err := l.truncateReopen(); err != nil {
		l.ladder.Move(appendWedge, err)
		return err
	}
	l.ladder.Move(appendUnwedge, nil)
	return nil
}

// truncateReopen re-establishes the append handle on the current segment
// truncated to exactly l.size bytes (the acked frames), and fsyncs it so
// the restored tail is durable. Caller holds mu.
func (l *Log) truncateReopen() error {
	if l.f != nil {
		l.f.Close() // the handle may already be broken; the reopen below decides
		l.f = nil
	}
	path := filepath.Join(l.opt.Dir, segName(l.gen))
	if err := l.fs.Truncate(path, l.size); err != nil {
		return fmt.Errorf("wal: restoring tail of %s: %w", segName(l.gen), err)
	}
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening %s: %w", segName(l.gen), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing restored %s: %w", segName(l.gen), err)
	}
	l.f = f
	return nil
}

// reopenCurrent re-attaches the append handle to the current segment
// after a failed rotation, wedging the log if the reopen itself fails
// (this error used to be discarded, leaving a broken handle for the next
// append to crash into). Caller holds mu.
func (l *Log) reopenCurrent() {
	f, err := l.fs.OpenFile(filepath.Join(l.opt.Dir, segName(l.gen)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		l.ladder.Move(appendWedge, fmt.Errorf("wal: reopening %s after failed rotation: %w", segName(l.gen), err))
		return
	}
	l.f = f
}

// Probe verifies the data directory accepts durable writes again: repair
// the log's own tail if wedged, then write, fsync and remove a scratch
// file. The server's read-only mode gates recovery on a nil return.
func (l *Log) Probe() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.ladder.State() == appendWedged {
		if err := l.unwedge(); err != nil {
			return err
		}
	}
	path := filepath.Join(l.opt.Dir, "probe.tmp")
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: probe: %w", err)
	}
	_, err = f.Write([]byte("systolicdb durability probe\n"))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	l.fs.Remove(path) // best effort; a stray probe file is ignored by recovery
	if err != nil {
		return fmt.Errorf("wal: probe: %w", err)
	}
	return nil
}

// MarkCorrupt flags data files (bare names like "wal-0000000000000003.log")
// whose at-rest bytes failed verification. They are not touched
// immediately — quarantining a live segment before a fresh snapshot
// commits could lose acked state — but the next snapshot GC moves them
// into the corrupt/ subdirectory instead of deleting them.
func (l *Log) MarkCorrupt(names []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.corrupt == nil {
		l.corrupt = make(map[string]bool, len(names))
	}
	for _, n := range names {
		l.corrupt[n] = true
	}
}

// quarantineFile moves one data file into dir/corrupt/, creating the
// subdirectory as needed.
func quarantineFile(fsys diskchaos.FS, dir, name string) error {
	qdir := filepath.Join(dir, "corrupt")
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	if err := fsys.Rename(filepath.Join(dir, name), filepath.Join(qdir, name)); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
