package wal

import (
	"fmt"
	"path/filepath"

	"systolicdb/internal/relation"
)

// Log shipping: a shard's follower replicates by reading the primary's
// write-ahead log — the same records the primary persisted before acking —
// and replaying them through its own durable commit path. The reader works
// purely from the on-disk segments, so a record it returns is by
// construction one the primary has made recoverable.
//
// ReadSince serves the incremental case: every put/delete record with a
// sequence number beyond the follower's high-water mark, in log order.
// When snapshot compaction has garbage-collected the segments holding the
// records the follower still needs (or the follower is brand new at seq
// 0 while snapshots exist), there is a gap the log alone cannot bridge:
// ReadSince reports needFull and the caller ships the primary's full
// catalog state instead (the network server does this from its live
// catalog under its commit mutex, with the current sequence number).

// ShipRecord is one replicated catalog mutation: Op is "put" (Table holds
// the relation serialised with a `#% types:` directive, exactly as logged)
// or "del". Key carries the mutation's idempotency key, so a follower
// that already applied the same logical write through the coordinator's
// dual-write path can skip it instead of committing it twice.
type ShipRecord struct {
	Seq   uint64 `json:"seq"`
	Op    string `json:"op"`
	Name  string `json:"name"`
	Key   string `json:"key,omitempty"`
	Table string `json:"table,omitempty"`
}

// Seq returns the sequence number of the last appended record — the
// primary's replication high-water mark.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// ReadSince returns every logged mutation with seq > afterSeq, in order,
// scanning the live segment files; a stale segment, superseded by the
// newest snapshot, is skipped as Open skips it. It holds the log's mutex
// for the duration, so the scan never races an append mid-frame.
//
// needFull reports that the log cannot bridge from afterSeq: some records
// in (afterSeq, Seq] were compacted into a snapshot and GC'd, or the
// follower is at 0 while the primary's history starts at a snapshot. The
// caller must ship full state (catalog + current seq) instead. A torn
// final frame in the newest segment is skipped, not an error: it is an
// unacked write, by the same crash model recovery uses.
func (l *Log) ReadSince(afterSeq uint64) (recs []ShipRecord, needFull bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, false, fmt.Errorf("wal: log is closed")
	}
	if afterSeq >= l.seq {
		return nil, false, nil // follower is caught up
	}

	files, _, err := listFiles(l.fs, l.opt.Dir)
	if err != nil {
		return nil, false, fmt.Errorf("wal: ship: %w", err)
	}
	for _, f := range files {
		if f.snap || !f.live {
			continue
		}
		data, err := l.fs.ReadFile(filepath.Join(l.opt.Dir, f.name))
		if err != nil {
			return nil, false, fmt.Errorf("wal: ship: %w", err)
		}
		c := checkFile(f, data, f.tail, nil, func(_ int64, rec *record, _ *relation.Relation) {
			if rec.seq > afterSeq {
				recs = append(recs, ShipRecord{Seq: rec.seq, Op: rec.op, Name: rec.name, Key: rec.key, Table: rec.table})
			}
		})
		if c.corrupt != nil {
			return nil, false, fmt.Errorf("wal: ship: %w (run fsck)", c.corrupt)
		}
	}

	// The segments must cover (afterSeq, seq] contiguously: the next record
	// the follower needs is afterSeq+1 (sequence numbers are dense — every
	// append increments by one). If it is missing, compaction already folded
	// it into a snapshot and the follower needs a full resync.
	if len(recs) == 0 || recs[0].Seq != afterSeq+1 {
		return nil, true, nil
	}
	return recs, false, nil
}
