package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"systolicdb/internal/relation"
)

// recover rebuilds catalog state from the data directory's live files —
// the newest snapshot, then every segment of its generation and later, in
// order — and chooses the segment appends continue in. It fills l.rec,
// l.seq, l.snapGen, l.gen and l.size, and truncates a torn tail off the
// newest segment. Caller is Open; no lock is held (nothing else can touch
// the Log yet).
func (l *Log) recover() error {
	l.rec = Recovery{Relations: make(map[string]*relation.Relation)}
	files, base, err := listFiles(l.fs, l.opt.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.snapGen, l.rec.SnapshotGen, l.gen = base, base, max(base, 1)
	for _, f := range files {
		if !f.snap {
			l.gen = max(l.gen, f.gen)
		}
		if !f.live {
			continue // superseded by the snapshot; GC'd on next snapshot
		}
		if err := l.replay(f); err != nil {
			return err
		}
	}
	return nil
}

// replay applies one live file to the recovered state: a snapshot's
// relations, or a segment's mutations. A rule-book violation refuses
// recovery; a torn tail (only the newest segment may have one) was never
// acked, so it is truncated away.
func (l *Log) replay(f dataFile) error {
	path := filepath.Join(l.opt.Dir, f.name)
	data, err := readConfirmed(l.fs, path, f.tail)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	c := checkFile(f, data, f.tail, l.opt.Decode, func(_ int64, rec *record, rel *relation.Relation) {
		switch rec.op {
		case opPut:
			l.rec.Relations[rec.name] = rel
			l.rec.Verified++
		case opDel:
			delete(l.rec.Relations, rec.name)
		}
		if f.snap {
			return // a snapshot is state, not mutations
		}
		if rec.key != "" {
			l.rec.AppliedKeys = append(l.rec.AppliedKeys, rec.key)
		}
		l.rec.Records++
	})
	if c.corrupt != nil {
		if errors.Is(c.corrupt, errChecksum) {
			l.reg.Counter("wal_recovery_checksum_failures_total", nil).Inc()
		}
		return fmt.Errorf("wal: %s is corrupt: %w (run fsck)", f.name, c.corrupt)
	}
	l.seq = max(l.seq, c.seq)
	if f.snap {
		l.rec.SnapshotRels = len(l.rec.Relations)
		return nil
	}
	l.rec.Segments++
	if c.torn > 0 {
		// A write cut short by a crash: whatever it was, it was never
		// acked. Truncate so the next append starts on a frame boundary.
		l.opt.Logf("truncating %d torn byte(s) from %s (unacked write cut short by a crash)", c.torn, f.name)
		if err := l.fs.Truncate(path, c.good); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", f.name, err)
		}
		fh, err := l.fs.OpenFile(path, os.O_WRONLY, 0o644)
		if err == nil {
			err = fh.Sync()
			if cerr := fh.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("wal: syncing truncated %s: %w", f.name, err)
		}
		l.rec.TornBytes += c.torn
	}
	if f.tail {
		// The bytes that survive recovery are the acked-frame tail boundary
		// failed appends restore to.
		l.size = c.good
	}
	return nil
}
