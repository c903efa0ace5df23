package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"systolicdb/internal/diskchaos"
)

// Anti-entropy scrubbing: the WAL's CRC frames and per-relation
// fault.RelationChecksum stamps are only ever checked when a file is
// read — at recovery, or by offline fsck. A sector that rots under a
// running daemon would sit undetected until the restart that needs it.
// Scrub closes that window: it periodically re-reads every live file and
// re-verifies both layers, so at-rest damage is found while the
// in-memory catalog (and a replica) still hold the data needed to repair
// it. The server pairs a corrupt scrub with MarkCorrupt + a fresh
// snapshot: the snapshot becomes the new recovery base and the damaged
// file is quarantined into corrupt/, not deleted.

// ScrubReport summarises one anti-entropy pass.
type ScrubReport struct {
	Files   int      `json:"files"`             // live files verified
	Records int      `json:"records"`           // frames CRC-checked
	Bytes   int64    `json:"bytes"`             // bytes re-read
	Skipped int      `json:"skipped"`           // stale files, or files GC'd mid-scrub
	Corrupt []string `json:"corrupt,omitempty"` // file names with confirmed at-rest damage
	Errors  []string `json:"errors,omitempty"`  // one description per corrupt file
}

// OK reports whether the pass found no at-rest damage.
func (r *ScrubReport) OK() bool { return len(r.Corrupt) == 0 }

// Scrub re-verifies every live on-disk file against the rule book Open
// and Fsck apply — frame CRCs, record kinds and order, snapshot structure,
// and each put's relation against its logged cardinality/XOR checksum —
// through the same confirmed-read discipline recovery uses, so a
// transient fault in the read path is never reported as at-rest damage.
// The active segment is read under the log's mutex (consistent with
// appends) and checked up to its acked bytes, so even its final frame
// must be whole; sealed files are read unlocked, and a file GC'd
// mid-scrub is skipped, not an error.
func (l *Log) Scrub() (*ScrubReport, error) {
	rep := &ScrubReport{}
	l.reg.Counter("wal_scrub_runs_total", nil).Inc()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("wal: log is closed")
	}
	// The active segment: capture its acked bytes while no append can be
	// mid-frame. Anything past l.size is residue of a refused append (only
	// possible while wedged) and is not scrubbed.
	active := dataFile{name: segName(l.gen), gen: l.gen}
	activePath := filepath.Join(l.opt.Dir, active.name)
	activeData, activeErr := l.fs.ReadFile(activePath)
	if activeErr == nil && int64(len(activeData)) > l.size {
		activeData = activeData[:l.size]
	}
	l.mu.Unlock()

	condemn := func(name, desc string) {
		rep.Corrupt = append(rep.Corrupt, name)
		rep.Errors = append(rep.Errors, desc)
	}

	if activeErr != nil {
		if os.IsNotExist(activeErr) {
			rep.Skipped++
		} else {
			return nil, fmt.Errorf("wal: scrub: %w", activeErr)
		}
	} else if err := l.scrubFile(active, activeData, rep); err != nil {
		// The copy we hold was captured under the mutex; confirm against a
		// fresh read so a bit flipped in transit is not condemned as rot.
		if again, rerr := l.fs.ReadFile(activePath); rerr == nil {
			if len(again) > len(activeData) {
				again = again[:len(activeData)]
			}
			if l.scrubFile(active, again, nil) != nil {
				condemn(active.name, err.Error())
			}
		} else {
			condemn(active.name, err.Error())
		}
	}

	// Sealed files: the newest snapshot and every live segment but the
	// active one, handled above.
	files, _, err := listFiles(l.fs, l.opt.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scrub: %w", err)
	}
	for _, f := range files {
		switch {
		case !f.snap && f.gen == active.gen:
			continue
		case !f.live:
			rep.Skipped++
			continue
		}
		data, err := readConfirmed(l.fs, filepath.Join(l.opt.Dir, f.name), false)
		if err != nil {
			if os.IsNotExist(err) {
				rep.Skipped++ // GC'd between listing and read
				continue
			}
			return nil, fmt.Errorf("wal: scrub: %w", err)
		}
		if serr := l.scrubFile(f, data, rep); serr != nil {
			condemn(f.name, serr.Error())
		}
	}

	sort.Strings(rep.Corrupt)
	l.reg.Counter("wal_scrub_records_total", nil).Add(int64(rep.Records))
	l.reg.Counter("wal_scrub_bytes_total", nil).Add(rep.Bytes)
	l.reg.Counter("wal_scrub_corrupt_total", nil).Add(int64(len(rep.Corrupt)))
	return rep, nil
}

// scrubFile checks one file's captured bytes against the rule book with
// every put verified and no torn tail allowed. rep, when non-nil, counts
// the pass; the confirming re-read of the active segment passes nil.
func (l *Log) scrubFile(f dataFile, data []byte, rep *ScrubReport) error {
	c := checkFile(f, data, false, l.opt.Decode, nil)
	if rep != nil {
		rep.Records += c.records
		rep.Bytes += int64(len(data))
		if c.corrupt == nil {
			rep.Files++
		}
	}
	return c.corrupt
}

// RepairReport summarises an offline Repair pass.
type RepairReport struct {
	// Quarantined lists files moved into corrupt/ (bare names).
	Quarantined []string `json:"quarantined,omitempty"`
	// After is the post-repair fsck of what remains.
	After *FsckReport `json:"after"`
}

// Repair is the offline arm of the quarantine story (systolicdb -op fsck
// -repair): every file Fsck reports as hard-corrupt is moved into the
// corrupt/ subdirectory so the directory recovers again, then Fsck is
// re-run on what remains. It is explicitly lossy — a corrupt live
// segment's acked records are abandoned in quarantine (recoverable by an
// operator, or by re-syncing from a replica); the alternative, a daemon
// that refuses to boot forever, loses them just as surely with the
// service down.
func Repair(dir string, decode DecodeFunc) (*RepairReport, error) {
	rep, err := Fsck(dir, decode)
	if err != nil {
		return nil, err
	}
	out := &RepairReport{}
	for _, group := range [][]FileReport{rep.Snapshots, rep.Segments} {
		for _, fr := range group {
			if fr.Err == "" {
				continue
			}
			if err := quarantineFile(diskchaos.OS, dir, fr.Name); err != nil {
				return nil, fmt.Errorf("wal: repair: %w", err)
			}
			out.Quarantined = append(out.Quarantined, fr.Name)
		}
	}
	sort.Strings(out.Quarantined)
	if out.After, err = Fsck(dir, decode); err != nil {
		return nil, err
	}
	return out, nil
}
