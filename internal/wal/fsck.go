package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"systolicdb/internal/diskchaos"
	"systolicdb/internal/relation"
)

// FileReport is the fsck result for one file in the data directory.
type FileReport struct {
	Name    string `json:"name"`
	Bytes   int64  `json:"bytes"`
	Records int    `json:"records"`
	// TornBytes is a trailing region that does not form a complete valid
	// record but is consistent with a crash-torn final write. Benign:
	// recovery truncates it. Only ever non-zero on the newest segment.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// Stale marks a file wholly superseded by the newest snapshot.
	Stale bool `json:"stale,omitempty"`
	// CoveredBytes counts the bytes of this file inside CRC-verified
	// frames — the scrubber-style coverage measure. Bytes-CoveredBytes is
	// framing residue: a torn tail or a corrupt region.
	CoveredBytes int64 `json:"covered_bytes"`
	// Err describes hard corruption in this file, empty when clean.
	Err string `json:"error,omitempty"`
}

// Coverage is CoveredBytes as a fraction of the file size (1 for an
// empty file: nothing is uncovered).
func (fr *FileReport) Coverage() float64 {
	if fr.Bytes == 0 {
		return 1
	}
	return float64(fr.CoveredBytes) / float64(fr.Bytes)
}

// FsckReport is the result of validating a data directory offline.
type FsckReport struct {
	Dir       string       `json:"dir"`
	Snapshots []FileReport `json:"snapshots"`
	Segments  []FileReport `json:"segments"`
	Relations int          `json:"relations"` // recovered catalog size
	Records   int          `json:"records"`   // replayed from live segments
	Verified  int          `json:"relations_verified"`
	// KeyedRecords counts live mutations carrying an idempotency key. A
	// key appearing on two live records means a retried write was applied
	// twice — the dedup window failed — and is reported as an error.
	KeyedRecords int      `json:"keyed_records,omitempty"`
	Errors       []string `json:"errors,omitempty"`
}

// OK reports whether the directory is clean: no live file breaks the rule
// book (exactly the condition under which Open recovers it) and no
// idempotency key was applied twice, an anomaly recovery itself accepts.
func (r *FsckReport) OK() bool { return len(r.Errors) == 0 }

// Fsck validates a WAL data directory without modifying it. It lists and
// checks files exactly as Open does (DESIGN.md §6, "The WAL rule book"),
// verifying every put of the live files, and also checks stale files and
// idempotency keys across live segments. Unlike Open it keeps scanning
// after the first problem, so the report names every damaged file; a live
// file with an Err is what makes Open refuse. The error return is for I/O
// failure only; validation problems land in the report.
func Fsck(dir string, decode DecodeFunc) (*FsckReport, error) {
	if decode == nil {
		return nil, fmt.Errorf("wal: fsck needs a decode function")
	}
	files, _, err := listFiles(diskchaos.OS, dir)
	if err != nil {
		return nil, fmt.Errorf("wal: fsck: %w", err)
	}
	rep := &FsckReport{Dir: dir}
	catalog := make(map[string]bool)    // names recovery would hold
	seenKeys := make(map[string]string) // key -> first location
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			return nil, fmt.Errorf("wal: fsck: %w", err)
		}
		verify := decode
		if !f.live {
			verify = nil // stale files are checked, never replayed
		}
		c := checkFile(f, data, f.tail, verify, func(off int64, rec *record, _ *relation.Relation) {
			if !f.live || rec.op == opSnap || rec.op == opCommit {
				return
			}
			if rec.op == opPut {
				catalog[rec.name] = true
				rep.Verified++
			} else {
				delete(catalog, rec.name)
			}
			if f.snap {
				return
			}
			rep.Records++
			if rec.key == "" {
				return
			}
			// A duplicate key is a logical anomaly (the dedup window
			// failed), not physical log corruption: it goes to rep.Errors
			// and the scan continues, so further duplicates and checksum
			// problems later in the segment still get reported.
			rep.KeyedRecords++
			where := fmt.Sprintf("%s offset %d", f.name, off)
			if first, dup := seenKeys[rec.key]; dup {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: idempotency key %q already applied at %s (retried write committed twice)", where, rec.key, first))
				return
			}
			seenKeys[rec.key] = where
		})
		fr := FileReport{Name: f.name, Bytes: int64(len(data)), Records: c.records,
			TornBytes: c.torn, Stale: !f.live, CoveredBytes: c.covered}
		if c.corrupt != nil {
			fr.Err = c.corrupt.Error()
			if f.live {
				rep.Errors = append(rep.Errors, fr.Err)
			}
		}
		if f.snap {
			rep.Snapshots = append(rep.Snapshots, fr)
		} else {
			rep.Segments = append(rep.Segments, fr)
		}
	}
	rep.Relations = len(catalog)
	sort.Strings(rep.Errors)
	return rep, nil
}
