package wal

import (
	"bytes"
	"errors"
	"fmt"

	"systolicdb/internal/diskchaos"
	"systolicdb/internal/fault"
	"systolicdb/internal/relation"
)

// One walk for every reader of a data directory. Recovery (Open), Fsck,
// Scrub and log shipping (ReadSince) list files with listFiles and read
// each one through checkFile, so they agree on which files are live and
// on what a file may hold. The rule book checkFile enforces, and what each
// reader does with a violation, is tabled once in DESIGN.md §6 ("The WAL
// rule book").

// dataFile is one snapshot or log segment in a data directory.
type dataFile struct {
	name string
	gen  uint64
	snap bool // a snapshot; otherwise a log segment
	live bool // the newest snapshot, or a segment at or after its generation
	tail bool // the newest segment: the only file that may end torn
}

// listFiles lists dir's snapshots and then its segments, each in
// generation order. base is the newest snapshot's generation (0 = none):
// the recovery base, which supersedes every older file.
func listFiles(fsys diskchaos.FS, dir string) (files []dataFile, base uint64, err error) {
	snaps, err := listGens(fsys, dir, "snap-", ".snap")
	if err != nil {
		return nil, 0, err
	}
	segs, err := listGens(fsys, dir, "wal-", ".log")
	if err != nil {
		return nil, 0, err
	}
	if n := len(snaps); n > 0 {
		base = snaps[n-1]
	}
	for _, gen := range snaps {
		files = append(files, dataFile{name: snapName(gen), gen: gen, snap: true, live: gen == base})
	}
	for i, gen := range segs {
		files = append(files, dataFile{name: segName(gen), gen: gen, live: gen >= base, tail: i == len(segs)-1})
	}
	return files, base, nil
}

// checked is what checkFile found in one file.
type checked struct {
	frameResult // where the walk stopped; corrupt also carries rule violations

	records int    // records decoded
	covered int64  // bytes inside CRC-verified, decodable frames
	seq     uint64 // highest seq the file vouches for (a snapshot's header seq)
}

// checkFile walks one file's bytes under the rule book:
//
//   - every frame passes its CRC; a torn final frame is allowed only when
//     torn is set;
//   - a snapshot is exactly one header naming its own generation, then
//     puts, then one footer whose counts match the puts;
//   - a segment holds only put and del records, seq strictly increasing.
//
// With decode non-nil every put is rebuilt and checked by verifyPut. fn,
// when non-nil, sees each record that passed, in file order, with its
// relation when one was decoded. The first violation stops the walk and
// is returned in corrupt.
func checkFile(f dataFile, data []byte, torn bool, decode DecodeFunc, fn func(off int64, rec *record, rel *relation.Relation)) checked {
	var c checked
	var head, foot *record
	puts := 0
	c.frameResult = scanFrames(data, torn, func(off int64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("%s offset %d: %w", f.name, off, err)
		}
		c.records++
		c.covered += frameHeaderSize + int64(len(payload))
		var bad string
		switch {
		case !f.snap:
			if rec.op != opPut && rec.op != opDel {
				bad = fmt.Sprintf("unexpected %q record in log segment", rec.op)
			} else if rec.seq <= c.seq {
				bad = fmt.Sprintf("record sequence %d not after %d", rec.seq, c.seq)
			}
			c.seq = rec.seq
		case foot != nil:
			bad = fmt.Sprintf("%q record after the commit footer", rec.op)
		case head == nil:
			if rec.op != opSnap {
				bad = fmt.Sprintf("%q record before the snapshot header", rec.op)
			} else if rec.gen != f.gen {
				bad = fmt.Sprintf("header names generation %d", rec.gen)
			}
			head, c.seq = rec, rec.seq
		case rec.op == opPut:
			puts++
		case rec.op == opCommit:
			if rec.gen != f.gen || rec.rels != puts || head.rels != puts {
				bad = fmt.Sprintf("header/footer count %d/%d relations (footer generation %d), file holds %d",
					head.rels, rec.rels, rec.gen, puts)
			}
			foot = rec
		default:
			bad = fmt.Sprintf("unexpected %q record in snapshot body", rec.op)
		}
		if bad != "" {
			return fmt.Errorf("%s offset %d: %s", f.name, off, bad)
		}
		var rel *relation.Relation
		if rec.op == opPut && decode != nil {
			if rel, err = verifyPut(decode, rec); err != nil {
				return fmt.Errorf("%s offset %d: %w", f.name, off, err)
			}
		}
		if fn != nil {
			fn(off, rec, rel)
		}
		return nil
	})
	if f.snap && c.corrupt == nil && foot == nil {
		c.corrupt = fmt.Errorf("%s: missing commit footer; snapshots must be complete (atomic rename)", f.name)
	}
	return c
}

// errChecksum marks a put whose relation decodes but differs from what
// was logged.
var errChecksum = errors.New("fails checksum verification")

// verifyPut is the one put verifier: rebuild the relation and check it
// against the logged cardinality and fault.RelationChecksum through
// fault.Verify, the machinery that checks tile results.
func verifyPut(decode DecodeFunc, rec *record) (*relation.Relation, error) {
	rel, err := decode(rec.table)
	if err != nil {
		return nil, fmt.Errorf("relation %q does not decode: %w", rec.name, err)
	}
	sum, err := fault.RelationChecksum(rel)
	if err != nil {
		return nil, fmt.Errorf("relation %q: %w", rec.name, err)
	}
	if v := fault.Verify(fault.VerifyChecksum, sum, rec.sum); !v.OK {
		return nil, fmt.Errorf("relation %q %w: %s", rec.name, errChecksum, v.Reason)
	}
	return rel, nil
}

// readConfirmed reads a whole file through the seam. When the frame-level
// scan of the content would drive a destructive or refusing decision — a
// torn tail recovery truncates, a corrupt frame recovery refuses on — the
// read is repeated until two consecutive reads agree: a fault in the read
// path (bit rot in transit, not at rest) must never truncate an acked
// record or refuse an otherwise recoverable directory. At-rest damage
// reads back identically every time and is acted on.
func readConfirmed(fsys diskchaos.FS, path string, allowTorn bool) ([]byte, error) {
	nop := func(int64, []byte) error { return nil }
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if res := scanFrames(data, allowTorn, nop); res.corrupt == nil && res.torn == 0 {
		return data, nil
	}
	for attempt := 0; attempt < 3; attempt++ {
		again, err := fsys.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if bytes.Equal(again, data) {
			return data, nil // stable: the damage is at rest
		}
		data = again
		if res := scanFrames(data, allowTorn, nop); res.corrupt == nil && res.torn == 0 {
			return data, nil // the re-read is clean: the fault was in transit
		}
	}
	return data, nil // reads never stabilised; act on the last and let fsck report
}
