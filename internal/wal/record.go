package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"systolicdb/internal/fault"
	"systolicdb/internal/relation"
)

// On-disk framing: every record — in log segments and in snapshot files
// alike — is a length- and CRC32-prefixed frame:
//
//	[4 bytes little-endian payload length]
//	[4 bytes little-endian IEEE CRC32 of the payload]
//	[payload]
//
// The length lets the reader walk frame to frame; the CRC catches both
// torn writes (a frame cut short by a crash) and at-rest corruption (a
// flipped bit). Because appends only ever extend a file, a prefix of a
// valid frame carries a valid length field, which is what lets recovery
// tell a torn tail (truncate and continue) from mid-file corruption
// (refuse and demand an fsck).
const (
	frameHeaderSize = 8
	// maxRecordBytes is a sanity cap on a single record; a length beyond
	// it is corruption, not a big relation (the server caps bodies far
	// lower).
	maxRecordBytes = 1 << 30
)

// Record payloads are line-oriented text. The first line is the header:
//
//	put <seq> <quoted-name> <cardinality> <parity-hex> [<quoted-key>]
//	del <seq> <quoted-name> [<quoted-key>]
//	snap <gen> <relations> [<seq>]
//	commit <gen> <relations>
//
// A put header is followed by the relation serialised with
// relation.FormatTableTypes (a `#% types:` directive plus the text-table
// format), so the schema's column domains survive the round trip. The
// cardinality and parity fields are the relation's fault.RelationChecksum
// at append time; recovery recomputes and compares them, so a relation
// that decodes cleanly but differs from what was logged is still caught.
//
// The trailing quoted key, when present, is the mutation's idempotency
// key: the coordinator stamps one key per logical write and reuses it
// across retries and across the primary/replica dual write, so a retried
// ack replayed through the log can be recognised and dropped instead of
// applied twice. Records written before keys existed simply omit the
// field; the decoder accepts both forms.
//
// The snapshot header's trailing seq is the log's sequence number when
// the snapshot was written, so Seq survives a compacting restart. Headers
// written before it existed omit it and read as 0; a decoder that
// predates it cannot read the three-field form.
const (
	opPut    = "put"
	opDel    = "del"
	opSnap   = "snap"   // snapshot file header
	opCommit = "commit" // snapshot file footer; a snapshot without one is invalid
)

// record is one decoded payload.
type record struct {
	op    string
	seq   uint64 // mutation sequence (put/del); the log's seq when written (snap; 0 if absent)
	gen   uint64 // snap/commit only: the snapshot's generation
	name  string
	key   string // put/del only: idempotency key, "" when absent
	sum   fault.Checksum
	table string // put only: serialised relation
	rels  int    // snap/commit only: relation count
}

// frame wraps a payload in the on-disk framing.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderSize:], payload)
	return buf
}

// encodePut serialises one catalog put. key, when non-empty, is the
// mutation's idempotency key.
func encodePut(seq uint64, name, key string, rel *relation.Relation) ([]byte, error) {
	sum, err := fault.RelationChecksum(rel)
	if err != nil {
		return nil, fmt.Errorf("wal: relation %q: %w", name, err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d %s %d %016x", opPut, seq, strconv.Quote(name), sum.Count, sum.Parity)
	if key != "" {
		fmt.Fprintf(&sb, " %s", strconv.Quote(key))
	}
	sb.WriteByte('\n')
	if err := relation.FormatTableTypes(&sb, rel); err != nil {
		return nil, fmt.Errorf("wal: serialising relation %q: %w", name, err)
	}
	return []byte(sb.String()), nil
}

// encodeDelete serialises one catalog delete.
func encodeDelete(seq uint64, name, key string) []byte {
	if key != "" {
		return []byte(fmt.Sprintf("%s %d %s %s\n", opDel, seq, strconv.Quote(name), strconv.Quote(key)))
	}
	return []byte(fmt.Sprintf("%s %d %s\n", opDel, seq, strconv.Quote(name)))
}

// encodeHeader serialises a snapshot header; seq is the log's sequence
// number when the snapshot was written.
func encodeHeader(gen uint64, rels int, seq uint64) []byte {
	return fmt.Appendf(nil, "%s %d %d %d\n", opSnap, gen, rels, seq)
}

// encodeFooter serialises a snapshot's commit footer.
func encodeFooter(gen uint64, rels int) []byte {
	return fmt.Appendf(nil, "%s %d %d\n", opCommit, gen, rels)
}

// decodeRecord parses one payload back into a record.
func decodeRecord(payload []byte) (*record, error) {
	head, rest, _ := strings.Cut(string(payload), "\n")
	op, args, _ := strings.Cut(head, " ")
	r := &record{op: op}
	var err error
	switch op {
	case opPut:
		var seqs, counts, paritys string
		if seqs, args, err = nextField(args); err == nil {
			r.name, args, err = nextQuoted(args)
		}
		if err == nil {
			counts, args, err = nextField(args)
		}
		if err == nil {
			paritys, args, err = nextField(args)
		}
		if err == nil {
			r.key, err = optionalKey(args)
		}
		if err != nil {
			return nil, fmt.Errorf("wal: bad put header %q: %w", head, err)
		}
		if r.seq, err = strconv.ParseUint(seqs, 10, 64); err != nil {
			return nil, fmt.Errorf("wal: bad put seq %q", seqs)
		}
		if r.sum.Count, err = strconv.Atoi(counts); err != nil {
			return nil, fmt.Errorf("wal: bad put cardinality %q", counts)
		}
		if r.sum.Parity, err = strconv.ParseUint(strings.TrimSpace(paritys), 16, 64); err != nil {
			return nil, fmt.Errorf("wal: bad put parity %q", paritys)
		}
		r.table = rest
	case opDel:
		var seqs string
		if seqs, args, err = nextField(args); err == nil {
			r.name, args, err = nextQuoted(args)
		}
		if err == nil {
			r.key, err = optionalKey(args)
		}
		if err != nil {
			return nil, fmt.Errorf("wal: bad del header %q: %w", head, err)
		}
		if r.seq, err = strconv.ParseUint(seqs, 10, 64); err != nil {
			return nil, fmt.Errorf("wal: bad del seq %q", seqs)
		}
	case opSnap, opCommit:
		fields := strings.Fields(args)
		if len(fields) != 2 && (len(fields) != 3 || op != opSnap) {
			return nil, fmt.Errorf("wal: bad %s header %q", op, head)
		}
		if r.gen, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("wal: bad %s generation %q", op, fields[0])
		}
		if r.rels, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("wal: bad %s relation count %q", op, fields[1])
		}
		if len(fields) == 3 {
			if r.seq, err = strconv.ParseUint(fields[2], 10, 64); err != nil {
				return nil, fmt.Errorf("wal: bad snap seq %q", fields[2])
			}
		}
	default:
		return nil, fmt.Errorf("wal: unknown record op %q", op)
	}
	return r, nil
}

// nextField splits the first space-separated field off args.
func nextField(args string) (field, rest string, err error) {
	field, rest, _ = strings.Cut(args, " ")
	if field == "" {
		return "", "", fmt.Errorf("missing field")
	}
	return field, rest, nil
}

// optionalKey parses the trailing idempotency key field, absent in
// records written before keys existed.
func optionalKey(args string) (string, error) {
	args = strings.TrimSpace(args)
	if args == "" {
		return "", nil
	}
	key, rest, err := nextQuoted(args)
	if err != nil {
		return "", err
	}
	if strings.TrimSpace(rest) != "" {
		return "", fmt.Errorf("trailing data %q after idempotency key", rest)
	}
	return key, nil
}

// nextQuoted splits a Go-quoted string off the front of args.
func nextQuoted(args string) (name, rest string, err error) {
	prefix, err := strconv.QuotedPrefix(args)
	if err != nil {
		return "", "", fmt.Errorf("bad quoted name in %q", args)
	}
	name, err = strconv.Unquote(prefix)
	if err != nil {
		return "", "", err
	}
	return name, strings.TrimPrefix(args[len(prefix):], " "), nil
}

// frameResult describes why a frame scan stopped early.
type frameResult struct {
	// good is the byte offset just past the last fully valid frame.
	good int64
	// torn is the number of trailing bytes that do not form a complete
	// valid frame but are consistent with a write cut short by a crash
	// (an incomplete frame, or a corrupt *final* frame, or zero fill).
	// Zero when the file ends exactly on a frame boundary.
	torn int64
	// corrupt, when non-nil, describes a frame that cannot be explained
	// by a torn tail: a CRC mismatch or implausible length with more data
	// following it.
	corrupt error
}

// scanFrames walks data frame by frame, calling fn for each valid
// payload. allowTorn selects tail handling: segments still being appended
// to may end in a torn frame (truncated on recovery); sealed segments and
// snapshot files must not.
//
// The ambiguity this resolves: after SIGKILL the filesystem may persist
// any prefix of the final append — including, on some filesystems, the
// file-size update with zero-filled or garbage data pages. A failure whose
// damage extends to end-of-file is therefore attributed to a torn final
// write, unless a complete, CRC-valid frame of plausible length starts
// anywhere after the failing offset. The writer only appends, so a real
// torn tail holds at most one partial frame: a bad frame with an intact
// one after it (say, a length field flipped to run past end-of-file) is
// hard corruption, and recovery must not truncate the acked frames behind
// it.
func scanFrames(data []byte, allowTorn bool, fn func(off int64, payload []byte) error) frameResult {
	off := 0
	for off < len(data) {
		rem := len(data) - off
		if rem < frameHeaderSize {
			return tornOrCorrupt(data, off, allowTorn, fmt.Errorf("wal: %d-byte partial frame header at offset %d", rem, off))
		}
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxRecordBytes {
			if allowTorn && n == 0 && crc == 0 && allZero(data[off:]) {
				// Zero fill from a crashed append (or filesystem
				// preallocation): a torn tail, not corruption.
				return frameResult{good: int64(off), torn: int64(rem)}
			}
			// A garbage length that runs past end-of-file is likewise
			// explainable as a torn final write; one followed by more
			// data is not.
			torn := allowTorn && int64(n) > int64(rem-frameHeaderSize)
			return tornOrCorrupt(data, off, torn, fmt.Errorf("wal: implausible record length %d at offset %d", n, off))
		}
		if rem-frameHeaderSize < int(n) {
			return tornOrCorrupt(data, off, allowTorn, fmt.Errorf("wal: record at offset %d runs past end of file (%d of %d payload bytes)", off, rem-frameHeaderSize, n))
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			// A CRC mismatch on the final frame of an append-mode file is
			// indistinguishable from a torn write whose size update beat
			// its data pages; anywhere else it is corruption.
			last := off+frameHeaderSize+int(n) == len(data)
			return tornOrCorrupt(data, off, allowTorn && last, fmt.Errorf("wal: record at offset %d: CRC mismatch", off))
		}
		if err := fn(int64(off), payload); err != nil {
			return frameResult{good: int64(off), corrupt: err}
		}
		off += frameHeaderSize + int(n)
	}
	return frameResult{good: int64(off)}
}

// tornOrCorrupt classifies the frame that failed at off. A tail that looks
// torn is corruption after all when a valid frame starts behind it.
func tornOrCorrupt(data []byte, off int, torn bool, err error) frameResult {
	if !torn {
		return frameResult{good: int64(off), corrupt: err}
	}
	if next := validFrameAfter(data, off); next >= 0 {
		return frameResult{good: int64(off), corrupt: fmt.Errorf("%w; a valid frame follows at offset %d", err, next)}
	}
	return frameResult{good: int64(off), torn: int64(len(data) - off)}
}

// validFrameAfter returns the first offset after off at which a complete
// frame with a plausible length and a matching CRC starts, or -1.
func validFrameAfter(data []byte, off int) int {
	for p := off + 1; p+frameHeaderSize <= len(data); p++ {
		n := binary.LittleEndian.Uint32(data[p:])
		if n == 0 || n > maxRecordBytes || int64(n) > int64(len(data)-p-frameHeaderSize) {
			continue
		}
		if crc32.ChecksumIEEE(data[p+frameHeaderSize:p+frameHeaderSize+int(n)]) == binary.LittleEndian.Uint32(data[p+4:]) {
			return p
		}
	}
	return -1
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
