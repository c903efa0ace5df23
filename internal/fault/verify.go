// Result verification: the detection half of the fault layer. A grid run
// already self-checks completeness and positional alignment (the drivers
// error out when a result token is missing, duplicated or misplaced);
// verification adds a check on the result *values*, which those structural
// checks cannot see (a cleanly-delivered flipped bit).
package fault

import (
	"fmt"
	"strings"

	"systolicdb/internal/chaos"
	"systolicdb/internal/relation"
)

// VerifyMode selects how a tile's result is checked.
type VerifyMode int

// Verification modes, in increasing cost.
const (
	// VerifyNone trusts the driver's structural self-checks alone.
	VerifyNone VerifyMode = iota
	// VerifyChecksum compares the run's result checksum against a
	// host-computed reference checksum for the same tile — the "checksum
	// lane" done in software: the host XOR-folds what the array should
	// have emitted and the driver XOR-folds what it did emit.
	VerifyChecksum
	// VerifyDual runs the tile twice on independently built grids and
	// accepts only if both runs produce the same checksum — no host
	// reference needed, at double the array cost. Deterministic faults
	// (stuck-at a fixed cell) can defeat it; random transient faults
	// cannot, except by collision.
	VerifyDual
)

func (m VerifyMode) String() string {
	switch m {
	case VerifyNone:
		return "none"
	case VerifyChecksum:
		return "checksum"
	case VerifyDual:
		return "dual"
	}
	return fmt.Sprintf("verify(%d)", int(m))
}

// ParseVerifyMode resolves a verification mode name.
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch strings.TrimSpace(s) {
	case "", "none":
		return VerifyNone, nil
	case "checksum":
		return VerifyChecksum, nil
	case "dual":
		return VerifyDual, nil
	}
	return 0, fmt.Errorf("fault: unknown verify mode %q (valid: none, checksum, dual)", s)
}

// Checksum is an order-independent digest of a run's emitted result bits:
// the true-bit count (a cardinality invariant — a run that reports more
// matches than pairs is impossible) and an XOR fold of per-position hashes
// (the checksum lane). Equal results always have equal checksums; a single
// corrupted bit always changes Parity.
type Checksum struct {
	Count  int
	Parity uint64
}

// add folds one (position, value) result into the checksum.
func (c *Checksum) add(pos uint64, bit bool) {
	v := pos << 1
	if bit {
		v |= 1
		c.Count++
	}
	c.Parity ^= chaos.Mix64(v ^ 0x5bf03635)
}

// BoolChecksum digests a bit vector (accumulated t_i, division quotient
// bits).
func BoolChecksum(bits []bool) Checksum {
	var c Checksum
	for i, b := range bits {
		c.add(uint64(i), b)
	}
	return c
}

// MatrixChecksum digests a bit matrix (the comparison/join matrix T).
func MatrixChecksum(bits [][]bool) Checksum {
	var c Checksum
	for i, row := range bits {
		for j, b := range row {
			c.add(uint64(i)<<24^uint64(j), b)
		}
	}
	return c
}

// RelationChecksum digests a whole relation the same way the tile
// checksums digest a grid run: Count is the cardinality invariant and
// Parity an order-independent XOR fold of per-tuple hashes. Two relations
// with the same multiset of tuples always agree; a single corrupted
// value always changes Parity. The fold is over the *decoded* field
// values (Relation.DecodeTuple), not the integer encodings — dictionary
// codes depend on intern order, so only the decoded view is stable across
// processes. The durable catalog stores this alongside every logged
// relation and re-verifies it at recovery, reusing Verify.
func RelationChecksum(r *relation.Relation) (Checksum, error) {
	c := Checksum{Count: r.Cardinality()}
	for i := 0; i < r.Cardinality(); i++ {
		fields, err := r.DecodeTuple(i)
		if err != nil {
			return Checksum{}, fmt.Errorf("fault: checksumming tuple %d: %w", i, err)
		}
		h := uint64(chaos.Gamma)
		for _, f := range fields {
			// Mix in the length so field boundaries are unambiguous
			// (["ab","c"] and ["a","bc"] must not collide).
			h = chaos.Mix64(h ^ uint64(len(f)))
			for _, b := range []byte(f) {
				h = chaos.Mix64(h ^ uint64(b))
			}
		}
		c.Parity ^= h
	}
	return c, nil
}

// Verdict is the outcome of verifying one grid run.
type Verdict struct {
	OK     bool
	Mode   VerifyMode
	Reason string // human-readable failure cause when !OK
}

// Verify compares a run checksum against its reference.
func Verify(mode VerifyMode, got, want Checksum) Verdict {
	if mode == VerifyNone || got == want {
		return Verdict{OK: true, Mode: mode}
	}
	reason := fmt.Sprintf("checksum mismatch (got %d/%#x, want %d/%#x)",
		got.Count, got.Parity, want.Count, want.Parity)
	if got.Count != want.Count {
		reason = fmt.Sprintf("cardinality mismatch (got %d true bits, want %d)", got.Count, want.Count)
	}
	return Verdict{OK: false, Mode: mode, Reason: reason}
}
