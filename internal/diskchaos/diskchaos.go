// Package diskchaos completes the fault triad started by internal/fault
// (cells inside one systolic grid) and internal/netchaos (the crossbar
// between devices): it is a deterministic, seeded fault layer for the
// storage underneath the write-ahead log. The paper's §8/§9 transfer-rate
// arithmetic treats the disk that feeds the array as perfect; real disks
// lie about fsync, tear writes, run out of space, and rot at rest. This
// package makes those failures injectable so the WAL's recovery story can
// be proved instead of assumed.
//
// The injection point is a VFS seam: FS is the narrow filesystem surface
// the WAL performs all its I/O through, OS is the real implementation,
// and Chaos wraps any FS with spec-driven faults. Every decision (fail
// this write? how many bytes land? which bit flips?) is internal/chaos's
// seeded hash of a global operation ordinal, so a campaign replays exactly
// from its spec string.
//
// Specs are an internal/chaos grammar, like -fault's and -netchaos's:
//
//	seed=7,enospc=0.01,eio-write=0.005,shortwrite=0.02,fsync-lie=0.01,bitrot-read=0.001,slow=5ms
package diskchaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"systolicdb/internal/chaos"
)

// At pins one injection to an exact operation ordinal, regardless of
// probability — the property-test handle for "what if exactly this op
// fails?". The injection fires only if the kind applies to the op at that
// ordinal (a bitrot-read pinned onto a write is a no-op).
type At struct {
	Ordinal uint64
	Kind    string
}

// Spec describes one disk-chaos campaign. The zero value injects
// nothing; build specs with ParseSpec or fill fields and call Validate.
type Spec struct {
	// Seed makes the campaign reproducible: two filesystems built from the
	// same spec make identical decisions in operation order.
	Seed int64

	// ENOSPC is the probability a write or file creation fails with
	// "no space left on device" (nothing lands).
	ENOSPC float64

	// EIOWrite is the probability a write fails with an I/O error
	// (nothing lands).
	EIOWrite float64

	// ShortWrite is the probability only a prefix of a write persists.
	// The prefix really lands on the underlying filesystem and the call
	// returns io.ErrShortWrite — the torn-frame case recovery must truncate.
	ShortWrite float64

	// FsyncLie is the probability a Sync (file or directory) reports
	// success without syncing — the volatile-write-cache failure mode that
	// is invisible until power loss.
	FsyncLie float64

	// BitrotRead is the probability a whole-file read comes back with one
	// bit flipped (position chosen deterministically). The file at rest is
	// untouched: a re-read at a later ordinal sees clean bytes.
	BitrotRead float64

	// Slow delays every operation by this much (media stall analogue).
	Slow time.Duration

	// At pins injections to exact operation ordinals (repeatable).
	At []At
}

// grammar is the spec format, declared once: ParseSpec, Validate, String
// and SpecHelp all read this table, in this (canonical) order.
func (s *Spec) grammar() chaos.Grammar {
	return chaos.Grammar{Layer: "diskchaos", Fields: []chaos.Field{
		chaos.Seed(&s.Seed),
		chaos.Prob(KindENOSPC, &s.ENOSPC),
		chaos.Prob(KindEIOWrite, &s.EIOWrite),
		chaos.Prob(KindShortWrite, &s.ShortWrite),
		chaos.Prob(KindFsyncLie, &s.FsyncLie),
		chaos.Prob(KindBitrotRead, &s.BitrotRead),
		chaos.Dur(KindSlow, &s.Slow),
		{Key: "at", Usage: "ORD:KIND", Parse: s.parseAt, Check: s.checkAt, Render: s.renderAt},
	}}
}

// Validate checks the spec's fields.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("diskchaos: nil spec")
	}
	return s.grammar().Validate()
}

// String renders the spec in the grammar ParseSpec accepts (canonical
// form: fixed key order).
func (s *Spec) String() string { return s.grammar().String() }

// ParseSpec parses a disk-chaos spec of the form
//
//	key=value,key=value,...
//
// with keys
//
//	seed=<int>            determinism seed
//	enospc=<0..1>         write/create fails with ENOSPC, nothing lands
//	eio-write=<0..1>      write fails with EIO, nothing lands
//	shortwrite=<0..1>     a prefix of the write persists, io.ErrShortWrite
//	fsync-lie=<0..1>      fsync reports success without syncing
//	bitrot-read=<0..1>    a whole-file read has one bit flipped (at rest
//	                      the file is clean)
//	slow=<dur>            every operation stalls this long
//	at=<ordinal>:<kind>   pin <kind> to fire at exactly operation
//	                      <ordinal> (repeatable; for deterministic tests)
//
// Example: "seed=7,enospc=0.01,eio-write=0.005,shortwrite=0.02,fsync-lie=0.01,bitrot-read=0.001,slow=5ms".
func ParseSpec(spec string) (*Spec, error) {
	s := &Spec{}
	if err := s.grammar().Parse(spec); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseAt appends one "<ordinal>:<kind>" pin.
func (s *Spec) parseAt(val string) error {
	ord, kind, ok := strings.Cut(val, ":")
	if !ok {
		return fmt.Errorf("want <ordinal>:<kind>")
	}
	n, err := strconv.ParseUint(strings.TrimSpace(ord), 10, 64)
	if err != nil {
		return err
	}
	s.At = append(s.At, At{Ordinal: n, Kind: strings.TrimSpace(kind)})
	return nil
}

// checkAt rejects pins the filesystem could not honour. slow is not
// pinnable: a pinned stall has no observable effect worth testing. And one
// ordinal holds one pin: Chaos looks pins up by ordinal, so a second pin on
// the same operation would silently replace the first.
func (s *Spec) checkAt() error {
	pinnable := slices.DeleteFunc(Kinds(), func(k string) bool { return k == KindSlow })
	seen := make(map[uint64]bool, len(s.At))
	for _, a := range s.At {
		if !slices.Contains(pinnable, a.Kind) {
			return fmt.Errorf("%d:%s names no pinnable kind (want one of %s)",
				a.Ordinal, a.Kind, strings.Join(pinnable, " "))
		}
		if seen[a.Ordinal] {
			return fmt.Errorf("ordinal %d pinned twice", a.Ordinal)
		}
		seen[a.Ordinal] = true
	}
	return nil
}

func (s *Spec) renderAt() []string {
	var out []string
	for _, a := range s.At {
		out = append(out, strconv.FormatUint(a.Ordinal, 10)+":"+a.Kind)
	}
	return out
}

// Kinds of injection, for metrics and test accounting.
const (
	KindENOSPC     = "enospc"
	KindEIOWrite   = "eio-write"
	KindShortWrite = "shortwrite"
	KindFsyncLie   = "fsync-lie"
	KindBitrotRead = "bitrot-read"
	KindSlow       = "slow"
)

// Kinds lists every injection kind (sorted), for metric pre-registration.
func Kinds() []string {
	return []string{KindBitrotRead, KindEIOWrite, KindENOSPC, KindFsyncLie, KindShortWrite, KindSlow}
}

// SpecHelp is a one-line usage string for -diskchaos flags.
func SpecHelp() string {
	return "disk chaos spec: " + new(Spec).grammar().Usage() +
		", e.g. seed=7,enospc=0.01,shortwrite=0.02,fsync-lie=0.01"
}
