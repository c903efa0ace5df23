// Package lptdisk models a "logic-per-track" disk — reference [8] of Kung &
// Lehman (1980), Slotnick's Logic per Track Devices — which §9 incorporates
// into the integrated system: "Disks with 'logic-per-track' capabilities
// can of course be incorporated into the system, so that some simple
// queries never have to be processed outside the disks."
//
// The model: a relation is spread across the tracks of a cylinder; every
// track has a comparator head that evaluates a simple selection predicate
// against each tuple as it rotates past. Because all heads search in
// parallel, a full selection scan of the cylinder costs one revolution
// regardless of how many tracks it spans — the defining property of the
// architecture, and the reason §9 says simple queries "never have to be
// processed outside the disks".
package lptdisk

import (
	"fmt"
	"time"

	"systolicdb/internal/perf"
	"systolicdb/internal/relation"
)

// Stats describes the cost of one logic-per-track operation.
type Stats struct {
	Revolutions   int           // full disk revolutions consumed
	TracksScanned int           // tracks whose heads were active
	TuplesScanned int           // tuples that rotated past an active head
	TuplesMatched int           // tuples the heads emitted
	Time          time.Duration // modeled wall-clock time
}

// Disk is a cylinder of tracks with per-track selection logic.
type Disk struct {
	tracks int
	timing perf.Disk

	schema *relation.Relation // nil until a relation is stored; holds schema via relation
	data   [][]relation.Tuple // one slice per track
}

// New builds a logic-per-track disk with the given track count and
// rotational timing (use perf.Disk1980 for the paper's disk).
func New(tracks int, timing perf.Disk) (*Disk, error) {
	if tracks <= 0 {
		return nil, fmt.Errorf("lptdisk: track count %d must be positive", tracks)
	}
	return &Disk{tracks: tracks, timing: timing, data: make([][]relation.Tuple, tracks)}, nil
}

// Store lays a relation out across the tracks round-robin, replacing any
// previous contents.
func (d *Disk) Store(r *relation.Relation) error {
	if r == nil {
		return fmt.Errorf("lptdisk: nil relation")
	}
	d.data = make([][]relation.Tuple, d.tracks)
	for i := 0; i < r.Cardinality(); i++ {
		t := i % d.tracks
		d.data[t] = append(d.data[t], r.Tuple(i).Clone())
	}
	d.schema = r
	return nil
}

// Select evaluates the query with every track head in parallel during one
// revolution and returns the matching tuples. The modeled time is exactly
// one revolution — independent of relation size — which is the §9 point.
func (d *Disk) Select(q relation.Query) (*relation.Relation, Stats, error) {
	if d.schema == nil {
		return nil, Stats{}, fmt.Errorf("lptdisk: no relation stored")
	}
	if err := q.Validate(d.schema.Schema()); err != nil {
		return nil, Stats{}, err
	}
	out, err := relation.NewRelation(d.schema.Schema(), nil)
	if err != nil {
		return nil, Stats{}, err
	}
	st := Stats{Revolutions: 1, Time: d.timing.RevolutionTime()}
	// Heads emit matches in rotational order: position p of every track
	// passes the heads simultaneously, so interleave by position to keep
	// the model's output order physical.
	maxLen := 0
	for _, tr := range d.data {
		if len(tr) > maxLen {
			maxLen = len(tr)
		}
		if len(tr) > 0 {
			st.TracksScanned++
		}
	}
	for pos := 0; pos < maxLen; pos++ {
		for _, tr := range d.data {
			if pos >= len(tr) {
				continue
			}
			st.TuplesScanned++
			if q.Matches(tr[pos]) {
				st.TuplesMatched++
				if err := out.Append(tr[pos]); err != nil {
					return nil, Stats{}, err
				}
			}
		}
	}
	return out, st, nil
}
