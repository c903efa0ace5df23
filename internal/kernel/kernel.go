// Package kernel defines the relational operators once and realises them on
// the repository's three back ends. The paper's argument (§2, §9) is that
// one kind of cell, replicated, computes every operator, and that the
// devices on the crossbar are interchangeable; the code mirrors that: the
// host executor, the §9 machine, the CLI and the benchmarks each dispatch
// on the operator once and call through a Kernel, and which back end runs
// is a value they were handed, not a second copy of the dispatch.
//
//   - Pulse runs each operator on its whole-relation systolic array
//     (intersect, dedup, join, division), cost in simulated pulses.
//   - Tiled runs it through a decompose.Tiler: tiles of a fixed-size device
//     (§8), each optionally wrapped by a fault.Runner; cost in pulses, per
//     tile.
//   - Bitset runs it word-parallel (internal/bitset), cost in uint64 word
//     operations.
//
// All three return tuple-identical relations; the differential suites in
// internal/bitset, internal/query and internal/machine hold them to it.
package kernel

import (
	"systolicdb/internal/bitset"
	"systolicdb/internal/decompose"
	"systolicdb/internal/dedup"
	"systolicdb/internal/division"
	"systolicdb/internal/intersect"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
)

// Cost is what one operator run cost on the back end that ran it.
type Cost struct {
	Units   int   // simulated pulses (Pulse, Tiled) or word operations (Bitset)
	Tiles   int   // array runs the operator was decomposed into (1 unless Tiled)
	PerTile []int // Units of each tile, which a scheduler with several devices spreads over them
}

// one is the cost of an operator that ran as a single undivided array run.
func one(units int) Cost { return Cost{Units: units, Tiles: 1, PerTile: []int{units}} }

// Kernel is the operator table: the seven relational operators of the
// plan algebra, each from its input relations to a result and its cost.
type Kernel interface {
	Intersect(a, b *relation.Relation) (*relation.Relation, Cost, error)
	Difference(a, b *relation.Relation) (*relation.Relation, Cost, error)
	Union(a, b *relation.Relation) (*relation.Relation, Cost, error)
	Dedup(a *relation.Relation) (*relation.Relation, Cost, error)
	Project(a *relation.Relation, cols []int) (*relation.Relation, Cost, error)
	Join(a, b *relation.Relation, spec join.Spec) (*relation.Relation, Cost, error)
	Divide(a, b *relation.Relation, aQuot, aDiv, bCols []int) (*relation.Relation, Cost, error)
}

// Pulse is the cycle-faithful back end: every operator runs cell by cell
// on an array as large as its operands.
type Pulse struct{}

func pulseSet(res *intersect.Result, err error) (*relation.Relation, Cost, error) {
	if err != nil {
		return nil, Cost{}, err
	}
	return res.Rel, one(res.Stats.Pulses), nil
}

func pulseDedup(res *dedup.Result, err error) (*relation.Relation, Cost, error) {
	if err != nil {
		return nil, Cost{}, err
	}
	return res.Rel, one(res.Stats.Pulses), nil
}

func (Pulse) Intersect(a, b *relation.Relation) (*relation.Relation, Cost, error) {
	return pulseSet(intersect.Intersection(a, b))
}

func (Pulse) Difference(a, b *relation.Relation) (*relation.Relation, Cost, error) {
	return pulseSet(intersect.Difference(a, b))
}

func (Pulse) Union(a, b *relation.Relation) (*relation.Relation, Cost, error) {
	return pulseDedup(dedup.Union(a, b))
}

func (Pulse) Dedup(a *relation.Relation) (*relation.Relation, Cost, error) {
	return pulseDedup(dedup.RemoveDuplicates(a))
}

func (Pulse) Project(a *relation.Relation, cols []int) (*relation.Relation, Cost, error) {
	return pulseDedup(dedup.Project(a, cols))
}

func (Pulse) Join(a, b *relation.Relation, spec join.Spec) (*relation.Relation, Cost, error) {
	res, err := join.Join(a, b, spec)
	if err != nil {
		return nil, Cost{}, err
	}
	return res.Rel, one(res.Stats.Pulses), nil
}

// Divide charges the division array's pulses only; the remove-duplicates
// run that identifies the distinct x values is reported apart by
// division.Result.Dedup and has never been part of the node's cost here
// (Tiled.Divide, the machine's account, does include it).
func (Pulse) Divide(a, b *relation.Relation, aQuot, aDiv, bCols []int) (*relation.Relation, Cost, error) {
	res, err := division.Divide(a, b, aQuot, aDiv, bCols)
	if err != nil {
		return nil, Cost{}, err
	}
	return res.Rel, one(res.Stats.Pulses), nil
}

// Tiled is the pulse back end on a fixed-size device: operands larger than
// Tiler.Size are decomposed into tiles (§8) that run one after another,
// each through Tiler.Runner when the fault layer is on.
type Tiled struct{ Tiler decompose.Tiler }

func tiled(rel *relation.Relation, st decompose.Stats, err error) (*relation.Relation, Cost, error) {
	if err != nil {
		return nil, Cost{}, err
	}
	return rel, Cost{Units: st.Pulses, Tiles: st.Tiles, PerTile: st.PerTilePulses}, nil
}

func (t Tiled) Intersect(a, b *relation.Relation) (*relation.Relation, Cost, error) {
	return tiled(t.Tiler.Intersection(a, b))
}

func (t Tiled) Difference(a, b *relation.Relation) (*relation.Relation, Cost, error) {
	return tiled(t.Tiler.Difference(a, b))
}

func (t Tiled) Union(a, b *relation.Relation) (*relation.Relation, Cost, error) {
	cat, err := a.Concat(b)
	if err != nil {
		return nil, Cost{}, err
	}
	return tiled(t.Tiler.RemoveDuplicates(cat))
}

func (t Tiled) Dedup(a *relation.Relation) (*relation.Relation, Cost, error) {
	return tiled(t.Tiler.RemoveDuplicates(a))
}

func (t Tiled) Project(a *relation.Relation, cols []int) (*relation.Relation, Cost, error) {
	multi, err := a.ProjectColumns(cols)
	if err != nil {
		return nil, Cost{}, err
	}
	return tiled(t.Tiler.RemoveDuplicates(multi))
}

func (t Tiled) Join(a, b *relation.Relation, spec join.Spec) (*relation.Relation, Cost, error) {
	if err := spec.Validate(a, b); err != nil {
		return nil, Cost{}, err
	}
	tm, st, err := t.Tiler.T(join.Keys(a, spec.ACols), join.Keys(b, spec.BCols), spec.Ops, nil)
	if err != nil {
		return nil, Cost{}, err
	}
	rel, _, err := join.Materialize(a, b, spec, tm)
	return tiled(rel, st, err)
}

func (t Tiled) Divide(a, b *relation.Relation, aQuot, aDiv, bCols []int) (*relation.Relation, Cost, error) {
	p, err := division.Prepare(a, b, aQuot, aDiv, bCols)
	if err != nil {
		return nil, Cost{}, err
	}
	bits, st, err := t.Tiler.Division(p.Pairs, p.Xs, p.Divisor)
	if err != nil {
		return nil, Cost{}, err
	}
	rel, err := p.Materialize(bits)
	st.Pulses += p.Dedup.Pulses // the device also ran the distinct-x identification
	return tiled(rel, st, err)
}

// Bitset is the word-parallel back end. Tiling does not apply — the engine
// indexes a whole operand in memory linear in its size and touches only
// the nonzero words of each row of T — so every operator is one tile whose
// cost is its word-operation count (one word op evaluates up to
// bitset.Lanes lanes of T, the back end's analogue of a pulse).
type Bitset struct{}

func bitsSet(res *bitset.Result, err error) (*relation.Relation, Cost, error) {
	if err != nil {
		return nil, Cost{}, err
	}
	return res.Rel, one(res.Stats.WordOps), nil
}

func (Bitset) Intersect(a, b *relation.Relation) (*relation.Relation, Cost, error) {
	return bitsSet(bitset.Intersection(a, b))
}

func (Bitset) Difference(a, b *relation.Relation) (*relation.Relation, Cost, error) {
	return bitsSet(bitset.Difference(a, b))
}

func (Bitset) Union(a, b *relation.Relation) (*relation.Relation, Cost, error) {
	return bitsSet(bitset.Union(a, b))
}

func (Bitset) Dedup(a *relation.Relation) (*relation.Relation, Cost, error) {
	return bitsSet(bitset.RemoveDuplicates(a))
}

func (Bitset) Project(a *relation.Relation, cols []int) (*relation.Relation, Cost, error) {
	return bitsSet(bitset.Project(a, cols))
}

func (Bitset) Join(a, b *relation.Relation, spec join.Spec) (*relation.Relation, Cost, error) {
	res, err := bitset.Join(a, b, spec)
	if err != nil {
		return nil, Cost{}, err
	}
	return res.Rel, one(res.Stats.WordOps), nil
}

func (Bitset) Divide(a, b *relation.Relation, aQuot, aDiv, bCols []int) (*relation.Relation, Cost, error) {
	res, err := bitset.Divide(a, b, aQuot, aDiv, bCols)
	if err != nil {
		return nil, Cost{}, err
	}
	return res.Rel, one(res.Stats.WordOps), nil
}
