package cluster

import (
	"systolicdb/internal/query"
)

// Part describes how a sub-plan's per-shard results relate to the
// single-node result of the same plan — the invariant the gather step
// relies on. The lattice mirrors what internal/decompose proves tile by
// tile, lifted to shard granularity:
//
//   - PartAligned: shard i's result is exactly the slice of the global
//     result whose tuples hash to shard i (full-tuple hash, same ring).
//     Equal tuples are colocated, multiplicities are exact: concatenation
//     reassembles the global result as a multiset. Closed under the
//     set operators, because PUT-time partitioning colocates every copy
//     of a tuple (§3's tuple-equality comparisons never need to cross a
//     shard).
//
//   - PartDisjoint: each global result tuple *instance* is produced by
//     exactly one shard (concat is multiset-exact) but residency no longer
//     follows the tuple hash — e.g. a broadcast join's outputs live where
//     the probe side lived. Concat still gathers exactly; further
//     scattering of tuple-colocating operators on top would be unsound.
//
//   - PartOverlap: shards may produce the same result tuple independently
//     (a projection maps two differently-hashed tuples to one image), so
//     the gather point must remove duplicates. Sound only for operators
//     whose single-node semantics are duplicate-free (project, dedup,
//     union), which is exactly when the engine's §5 triangle mask would
//     have removed them anyway.
//
//   - PartNone: the plan does not decompose under the current
//     partitioning; the coordinator must evaluate it by other means
//     (broadcast, re-shuffle, or gathering children and running the
//     operator locally).
type Part int

const (
	PartNone Part = iota
	PartAligned
	PartDisjoint
	PartOverlap
)

// Scatterable reports whether a plan with this classification may be
// shipped whole to every shard and gathered (concat, plus dedup for
// PartOverlap).
func (p Part) Scatterable() bool { return p != PartNone }

// Classify computes the partition property of a plan evaluated shard-
// locally, assuming every base relation (Scan) is partitioned by
// full-tuple hash on one shared ring.
//
// Join and Divide always classify PartNone here: they are handled by the
// executor's broadcast/shuffle strategies, not by whole-plan scatter.
func Classify(n query.Node) Part {
	switch op := n.(type) {
	case query.Scan:
		return PartAligned
	case query.Select:
		// A row filter keeps each surviving tuple where it was.
		return Classify(op.Child)
	case query.Intersect:
		return alignedOnly(Classify(op.L), Classify(op.R))
	case query.Difference:
		return alignedOnly(Classify(op.L), Classify(op.R))
	case query.Union:
		// Union removes duplicates (§5), so set semantics tolerate
		// cross-shard copies: any scatterable pair gathers with dedup.
		l, r := Classify(op.L), Classify(op.R)
		if l == PartAligned && r == PartAligned {
			return PartAligned
		}
		if l.Scatterable() && r.Scatterable() {
			return PartOverlap
		}
		return PartNone
	case query.Dedup:
		switch Classify(op.Child) {
		case PartAligned:
			return PartAligned
		case PartDisjoint, PartOverlap:
			return PartOverlap
		}
		return PartNone
	case query.Project:
		// Projection re-maps tuples, so images of tuples from different
		// shards may collide: duplicate-free semantics, dedup at gather.
		if Classify(op.Child).Scatterable() {
			return PartOverlap
		}
		return PartNone
	}
	return PartNone
}

// alignedOnly: intersection and difference compare tuple multisets, so
// both inputs must have exact per-shard multiplicity AND colocated equal
// tuples — anything less and a matching pair could straddle shards.
func alignedOnly(l, r Part) Part {
	if l == PartAligned && r == PartAligned {
		return PartAligned
	}
	return PartNone
}
