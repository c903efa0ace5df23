package bitset

import (
	"fmt"

	"systolicdb/internal/division"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Result is the outcome of a set-family run (intersection, difference,
// remove-duplicates, union, projection) on the bitset backend. Bits is
// the per-input-tuple bit the operation accumulated: the membership bit
// t_i for intersection/difference, the duplicate bit for the
// remove-duplicates family — the same bits the array drivers report.
type Result struct {
	Rel   *relation.Relation
	Bits  []bool
	Stats Stats
}

// checkCompatible mirrors the §2.4 precondition check of the intersect
// driver.
func checkCompatible(a, b *relation.Relation) error {
	if a == nil || b == nil {
		return fmt.Errorf("bitset: nil relation")
	}
	if !a.Schema().UnionCompatible(b.Schema()) {
		return fmt.Errorf("bitset: relations are not union-compatible")
	}
	return nil
}

// rows lists r's tuples without copying them; the kernels only read them.
func rows(r *relation.Relation) []relation.Tuple {
	out := make([]relation.Tuple, r.Cardinality())
	for i := range out {
		out[i] = r.Tuple(i)
	}
	return out
}

// Intersection computes C = A ∩ B word-parallel; semantics match
// intersect.Intersection.
func Intersection(a, b *relation.Relation) (*Result, error) {
	return setOp(a, b, true)
}

// Difference computes C = A - B word-parallel; semantics match
// intersect.Difference.
func Difference(a, b *relation.Relation) (*Result, error) {
	return setOp(a, b, false)
}

func setOp(a, b *relation.Relation, want bool) (*Result, error) {
	if err := checkCompatible(a, b); err != nil {
		return nil, err
	}
	keep, st, err := Membership(rows(a), rows(b))
	if err != nil {
		return nil, err
	}
	if keep == nil {
		keep = []bool{}
	}
	rel, err := a.Select(keep, want)
	if err != nil {
		return nil, err
	}
	return &Result{Rel: rel, Bits: keep, Stats: st}, nil
}

// RemoveDuplicates is the word-parallel remove-duplicates of §5; semantics
// match dedup.RemoveDuplicates (first occurrence of each value survives).
func RemoveDuplicates(a *relation.Relation) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("bitset: nil relation")
	}
	return distinct(a.Schema(), rows(a), identity(a.Width()))
}

// Union computes C = A ∪ B as remove-duplicates(A + B), the §5
// construction; semantics match dedup.Union.
func Union(a, b *relation.Relation) (*Result, error) {
	if err := checkCompatible(a, b); err != nil {
		return nil, err
	}
	return distinct(a.Schema(), append(rows(a), rows(b)...), identity(a.Width()))
}

// Project computes the projection of A over the listed columns followed by
// duplicate removal; semantics match dedup.Project.
func Project(a *relation.Relation, cols []int) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("bitset: nil relation")
	}
	schema, err := a.Schema().ProjectSchema(cols)
	if err != nil {
		return nil, err
	}
	return distinct(schema, rows(a), cols)
}

// distinct removes duplicates among the sub-tuples ts[i][cols] and copies
// only the survivors, once, into a relation over schema.
func distinct(schema *relation.Schema, ts []relation.Tuple, cols []int) (*Result, error) {
	dup, st := duplicates(ts, cols)
	rel, err := relation.NewRelation(schema, nil)
	if err != nil {
		return nil, err
	}
	sub := make(relation.Tuple, len(cols))
	for i, t := range ts {
		if dup[i] {
			continue
		}
		for k, c := range cols {
			sub[k] = t[c]
		}
		if err := rel.Append(sub); err != nil {
			return nil, err
		}
	}
	return &Result{Rel: rel, Bits: dup, Stats: st}, nil
}

// JoinResult is the outcome of a join on the bitset backend, mirroring
// join.Result less the match matrix, which the serving path never builds
// (JoinT does, for the differential tests).
type JoinResult struct {
	Rel   *relation.Relation
	Pairs int
	Stats Stats
}

// Join runs the word-parallel join for the given spec, feeding the set
// bits of each row of T straight into the host-side step the array backend
// shares (join.Materializer): pairs arrive i-major, j ascending, so the two
// backends agree tuple-for-tuple on C.
func Join(a, b *relation.Relation, spec join.Spec) (*JoinResult, error) {
	if err := spec.Validate(a, b); err != nil {
		return nil, err
	}
	m, err := join.NewMaterializer(a, b, spec)
	if err != nil {
		return nil, err
	}
	var st Stats
	joinRows(rows(a), spec.ACols, rows(b), spec.BCols, spec.Ops, &st, func(i int, r row) {
		r.each(func(j int) {
			if err == nil {
				err = m.Add(i, j)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return &JoinResult{Rel: m.Relation(), Pairs: m.Relation().Cardinality(), Stats: st}, nil
}

// DivideResult is the outcome of a division on the bitset backend,
// mirroring division.Result (without the pulse-array stats).
type DivideResult struct {
	Rel   *relation.Relation
	Xs    []relation.Element
	Bits  []bool
	Stats Stats
}

// Divide computes C = A ÷ B over column groups; semantics match
// division.Divide. The reduction to the restricted case is shared with the
// array backend (division.PrepareDistinct), but the distinct-x
// identification step — the paper delegates it to the remove-duplicates
// array — runs on this package's Duplicates instead, so a bitset division
// never pays for a pulse simulation.
func Divide(a, b *relation.Relation, aQuot, aDiv, bCols []int) (*DivideResult, error) {
	var st Stats
	p, err := division.PrepareDistinct(a, b, aQuot, aDiv, bCols,
		func(pairs []division.Pair) ([]relation.Element, systolic.Stats, error) {
			zs := make(relation.Tuple, len(pairs))
			tuples := make([]relation.Tuple, len(pairs))
			for i, pr := range pairs {
				zs[i] = pr.Z
				tuples[i] = zs[i : i+1]
			}
			dup, dst := duplicates(tuples, []int{0})
			st.add(dst)
			xs := make([]relation.Element, 0, len(dup))
			for i, d := range dup {
				if !d {
					xs = append(xs, pairs[i].Z)
				}
			}
			return xs, systolic.Stats{}, nil
		})
	if err != nil {
		return nil, err
	}
	bits, dst := DivisionBits(p.Pairs, p.Xs, p.Divisor)
	st.add(dst)
	if bits == nil {
		bits = []bool{}
	}
	rel, err := p.Materialize(bits)
	if err != nil {
		return nil, err
	}
	return &DivideResult{Rel: rel, Xs: p.Xs, Bits: bits, Stats: st}, nil
}
