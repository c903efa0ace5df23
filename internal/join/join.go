// Package join implements the join arrays of Kung & Lehman (1980) §6.
//
// Unlike the intersection-family arrays, the join array is interested in
// the individual match bits t_ij, not their accumulation: "here we are
// interested in the t_ij individually, and do not perform further
// accumulation operations on them" (§6.2). Only the join columns of the two
// relations flow through the array — column C_A of A downward and column
// C_B of B upward (Figure 6-1) — and every t_ij is collected at the right
// side. Materialising the result relation C from the TRUE t_ij ("we simply
// retrieve a_i and b_j, and concatenate them, removing the redundant
// column") is a host-side step, exactly as in the paper.
//
// The general case (§6.3) is supported: joining over several columns uses
// one processor column per join column with the partial result propagated
// rightward "in essentially the same way as in the intersection array", and
// non-equi-joins (§6.3.2) preload a different comparison operator into the
// processors. That array is §3.2's two-dimensional comparison array with
// one operator per column, so this package builds no grid of its own: RunT
// is comparison.Run2D on the key tuples. What is join-specific lives here —
// the Spec, its validation and result layout, and the host-side
// materialisation.
package join

import (
	"fmt"

	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Spec describes a join: pairs of columns (ACols[k] of A against BCols[k]
// of B) and the comparison operator per pair. A nil Ops means equality on
// every pair (the equi-join of §6.1/§6.3.1).
type Spec struct {
	ACols []int
	BCols []int
	Ops   []cells.Op
}

// IsEqui reports whether every operator is equality, which determines whether
// the redundant join columns are removed from the result (§6.1 footnote 2:
// authors differ; we follow the paper and omit the redundant column for
// equi-joins, and keep both columns for θ-joins, where the values differ).
func (s Spec) IsEqui() bool {
	for _, op := range s.Ops {
		if op != cells.EQ {
			return false
		}
	}
	return true
}

// BKeep lists, in order, the columns of a bWidth-wide B that follow A's
// columns in the join result: all of them for a θ-join, all but B's join
// columns for an equi-join.
func (s Spec) BKeep(bWidth int) []int {
	drop := make(map[int]bool)
	if s.IsEqui() {
		for _, c := range s.BCols {
			drop[c] = true
		}
	}
	keep := make([]int, 0, bWidth)
	for i := 0; i < bWidth; i++ {
		if !drop[i] {
			keep = append(keep, i)
		}
	}
	return keep
}

// validate checks the §6.3.1 constraints: equal column counts, columns in
// range, and pairwise-identical underlying domains.
func (s *Spec) validate(a, b *relation.Schema) error {
	if len(s.ACols) == 0 {
		return fmt.Errorf("join: no join columns specified")
	}
	if len(s.ACols) != len(s.BCols) {
		return fmt.Errorf("join: %d columns of A against %d of B", len(s.ACols), len(s.BCols))
	}
	if s.Ops == nil {
		s.Ops = make([]cells.Op, len(s.ACols))
	}
	if len(s.Ops) != len(s.ACols) {
		return fmt.Errorf("join: %d operators for %d column pairs", len(s.Ops), len(s.ACols))
	}
	for k := range s.ACols {
		ca, cb := s.ACols[k], s.BCols[k]
		if ca < 0 || ca >= a.Width() {
			return fmt.Errorf("join: column %d of A out of range [0,%d)", ca, a.Width())
		}
		if cb < 0 || cb >= b.Width() {
			return fmt.Errorf("join: column %d of B out of range [0,%d)", cb, b.Width())
		}
		if !a.Col(ca).Domain.Same(b.Col(cb).Domain) {
			return fmt.Errorf("join: columns %q and %q are not drawn from the same underlying domain",
				a.Col(ca).Name, b.Col(cb).Name)
		}
	}
	return nil
}

// Layout is the one definition of a join's result: it validates spec against
// the operand schemas and returns the result schema — all columns of A
// followed by B's kept columns (Spec.BKeep), name collisions prefixed "b_" —
// and the kept-column list. Everything that needs the shape of a join
// without running one (the executor's open-time validation, the streaming
// join, the optimizer's predicate split) reads it here; Materializer builds
// on it, so the array's own output cannot disagree.
func Layout(a, b *relation.Schema, spec Spec) (*relation.Schema, []int, error) {
	if err := spec.validate(a, b); err != nil {
		return nil, nil, err
	}
	bKeep := spec.BKeep(b.Width())
	names := make(map[string]bool)
	cols := make([]relation.Column, 0, a.Width()+len(bKeep))
	for i := 0; i < a.Width(); i++ {
		c := a.Col(i)
		names[c.Name] = true
		cols = append(cols, c)
	}
	for _, i := range bKeep {
		c := b.Col(i)
		for names[c.Name] {
			c.Name = "b_" + c.Name
		}
		names[c.Name] = true
		cols = append(cols, c)
	}
	s, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	return s, bKeep, nil
}

// Result is the outcome of running the join array.
type Result struct {
	Rel   *relation.Relation // materialised join
	T     *comparison.Matrix // the match matrix (paper §6.2)
	Pairs int                // number of TRUE t_ij
	Stats systolic.Stats
}

// RunT runs the join array on the already-projected key tuples (one tuple
// of join-column values per input tuple), producing the matrix T. ops
// holds the per-column comparison operator. The join array is the
// comparison array of §3.2 with one θ-processor column per join column, so
// RunT is comparison.Run2D: the same grid, feeds, drain and schedule check.
func RunT(aKeys, bKeys []relation.Tuple, ops []cells.Op) (*comparison.Matrix, systolic.Stats, error) {
	res, err := comparison.Run2D(aKeys, bKeys, ops, nil, nil)
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	return res.T, res.Stats, nil
}

// Keys projects every tuple of r onto the given columns, producing the key
// tuples fed through the join array. Validation is the caller's job (see
// Spec.Validate via Join).
func Keys(r *relation.Relation, cols []int) []relation.Tuple {
	out := make([]relation.Tuple, r.Cardinality())
	for i := range out {
		out[i] = r.Tuple(i).Project(cols)
	}
	return out
}

// Validate checks the spec against the operand schemas; it is exported so
// drivers that run the array in tiles (§8 decomposition) can validate
// before projecting keys.
func (s *Spec) Validate(a, b *relation.Relation) error {
	if a == nil || b == nil {
		return fmt.Errorf("join: nil relation")
	}
	return s.validate(a.Schema(), b.Schema())
}

// Materializer generates the join relation C one TRUE t_ij at a time — the
// host-side step of §6.2 ("for each t_ij that has the value TRUE ... we
// simply retrieve a_i and b_j, and concatenate them, removing the redundant
// column"). Feeding it the pairs i-major, j ascending yields the order
// Materialize produces from a whole matrix.
type Materializer struct {
	a, b  *relation.Relation
	bKeep []int
	out   *relation.Relation
	row   relation.Tuple // scratch: Append copies it
}

// NewMaterializer prepares the result schema for joining a and b under spec.
func NewMaterializer(a, b *relation.Relation, spec Spec) (*Materializer, error) {
	schema, bKeep, err := Layout(a.Schema(), b.Schema(), spec)
	if err != nil {
		return nil, err
	}
	out, err := relation.NewRelation(schema, nil)
	if err != nil {
		return nil, err
	}
	return &Materializer{a: a, b: b, bKeep: bKeep, out: out, row: make(relation.Tuple, 0, schema.Width())}, nil
}

// Add appends a_i ++ b_j (less b's redundant columns) to the result.
func (m *Materializer) Add(i, j int) error {
	m.row = append(m.row[:0], m.a.Tuple(i)...)
	bt := m.b.Tuple(j)
	for _, c := range m.bKeep {
		m.row = append(m.row, bt[c])
	}
	return m.out.Append(m.row)
}

// Relation returns the join relation built so far; its cardinality is the
// number of pairs added.
func (m *Materializer) Relation() *relation.Relation { return m.out }

// Materialize generates the join relation C from the match matrix T. It
// returns the relation and the number of TRUE entries.
func Materialize(a, b *relation.Relation, spec Spec, t *comparison.Matrix) (*relation.Relation, int, error) {
	m, err := NewMaterializer(a, b, spec)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < t.NA; i++ {
		for j, bit := range t.Bits[i] {
			if !bit {
				continue
			}
			if err := m.Add(i, j); err != nil {
				return nil, 0, err
			}
		}
	}
	return m.out, m.out.Cardinality(), nil
}

// Join runs the join array for the given spec and materialises
// C = A |x|_{CA θ CB} B from the TRUE entries of T.
func Join(a, b *relation.Relation, spec Spec) (*Result, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("join: nil relation")
	}
	if err := spec.validate(a.Schema(), b.Schema()); err != nil {
		return nil, err
	}
	t, stats, err := RunT(Keys(a, spec.ACols), Keys(b, spec.BCols), spec.Ops)
	if err != nil {
		return nil, err
	}
	rel, pairs, err := Materialize(a, b, spec, t)
	if err != nil {
		return nil, err
	}
	return &Result{Rel: rel, T: t, Pairs: pairs, Stats: stats}, nil
}

// Equi is the single-column equi-join of §6.1/§6.2, the paper's worked
// special case.
func Equi(a, b *relation.Relation, aCol, bCol int) (*Result, error) {
	return Join(a, b, Spec{ACols: []int{aCol}, BCols: []int{bCol}})
}

// Theta is the single-column θ-join of §6.3.2 (e.g. the greater-than-join).
func Theta(a, b *relation.Relation, aCol, bCol int, op cells.Op) (*Result, error) {
	return Join(a, b, Spec{ACols: []int{aCol}, BCols: []int{bCol}, Ops: []cells.Op{op}})
}
