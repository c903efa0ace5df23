// Package division implements the relational-division array of Kung &
// Lehman (1980) §7 (Figures 7-1/7-2).
//
// The restricted case of the paper — a binary dividend A(A1, A2) and a
// unary divisor B(B1) — is implemented directly in hardware. The array has
// two modules side by side:
//
//   - the dividend array: two processor columns. Each left-column processor
//     stores one distinct element x of column A1 ("these elements can be
//     identified by the remove-duplicates array" — this package really does
//     use the remove-duplicates array for that). Pairs (z, y) ∈ A stream in
//     from the bottom, z up the left column and y one pulse behind up the
//     right column. Each left cell compares z with its stored x and sends
//     the match bit right, where it gates y: the right cell emits y if the
//     bit is TRUE and the null value otherwise.
//
//   - the divisor array: one row of |B| processors per stored x, each
//     preloaded with one element of B. The (gated) y stream of the row
//     passes left-to-right; each processor latches whether its element was
//     ever matched. An AND probe follows the last pair through the array
//     and collects the conjunction: the probe leaves the right end TRUE iff
//     the y's that co-occurred with x "include all the elements in B1",
//     i.e. iff x belongs to the quotient.
//
// The general case (§7: "the extension from this to the general case is
// straightforward (as in the preceding section on the join)") is provided
// by Divide, which groups the quotient and divisor column lists into
// composite elements via reversible interning and runs the same array.
package division

import (
	"encoding/binary"
	"fmt"

	"systolicdb/internal/cells"
	"systolicdb/internal/dedup"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Result is the outcome of running the division array.
type Result struct {
	Rel   *relation.Relation // the quotient C
	Xs    []relation.Element // distinct A1 elements, in stored (row) order
	Bits  []bool             // quotient membership per stored x
	Stats systolic.Stats     // division-array statistics
	Dedup systolic.Stats     // remove-duplicates-array statistics (x identification)
}

// Pair is one dividend tuple (z, y) of the restricted binary case.
type Pair struct {
	Z, Y relation.Element
}

// RunArray runs the division array proper on dividend pairs and a divisor
// element list, with xs the distinct Z values to preload (one per row). It
// returns the quotient membership bit for each x. An optional tracer
// observes every pulse.
func RunArray(pairs []Pair, xs, divisor []relation.Element, tracer systolic.Tracer) ([]bool, systolic.Stats, error) {
	return RunArrayWrap(pairs, xs, divisor, tracer, nil)
}

// ReferenceBits computes the quotient membership bit for each x by direct
// software evaluation — the specification RunArray is verified against
// (and the host side of the fault layer's checksum lane): x belongs to the
// quotient iff every divisor element y appears paired with it.
func ReferenceBits(pairs []Pair, xs, divisor []relation.Element) []bool {
	have := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		have[p] = true
	}
	bits := make([]bool, len(xs))
	for r, x := range xs {
		ok := true
		for _, y := range divisor {
			if !have[Pair{Z: x, Y: y}] {
				ok = false
				break
			}
		}
		bits[r] = ok
	}
	return bits
}

// pairPorts feeds the pairs from the bottom: z_i into the left column at
// pulse i, y_i one step behind into the right column at pulse i+1; the AND
// probe follows the last y at pulse n+1.
func pairPorts(pairs []Pair) []systolic.Port {
	n := len(pairs)
	return []systolic.Port{
		{Side: systolic.South, Index: 0, Window: systolic.Window{First: 0, Stride: 1, Count: n},
			Feed: func(p int) systolic.Token {
				if p >= 0 && p < n {
					return systolic.ValToken(pairs[p].Z, systolic.Tag{Tuple: int32(p), Valid: true})
				}
				return systolic.Empty
			}},
		{Side: systolic.South, Index: 1, Window: systolic.Window{First: 1, Stride: 1, Count: n + 1},
			Feed: func(p int) systolic.Token {
				switch {
				case p >= 1 && p-1 < n:
					return systolic.ValToken(pairs[p-1].Y, systolic.Tag{Tuple: int32(p - 1), Valid: true})
				case p == n+1:
					return systolic.FlagToken(true, systolic.Tag{Valid: true})
				}
				return systolic.Empty
			}},
	}
}

// RunArrayWrap is RunArray with an optional cell wrapper applied to every
// processor (the fault layer's injection hook); a nil wrap behaves exactly
// like RunArray.
func RunArrayWrap(pairs []Pair, xs, divisor []relation.Element, tracer systolic.Tracer, wrap systolic.Wrap) ([]bool, systolic.Stats, error) {
	nRows := len(xs)
	if nRows == 0 {
		return nil, systolic.Stats{}, nil
	}
	n := len(pairs)
	nB := len(divisor)
	cols := 2 + nB
	grid, err := systolic.NewGrid(nRows, cols, systolic.BuildWith(func(r, c int) systolic.Cell {
		switch {
		case c == 0:
			return &cells.DividendStore{X: xs[r]}
		case c == 1:
			return cells.DividendGate{}
		default:
			return &cells.Divisor{Y: divisor[c-2]}
		}
	}, wrap))
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	defer grid.Release()
	grid.SetTracer(tracer)

	if err := grid.Feed(pairPorts(pairs)...); err != nil {
		return nil, systolic.Stats{}, err
	}

	// Collect the probe as it leaves the east end of each divisor row.
	bits := make([]bool, nRows)
	got := make([]bool, nRows)
	var collectErr error
	for r := 0; r < nRows; r++ {
		r := r
		if err := grid.Drain(systolic.East, r, func(p int, tok systolic.Token) {
			if !tok.HasFlag || collectErr != nil {
				return
			}
			if got[r] {
				collectErr = fmt.Errorf("division: duplicate probe output at row %d", r)
				return
			}
			bits[r] = tok.Flag
			got[r] = true
		}); err != nil {
			return nil, systolic.Stats{}, err
		}
	}

	// The probe passes row r (top row is 0) at pulse n+1 + (nRows-1-r)
	// and then crosses nB divisor cells; run long enough to drain row 0.
	grid.Reset()
	grid.Run(n + 1 + nRows + nB + 1)
	if collectErr != nil {
		return nil, systolic.Stats{}, collectErr
	}
	for r, g := range got {
		if !g {
			return nil, systolic.Stats{}, fmt.Errorf("division: no probe output for row %d (x=%d)", r, xs[r])
		}
	}
	return bits, grid.Stats(), nil
}

// DivideBinary divides a binary relation A(A1, A2) by a unary relation
// B(B1) — the restricted case implemented directly by the paper. The
// domains of A2 and B1 must be the same underlying domain.
func DivideBinary(a, b *relation.Relation) (*Result, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("division: nil relation")
	}
	if a.Width() != 2 {
		return nil, fmt.Errorf("division: dividend has %d columns, want 2", a.Width())
	}
	if b.Width() != 1 {
		return nil, fmt.Errorf("division: divisor has %d columns, want 1", b.Width())
	}
	return Divide(a, b, []int{0}, []int{1}, []int{0})
}

// Problem is a division reduced to the restricted binary/unary case: the
// interned dividend pairs, the distinct preload elements, the interned
// divisor, and everything needed to materialise the quotient from the
// array's output bits. It allows drivers (e.g. the §9 machine) to run the
// array in row bands (§8 decomposition) and materialise afterwards.
type Problem struct {
	Pairs   []Pair
	Xs      []relation.Element
	Divisor []relation.Element
	Dedup   systolic.Stats // cost of identifying Xs with the remove-duplicates array

	schema  *relation.Schema
	zTuples map[relation.Element]relation.Tuple
}

// Materialize builds the quotient relation from per-x membership bits
// (parallel to p.Xs).
func (p *Problem) Materialize(bits []bool) (*relation.Relation, error) {
	if len(bits) != len(p.Xs) {
		return nil, fmt.Errorf("division: %d bits for %d stored elements", len(bits), len(p.Xs))
	}
	rel, err := relation.NewRelation(p.schema, nil)
	if err != nil {
		return nil, err
	}
	for r, x := range p.Xs {
		if bits[r] {
			if err := rel.Append(p.zTuples[x]); err != nil {
				return nil, err
			}
		}
	}
	return rel, nil
}

// DistinctFunc identifies the distinct Z values of the dividend pairs, in
// first-occurrence order, returning the stats of whatever array (if any)
// performed the identification.
type DistinctFunc func(pairs []Pair) ([]relation.Element, systolic.Stats, error)

// Prepare validates and reduces a general division to the restricted case
// (see Divide for the column-group semantics), identifying the distinct
// x's with the §5 remove-duplicates array as the paper prescribes.
func Prepare(a, b *relation.Relation, aQuot, aDiv, bCols []int) (*Problem, error) {
	return PrepareDistinct(a, b, aQuot, aDiv, bCols, nil)
}

// PrepareDistinct is Prepare with the distinct-x identification step
// supplied by the caller — the hook an alternative execution backend uses
// to avoid paying for a pulse-simulated dedup array inside its own
// division. A nil distinct behaves exactly like Prepare.
func PrepareDistinct(a, b *relation.Relation, aQuot, aDiv, bCols []int, distinct DistinctFunc) (*Problem, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("division: nil relation")
	}
	if len(aQuot) == 0 || len(aDiv) == 0 {
		return nil, fmt.Errorf("division: empty column groups")
	}
	if len(aDiv) != len(bCols) {
		return nil, fmt.Errorf("division: %d divided columns of A against %d columns of B", len(aDiv), len(bCols))
	}
	for _, c := range append(append([]int{}, aQuot...), aDiv...) {
		if c < 0 || c >= a.Width() {
			return nil, fmt.Errorf("division: column %d of A out of range [0,%d)", c, a.Width())
		}
	}
	for k, c := range bCols {
		if c < 0 || c >= b.Width() {
			return nil, fmt.Errorf("division: column %d of B out of range [0,%d)", c, b.Width())
		}
		if !a.Schema().Col(aDiv[k]).Domain.Same(b.Schema().Col(c).Domain) {
			return nil, fmt.Errorf("division: columns %q and %q are not drawn from the same underlying domain",
				a.Schema().Col(aDiv[k]).Name, b.Schema().Col(c).Name)
		}
	}

	quotSchema, err := a.Schema().ProjectSchema(aQuot)
	if err != nil {
		return nil, err
	}
	if a.Cardinality() == 0 {
		return &Problem{schema: quotSchema, zTuples: map[relation.Element]relation.Tuple{}}, nil
	}

	// Composite-intern the column groups so that multi-column groups
	// become single elements. Interning is deterministic within a run.
	zIntern := newInterner(len(aQuot))
	yIntern := newInterner(len(aDiv))
	pairs := make([]Pair, a.Cardinality())
	zTuples := make(map[relation.Element]relation.Tuple)
	for i := 0; i < a.Cardinality(); i++ {
		t := a.Tuple(i)
		z, fresh := zIntern.code(t, aQuot)
		y, _ := yIntern.code(t, aDiv)
		pairs[i] = Pair{Z: z, Y: y}
		if fresh {
			zTuples[z] = t.Project(aQuot)
		}
	}
	divisor := make([]relation.Element, 0, b.Cardinality())
	seenDiv := make(map[relation.Element]bool)
	for j := 0; j < b.Cardinality(); j++ {
		y, _ := yIntern.code(b.Tuple(j), bCols)
		if !seenDiv[y] {
			seenDiv[y] = true
			divisor = append(divisor, y)
		}
	}

	// Identify the distinct x's — by default with the remove-duplicates
	// array, as the paper prescribes.
	if distinct == nil {
		distinct = distinctViaDedupArray
	}
	xs, dedupStats, err := distinct(pairs)
	if err != nil {
		return nil, err
	}
	return &Problem{
		Pairs:   pairs,
		Xs:      xs,
		Divisor: divisor,
		Dedup:   dedupStats,
		schema:  quotSchema,
		zTuples: zTuples,
	}, nil
}

// Divide computes C = A ÷ B over column groups: aQuot are the quotient
// columns of A (the paper's A1 / C_A complement), aDiv the divided columns
// of A, and bCols the corresponding columns of B. aDiv and bCols must have
// the same length and pairwise-identical domains. Multi-column groups are
// reduced to the restricted case by reversible composite interning, the
// "straightforward extension" of §7.
func Divide(a, b *relation.Relation, aQuot, aDiv, bCols []int) (*Result, error) {
	p, err := Prepare(a, b, aQuot, aDiv, bCols)
	if err != nil {
		return nil, err
	}
	bits, stats, err := RunArray(p.Pairs, p.Xs, p.Divisor, nil)
	if err != nil {
		return nil, err
	}
	if bits == nil {
		bits = []bool{}
	}
	rel, err := p.Materialize(bits)
	if err != nil {
		return nil, err
	}
	return &Result{Rel: rel, Xs: p.Xs, Bits: bits, Stats: stats, Dedup: p.Dedup}, nil
}

// distinctViaDedupArray extracts the distinct Z values of the pairs, in
// first-occurrence order, using the remove-duplicates systolic array of §5
// ("these elements can be identified by the remove-duplicates array").
func distinctViaDedupArray(pairs []Pair) ([]relation.Element, systolic.Stats, error) {
	dom := relation.IntDomain("division.x")
	schema, err := relation.NewSchema(relation.Column{Name: "x", Domain: dom})
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	tuples := make([]relation.Tuple, len(pairs))
	for i, p := range pairs {
		tuples[i] = relation.Tuple{p.Z}
	}
	multi, err := relation.NewRelation(schema, tuples)
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	res, err := dedup.RemoveDuplicates(multi)
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	xs := make([]relation.Element, res.Rel.Cardinality())
	for i := range xs {
		xs[i] = res.Rel.Tuple(i)[0]
	}
	return xs, res.Stats, nil
}

// interner assigns consecutive codes, in first-seen order, to the distinct
// values of a column group. A width-1 group keys on the element itself; a
// wider group keys on its elements' bytes, so no tuple is formatted.
type interner struct {
	one  map[relation.Element]relation.Element
	many map[string]relation.Element
	buf  []byte
}

func newInterner(width int) *interner {
	if width == 1 {
		return &interner{one: make(map[relation.Element]relation.Element)}
	}
	return &interner{many: make(map[string]relation.Element)}
}

// code returns the code of t's sub-tuple over cols and whether this call
// assigned it.
func (in *interner) code(t relation.Tuple, cols []int) (relation.Element, bool) {
	if in.one != nil {
		c, ok := in.one[t[cols[0]]]
		if !ok {
			c = relation.Element(len(in.one))
			in.one[t[cols[0]]] = c
		}
		return c, !ok
	}
	in.buf = in.buf[:0]
	for _, k := range cols {
		in.buf = binary.LittleEndian.AppendUint64(in.buf, uint64(t[k]))
	}
	c, ok := in.many[string(in.buf)]
	if !ok {
		c = relation.Element(len(in.many))
		in.many[string(in.buf)] = c
	}
	return c, !ok
}
