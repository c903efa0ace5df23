// Package relation implements the data model of Kung & Lehman (1980),
// Section 2: relations as sets of tuples of integer-encoded elements,
// multi-relations (duplicates allowed), underlying domains with reversible
// integer encodings, and the union-compatibility predicate required by
// intersection, difference and union.
//
// Following Section 2.3 of the paper, every element stored in a relation is
// an integer (Element). Values of other types (strings, booleans, dates,
// ...) are encoded into integers by a Domain and decoded only at the I/O
// boundary. All systolic arrays in this repository operate purely on
// Elements.
package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Element is a single integer-encoded value inside a tuple (paper §2.3).
//
// The usable non-negative range is 62 bits: Null reserves -1 << 62, and
// the §8 word→bit-level transformation (internal/bitlevel, MaxWidth = 62)
// can only expand and collapse elements in [0, 1<<62). Domains that encode
// external values should stay within that ceiling if their relations may
// be run through a bit-level array.
type Element int64

// Null is a distinguished element used by the division array (paper §7) to
// represent the "null value" emitted when a dividend pair does not match the
// stored x. It never appears in user relations; NewRelation rejects it.
const Null Element = -1 << 62

// Tuple is an ordered sequence of elements (paper §2.3). Tuples are value
// types; operations never alias caller slices.
type Tuple []Element

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether t and u have the same length and identical elements.
// This is the tuple-equality predicate of paper §3 ("two tuples are said to
// be equal if and only if element a_ik equals b_jk for 1 <= k <= m").
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for k := range t {
		if t[k] != u[k] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically: -1 if t < u, 0 if equal, +1 if
// t > u. Shorter tuples precede longer ones that share a prefix.
func (t Tuple) Compare(u Tuple) int {
	n := min(len(t), len(u))
	for k := 0; k < n; k++ {
		switch {
		case t[k] < u[k]:
			return -1
		case t[k] > u[k]:
			return 1
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Project returns the sub-tuple containing the columns listed in cols, in
// order. It panics if a column index is out of range; callers validate
// against a schema first.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// String renders the tuple as "<a, b, c>".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, e := range t {
		if e == Null {
			parts[i] = "∅"
		} else {
			parts[i] = fmt.Sprintf("%d", e)
		}
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Schema describes the columns of a relation: a name and a domain per
// column. Two relations are union-compatible (paper §2.4) iff they have the
// same number of columns and corresponding columns share an underlying
// domain.
type Schema struct {
	cols []Column
}

// Column is one attribute of a schema.
type Column struct {
	Name   string
	Domain *Domain
}

// NewSchema builds a schema from the given columns. Column names must be
// non-empty and unique; every column must carry a domain.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: schema needs at least one column")
	}
	seen := make(map[string]bool, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("relation: duplicate column name %q", c.Name)
		}
		if c.Domain == nil {
			return nil, fmt.Errorf("relation: column %q has nil domain", c.Name)
		}
		seen[c.Name] = true
	}
	s := &Schema{cols: make([]Column, len(cols))}
	copy(s.cols, cols)
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Width returns the number of columns (the paper's m).
func (s *Schema) Width() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// ColumnIndex returns the index of the named column, or an error.
func (s *Schema) ColumnIndex(name string) (int, error) {
	for i, c := range s.cols {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("relation: no column named %q", name)
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// UnionCompatible reports whether s and t satisfy the paper's §2.4
// definition: equal column counts and pairwise-identical underlying domains.
// Column names are irrelevant, exactly as in the paper.
func (s *Schema) UnionCompatible(t *Schema) bool {
	if s.Width() != t.Width() {
		return false
	}
	for i := range s.cols {
		if !s.cols[i].Domain.Same(t.cols[i].Domain) {
			return false
		}
	}
	return true
}

// ProjectSchema returns a new schema containing the listed columns. Name
// collisions (possible when a column is repeated) are disambiguated with a
// numeric suffix.
func (s *Schema) ProjectSchema(cols []int) (*Schema, error) {
	out := make([]Column, 0, len(cols))
	used := make(map[string]int)
	for _, c := range cols {
		if c < 0 || c >= s.Width() {
			return nil, fmt.Errorf("relation: projection column %d out of range [0,%d)", c, s.Width())
		}
		col := s.cols[c]
		if n := used[col.Name]; n > 0 {
			col.Name = fmt.Sprintf("%s_%d", col.Name, n+1)
		}
		used[s.cols[c].Name]++
		out = append(out, col)
	}
	return NewSchema(out...)
}

// Relation is a multi-relation in the paper's sense (§2.5): an ordered list
// of tuples in which duplicates are permitted. A proper relation (a set) is
// obtained via Dedup or by the remove-duplicates array. Order is
// significant only as presentation/feeding order; set-level comparisons use
// EqualAsSet.
type Relation struct {
	schema *Schema
	tuples []Tuple
}

// NewRelation builds a relation over schema from the given tuples. Every
// tuple must have the schema's width and contain no Null elements.
func NewRelation(schema *Schema, tuples []Tuple) (*Relation, error) {
	if schema == nil {
		return nil, fmt.Errorf("relation: nil schema")
	}
	r := &Relation{schema: schema, tuples: make([]Tuple, 0, len(tuples))}
	for i, t := range tuples {
		if len(t) != schema.Width() {
			return nil, fmt.Errorf("relation: tuple %d has %d elements, schema has %d columns", i, len(t), schema.Width())
		}
		for k, e := range t {
			if e == Null {
				return nil, fmt.Errorf("relation: tuple %d column %d is the reserved null element", i, k)
			}
		}
		r.tuples = append(r.tuples, t.Clone())
	}
	return r, nil
}

// MustRelation is NewRelation that panics on error; for tests and literals.
func MustRelation(schema *Schema, tuples []Tuple) *Relation {
	r, err := NewRelation(schema, tuples)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Cardinality returns |r|, the number of tuples (the paper's n), counting
// duplicates.
func (r *Relation) Cardinality() int { return len(r.tuples) }

// Width returns the tuple width (the paper's m).
func (r *Relation) Width() int { return r.schema.Width() }

// Tuple returns the i-th tuple. The returned slice must not be modified.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Tuples returns a copy of the tuple list.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, len(r.tuples))
	for i, t := range r.tuples {
		out[i] = t.Clone()
	}
	return out
}

// Append adds a tuple (validated against the schema) to the multi-relation.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Width() {
		return fmt.Errorf("relation: tuple has %d elements, schema has %d columns", len(t), r.schema.Width())
	}
	r.tuples = append(r.tuples, t.Clone())
	return nil
}

// Select returns the sub-multi-relation of tuples whose index i has
// keep[i]==want. It is the final materialisation step shared by the
// intersection, difference and remove-duplicates arrays, which all emit a
// bit per input tuple (paper §4.2: "it is then a simple matter to use the
// t_i's to generate C from A").
func (r *Relation) Select(keep []bool, want bool) (*Relation, error) {
	if len(keep) != len(r.tuples) {
		return nil, fmt.Errorf("relation: bit vector length %d != cardinality %d", len(keep), len(r.tuples))
	}
	out := &Relation{schema: r.schema}
	for i, t := range r.tuples {
		if keep[i] == want {
			out.tuples = append(out.tuples, t.Clone())
		}
	}
	return out, nil
}

// Concat returns the concatenation A+B used by the paper's union
// construction (§5). The schemas must be union-compatible; the result keeps
// r's schema.
func (r *Relation) Concat(s *Relation) (*Relation, error) {
	if !r.schema.UnionCompatible(s.schema) {
		return nil, fmt.Errorf("relation: concat of union-incompatible relations")
	}
	out := &Relation{schema: r.schema, tuples: make([]Tuple, 0, len(r.tuples)+len(s.tuples))}
	for _, t := range r.tuples {
		out.tuples = append(out.tuples, t.Clone())
	}
	for _, t := range s.tuples {
		out.tuples = append(out.tuples, t.Clone())
	}
	return out, nil
}

// ProjectColumns returns the multi-relation of sub-tuples over cols (paper
// §5, projection: performed "during the time when the original tuples are
// retrieved from storage"). Duplicates are NOT removed; compose with the
// remove-duplicates array or Dedup.
func (r *Relation) ProjectColumns(cols []int) (*Relation, error) {
	schema, err := r.schema.ProjectSchema(cols)
	if err != nil {
		return nil, err
	}
	out := &Relation{schema: schema, tuples: make([]Tuple, 0, len(r.tuples))}
	for _, t := range r.tuples {
		out.tuples = append(out.tuples, t.Project(cols))
	}
	return out, nil
}

// Contains reports whether some tuple of r equals t.
func (r *Relation) Contains(t Tuple) bool {
	for _, u := range r.tuples {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// HasDuplicates reports whether any tuple occurs more than once.
func (r *Relation) HasDuplicates() bool {
	seen := make(map[string]bool, len(r.tuples))
	for _, t := range r.tuples {
		k := t.key()
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// Dedup returns a copy with duplicate tuples removed, keeping the first
// occurrence of each (the same convention as the remove-duplicates array,
// paper §5). This is a host-side reference implementation.
func (r *Relation) Dedup() *Relation {
	out := &Relation{schema: r.schema}
	seen := make(map[string]bool, len(r.tuples))
	for _, t := range r.tuples {
		k := t.key()
		if !seen[k] {
			seen[k] = true
			out.tuples = append(out.tuples, t.Clone())
		}
	}
	return out
}

// Sorted returns a copy with tuples in lexicographic order. Useful for
// canonical comparison and stable output.
func (r *Relation) Sorted() *Relation {
	out := &Relation{schema: r.schema, tuples: r.Tuples()}
	sort.Slice(out.tuples, func(i, j int) bool {
		return out.tuples[i].Compare(out.tuples[j]) < 0
	})
	return out
}

// EqualAsSet reports whether r and s contain exactly the same set of tuples
// (duplicates and order ignored). Schemas must be union-compatible.
func (r *Relation) EqualAsSet(s *Relation) bool {
	if !r.schema.UnionCompatible(s.schema) {
		return false
	}
	a := make(map[string]bool)
	for _, t := range r.tuples {
		a[t.key()] = true
	}
	b := make(map[string]bool)
	for _, t := range s.tuples {
		b[t.key()] = true
	}
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// EqualAsMultiset reports whether r and s contain the same tuples with the
// same multiplicities (order ignored).
func (r *Relation) EqualAsMultiset(s *Relation) bool {
	if !r.schema.UnionCompatible(s.schema) || len(r.tuples) != len(s.tuples) {
		return false
	}
	counts := make(map[string]int)
	for _, t := range r.tuples {
		counts[t.key()]++
	}
	for _, t := range s.tuples {
		counts[t.key()]--
		if counts[t.key()] < 0 {
			return false
		}
	}
	return true
}

// String renders the relation as a small table of encoded integers.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", strings.Join(r.schema.Names(), " | "))
	for _, t := range r.tuples {
		parts := make([]string, len(t))
		for i, e := range t {
			parts[i] = fmt.Sprintf("%d", e)
		}
		fmt.Fprintf(&b, "%s\n", strings.Join(parts, " | "))
	}
	return b.String()
}

// key returns a map key uniquely identifying the tuple's contents.
func (t Tuple) key() string {
	var b strings.Builder
	for _, e := range t {
		fmt.Fprintf(&b, "%d,", e)
	}
	return b.String()
}
