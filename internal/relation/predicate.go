package relation

import "fmt"

// Op is a binary comparison operator on elements: the θ of θ-joins (paper
// §6.3.2: "this notion can be generalized to allow any sort of binary
// comparison (e.g. <, >, etc.)") and of selection predicates.
type Op int

// Comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the operator's conventional symbol.
func (o Op) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "op?"
}

// Apply evaluates "a o b".
func (o Op) Apply(a, b Element) bool {
	switch o {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

// Predicate is one constant comparison of a selection: tuple[Col] op Value.
// It is deliberately minimal — the most a §9 logic-per-track disk head can
// evaluate on the fly — so the same value describes a host-side filter and
// a selection done at the disk; anything richer belongs on the arrays.
type Predicate struct {
	Col   int
	Op    Op
	Value Element
}

// Query is a conjunction of predicates, the selection a plan's Select node
// (and a logic-per-track disk, in a single revolution) evaluates.
type Query []Predicate

// Matches evaluates the conjunction against a tuple.
func (q Query) Matches(t Tuple) bool {
	for _, p := range q {
		if p.Col < 0 || p.Col >= len(t) {
			return false
		}
		if !p.Op.Apply(t[p.Col], p.Value) {
			return false
		}
	}
	return true
}

// Validate checks the predicates against a schema.
func (q Query) Validate(s *Schema) error {
	for i, p := range q {
		if p.Col < 0 || p.Col >= s.Width() {
			return fmt.Errorf("relation: predicate %d references column %d of a %d-column schema", i, p.Col, s.Width())
		}
	}
	return nil
}
