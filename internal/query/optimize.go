package query

import (
	"fmt"

	"systolicdb/internal/relation"
)

// Optimize rewrites a plan into an equivalent one that exploits the §9
// machine better. The catalog is needed to resolve schemas (e.g. operand
// widths for pushing a selection through a join). Rules applied, bottom-up
// until a fixed point:
//
//  1. select(select(e, P), Q)          -> select(e, P ∧ Q)
//  2. select(intersect/union/difference(l, r), P)
//     -> op(select(l, P), select(r, P))   [same-schema set operations]
//  3. select(project(e, cols), P)      -> project(select(e, P'), cols)
//     with P' rewritten through the column map
//  4. select(join(l, r), P)            -> join(select(l, Pl), select(r, Pr))
//     with P split column-by-column between the inputs: the join result
//     is l's columns unchanged followed by r's kept columns (equi-joins
//     drop r's join columns), so every single-column predicate maps to
//     exactly one input
//  5. dedup(dedup(e))                  -> dedup(e)
//  6. dedup(project(e, cols))          -> project(e, cols)   [project dedups]
//  7. dedup(union(l, r))               -> union(l, r)        [union dedups]
//  8. dedup(intersect(l, r))           -> intersect(dedup(l), r)
//     [membership testing preserves A's duplicates; dedup A first instead]
//  9. project(project(e, c1), c2)      -> project(e, c1∘c2)
//  10. select(dedup(e), P)              -> dedup(select(e, P))
//     [filtering commutes with duplicate removal]
//
// The goal of the selection rules is to sink every Select onto a Scan, at
// which point Compile turns it into logic-per-track disk filtering ("some
// simple queries never have to be processed outside the disks"). Every
// rewrite preserves results; TestOptimizePreservesResults checks the whole
// rule set against unoptimized execution on randomized plans.
func Optimize(n Node, cat Catalog) (Node, error) {
	for i := 0; i < 32; i++ { // fixed-point iteration with a safety bound
		rewritten, changed, err := rewrite(n, cat)
		if err != nil {
			return nil, err
		}
		n = rewritten
		if !changed {
			return n, nil
		}
	}
	return n, nil
}

// width returns the output width of a plan node.
func width(n Node, cat Catalog) (int, error) {
	switch op := n.(type) {
	case nil:
		return 0, fmt.Errorf("query: unknown node %T", n)
	case Scan:
		r, ok := cat[op.Name]
		if !ok {
			return 0, fmt.Errorf("query: unknown relation %q", op.Name)
		}
		return r.Width(), nil
	case Project:
		return len(op.Cols), nil
	case Join:
		lw, err := width(op.L, cat)
		if err != nil {
			return 0, err
		}
		rw, err := width(op.R, cat)
		if err != nil {
			return 0, err
		}
		return lw + len(op.Spec.BKeep(rw)), nil
	case Divide:
		return len(op.AQuot), nil
	}
	// Every other operator passes its (left) operand's schema through.
	return width(n.children()[0], cat)
}

// rewrite applies one bottom-up pass of the rules: the operands first,
// whatever the operator, then the rules that match the rebuilt node.
func rewrite(n Node, cat Catalog) (Node, bool, error) {
	if n == nil {
		return nil, false, fmt.Errorf("query: unknown node %T", n)
	}
	kids, changed := n.children(), false
	for i, k := range kids {
		r, c, err := rewrite(k, cat)
		if err != nil {
			return nil, false, err
		}
		kids[i], changed = r, changed || c
	}
	n = n.withChildren(kids)

	switch op := n.(type) {
	case Dedup:
		switch inner := op.Child.(type) {
		case Dedup, Project, Union: // rules 5, 6, 7
			return inner, true, nil
		case Intersect: // rule 8
			return Intersect{L: Dedup{Child: inner.L}, R: inner.R}, true, nil
		}

	case Project:
		if inner, ok := op.Child.(Project); ok { // rule 9
			composed := make([]int, len(op.Cols))
			valid := true
			for i, c := range op.Cols {
				if c < 0 || c >= len(inner.Cols) {
					valid = false
					break
				}
				composed[i] = inner.Cols[c]
			}
			if valid {
				return Project{Child: inner.Child, Cols: composed}, true, nil
			}
		}

	case Select:
		switch inner := op.Child.(type) {
		case Select: // rule 1
			merged := append(append(relation.Query{}, inner.Query...), op.Query...)
			return Select{Child: inner.Child, Query: merged}, true, nil
		case Intersect, Union, Difference: // rule 2
			sides := inner.children()
			for i, side := range sides {
				sides[i] = Select{Child: side, Query: op.Query}
			}
			return inner.withChildren(sides), true, nil
		case Project: // rule 3
			mapped := make(relation.Query, len(op.Query))
			valid := true
			for i, p := range op.Query {
				if p.Col < 0 || p.Col >= len(inner.Cols) {
					valid = false
					break
				}
				mapped[i] = relation.Predicate{Col: inner.Cols[p.Col], Op: p.Op, Value: p.Value}
			}
			if valid {
				return Project{
					Child: Select{Child: inner.Child, Query: mapped},
					Cols:  inner.Cols,
				}, true, nil
			}
		case Dedup: // rule 10
			return Dedup{Child: Select{Child: inner.Child, Query: op.Query}}, true, nil
		case Join: // rule 4: split predicates between the join's inputs
			lw, err := width(inner.L, cat)
			if err != nil {
				return nil, false, err
			}
			rw, err := width(inner.R, cat)
			if err != nil {
				return nil, false, err
			}
			bKeep := inner.Spec.BKeep(rw)
			var lq, rq relation.Query
			valid := len(op.Query) > 0
			for _, p := range op.Query {
				switch {
				case p.Col >= 0 && p.Col < lw:
					lq = append(lq, p)
				case p.Col >= lw && p.Col < lw+len(bKeep):
					// Output column lw+i is R's input column bKeep[i],
					// value-identical in every emitted row.
					rq = append(rq, relation.Predicate{Col: bKeep[p.Col-lw], Op: p.Op, Value: p.Value})
				default:
					valid = false // out-of-range predicate: keep the Select so it still errors at execution
				}
				if !valid {
					break
				}
			}
			if valid {
				l, r := inner.L, inner.R
				if len(lq) > 0 {
					l = Select{Child: l, Query: lq}
				}
				if len(rq) > 0 {
					r = Select{Child: r, Query: rq}
				}
				return Join{L: l, R: r, Spec: inner.Spec}, true, nil
			}
		}
	}
	return n, changed, nil
}
