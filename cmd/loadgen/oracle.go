package main

import (
	"fmt"

	"systolicdb/internal/baseline"
	"systolicdb/internal/fault"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
)

// The oracle answers a plan with internal/baseline's host operators (hash
// set, hash join, grouping) — never with the executor under test. Only the
// parser is shared, and a parser bug shows as a daemon-side 4xx.

// expected returns the order-independent checksum of r's correct answer,
// computed once per oracle key.
func (in *inputs) expected(r request) (fault.Checksum, error) {
	in.mu.Lock()
	sum, ok := in.oracles[r.oracleKey]
	in.mu.Unlock()
	if ok {
		return sum, nil
	}
	node, err := query.Parse(r.plan.text)
	if err != nil {
		return fault.Checksum{}, fmt.Errorf("oracle: %w", err)
	}
	rel, err := oracleEval(node, func(name string) (*relation.Relation, error) {
		if rel, ok := in.lookup(name); ok {
			return rel, nil
		}
		if r.scanBody >= 0 {
			return in.bodies[r.scanBody].rel, nil
		}
		return nil, fmt.Errorf("oracle: unknown relation %q", name)
	})
	if err != nil {
		return fault.Checksum{}, err
	}
	if sum, err = fault.RelationChecksum(rel); err != nil {
		return fault.Checksum{}, err
	}
	in.mu.Lock()
	in.oracles[r.oracleKey] = sum
	in.mu.Unlock()
	return sum, nil
}

// oracleEval evaluates a plan tree on the host.
func oracleEval(n query.Node, scan func(string) (*relation.Relation, error)) (*relation.Relation, error) {
	pair := func(l, r query.Node) (*relation.Relation, *relation.Relation, error) {
		lr, err := oracleEval(l, scan)
		if err != nil {
			return nil, nil, err
		}
		rr, err := oracleEval(r, scan)
		return lr, rr, err
	}
	switch op := n.(type) {
	case query.Scan:
		return scan(op.Name)
	case query.Intersect:
		l, r, err := pair(op.L, op.R)
		if err != nil {
			return nil, err
		}
		return baseline.IntersectionHash(l, r)
	case query.Difference:
		l, r, err := pair(op.L, op.R)
		if err != nil {
			return nil, err
		}
		return baseline.DifferenceHash(l, r)
	case query.Union:
		l, r, err := pair(op.L, op.R)
		if err != nil {
			return nil, err
		}
		return baseline.UnionHash(l, r)
	case query.Dedup:
		c, err := oracleEval(op.Child, scan)
		if err != nil {
			return nil, err
		}
		return baseline.RemoveDuplicatesHash(c)
	case query.Project:
		c, err := oracleEval(op.Child, scan)
		if err != nil {
			return nil, err
		}
		return baseline.Project(c, op.Cols)
	case query.Select:
		c, err := oracleEval(op.Child, scan)
		if err != nil {
			return nil, err
		}
		keep := make([]bool, c.Cardinality())
		for i := range keep {
			keep[i] = op.Query.Matches(c.Tuple(i))
		}
		return c.Select(keep, true)
	case query.Join:
		l, r, err := pair(op.L, op.R)
		if err != nil {
			return nil, err
		}
		return hashJoin(l, r, op.Spec.ACols, op.Spec.BCols)
	case query.Divide:
		l, r, err := pair(op.L, op.R)
		if err != nil {
			return nil, err
		}
		return baseline.Divide(l, r, op.AQuot, op.ADiv, op.BCols)
	}
	return nil, fmt.Errorf("oracle: unsupported plan node %T", n)
}

// hashJoin is the equi-join a ⋈ b: baseline's hash pairs, materialised as
// a_i followed by b_j without b's join columns (the paper's §6.1 result
// shape). Column names are the oracle's own — checksums ignore them.
func hashJoin(a, b *relation.Relation, aCols, bCols []int) (*relation.Relation, error) {
	pairs, err := baseline.JoinPairsHash(a, b, baseline.JoinSpec{ACols: aCols, BCols: bCols})
	if err != nil {
		return nil, err
	}
	drop := make(map[int]bool, len(bCols))
	for _, c := range bCols {
		drop[c] = true
	}
	var cols []relation.Column
	for i := 0; i < a.Width(); i++ {
		cols = append(cols, relation.Column{Name: fmt.Sprintf("a%d", i), Domain: a.Schema().Col(i).Domain})
	}
	var bKeep []int
	for i := 0; i < b.Width(); i++ {
		if !drop[i] {
			cols = append(cols, relation.Column{Name: fmt.Sprintf("b%d", i), Domain: b.Schema().Col(i).Domain})
			bKeep = append(bKeep, i)
		}
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	tuples := make([]relation.Tuple, len(pairs))
	for k, p := range pairs {
		t := append(relation.Tuple(nil), a.Tuple(p[0])...)
		for _, c := range bKeep {
			t = append(t, b.Tuple(p[1])[c])
		}
		tuples[k] = t
	}
	return relation.NewRelation(schema, tuples)
}
