package cells

import (
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// StoredCompare is the comparison processor for the "fixed relation"
// implementation of paper §8: "rather than marching two relations against
// each other along the systolic array, we let only one relation move while
// the other remains fixed." One element of the fixed relation B is
// preloaded into the cell; elements of A stream top-to-bottom and partial
// results stream left-to-right, as in Compare.
//
// Because there is no counter-flow, consecutive A tuples can follow one
// pulse apart instead of two, which is what doubles the utilization
// (experiment E14).
type StoredCompare struct {
	B  relation.Element
	Op Op
}

// Step implements systolic.Cell.
func (c *StoredCompare) Step(in *systolic.Inputs, out *systolic.Outputs) {
	if in.N.HasVal {
		out.S = in.N // a continues down
	}
	if in.W.HasFlag {
		t := in.W
		if in.N.HasVal {
			t.Flag = t.Flag && c.Op.Apply(in.N.Val, c.B)
		}
		out.E = t
	}
}
