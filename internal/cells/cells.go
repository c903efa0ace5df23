// Package cells implements the processor algorithms of Kung & Lehman
// (1980). Per paper §2.2, the arrays all share the orthogonal/linear
// processor prototype of Figure 2-2; "it is the algorithm actually executed
// by each processor that determines the function of the array". Each type
// in this package is one such algorithm:
//
//   - Compare      — the comparison processor of Figure 3-2
//   - Theta        — its §6.3.2 generalisation to any binary comparison
//   - Accumulate   — the OR-accumulation processor of §4.2
//   - DividendStore, DividendGate — the two dividend-array columns of §7
//   - Divisor      — the divisor-array processor of §7
package cells

import (
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Op is the binary comparison operator a θ-join cell applies. The type
// lives in relation (selection predicates use it too, and relation cannot
// import this package); the alias keeps cells.Op and cells.EQ… the names
// the array code is written in.
type Op = relation.Op

// Comparison operators.
const (
	EQ = relation.EQ
	NE = relation.NE
	LT = relation.LT
	LE = relation.LE
	GT = relation.GT
	GE = relation.GE
)

// Compare is the comparison processor of Figure 3-2. Per pulse:
//
//	aOUT = aIN   (relation A's element continues downward)
//	bOUT = bIN   (relation B's element continues upward)
//	tOUT = tIN AND (aIN = bIN)   (partial result continues rightward)
//
// If the boolean line carries a token but one of the data lines is idle
// (which a correct feeding schedule never produces mid-comparison), the
// boolean passes through unchanged; trace-tag tests in the comparison
// package verify the schedules keep operands and partial results aligned.
type Compare struct{}

// Step implements systolic.Cell.
func (Compare) Step(in *systolic.Inputs, out *systolic.Outputs) {
	thetaStep(EQ, in, out)
}

// Reset implements systolic.Cell; Compare is stateless.
func (Compare) Reset() {}

// Theta is the §6.3.2 θ-comparison processor: identical wiring to Compare
// but with a preloaded comparison operator ("it might be preloaded into the
// array of processors").
type Theta struct {
	Op Op
}

// Step implements systolic.Cell.
func (c Theta) Step(in *systolic.Inputs, out *systolic.Outputs) {
	thetaStep(c.Op, in, out)
}

// Reset implements systolic.Cell; Theta is stateless.
func (Theta) Reset() {}

func thetaStep(op Op, in *systolic.Inputs, out *systolic.Outputs) {
	if in.N.HasVal {
		out.S = in.N // a continues down
	}
	if in.S.HasVal {
		out.N = in.S // b continues up
	}
	if in.W.HasFlag {
		t := in.W
		if in.N.HasVal && in.S.HasVal {
			t.Flag = t.Flag && op.Apply(in.N.Val, in.S.Val)
		}
		out.E = t
	}
}

// Emit is the comparison processor used in the join array's right-most
// column (Figure 6-1): it behaves like Theta, but the t it produces is the
// final t_ij, emitted for collection rather than further accumulation. It
// is structurally identical to Theta — the distinction is only which
// boundary the driver drains — so Emit is an alias kept for readability in
// array builders.
type Emit = Theta

// Accumulate is the accumulation processor of §4.2. Per pulse:
//
//	tDOWN_OUT = tDOWN_IN OR tLEFT_IN
//
// and when no t arrives from the left, the processor "simply passes on the
// t_i that it has". The t_i stream moves top-to-bottom.
type Accumulate struct{}

// Step implements systolic.Cell.
func (Accumulate) Step(in *systolic.Inputs, out *systolic.Outputs) {
	switch {
	case in.N.HasFlag && in.W.HasFlag:
		t := in.N
		t.Flag = t.Flag || in.W.Flag
		out.S = t
	case in.N.HasFlag:
		out.S = in.N
	case in.W.HasFlag:
		// A t_ij arrived with no accumulator present. A correct
		// schedule aligns the two; forwarding the orphan down keeps
		// the array total (and tests assert it never happens).
		out.S = in.W
	}
}

// Reset implements systolic.Cell; Accumulate is stateless.
func (Accumulate) Reset() {}

// DividendStore is the left-column dividend-array processor of §7. It
// stores one distinct element x appearing in column A1 of the dividend
// ("the left-hand column ... stores (distinct) elements appearing in column
// A1, one element to a processor"). Per pulse, an incoming z (a value from
// column A1 of some dividend pair, moving bottom-to-top) is compared to the
// stored x; the match bit leaves on the right output line and z continues
// upward.
type DividendStore struct {
	X relation.Element
}

// Step implements systolic.Cell.
func (c *DividendStore) Step(in *systolic.Inputs, out *systolic.Outputs) {
	if in.S.HasVal {
		out.N = in.S // z continues up
		out.E = systolic.FlagToken(in.S.Val == c.X, in.S.Tag)
	}
}

// Reset implements systolic.Cell. The preloaded element is configuration,
// not run state, so it survives Reset.
func (c *DividendStore) Reset() {}

// DividendGate is the right-column dividend-array processor of §7. The y of
// a dividend pair arrives from below (one step behind its z); the boolean t
// produced by the DividendStore on the left "arrives at the processor in
// the right column, just as the associated y arrives there. If t is true,
// then y is output from the right side of the processor. Otherwise, some
// null value is output." The y also continues upward so that every stored
// x sees every pair.
type DividendGate struct{}

// Step implements systolic.Cell.
func (DividendGate) Step(in *systolic.Inputs, out *systolic.Outputs) {
	switch {
	case in.S.HasVal:
		out.N = in.S // y continues up
		if in.W.HasFlag {
			y := in.S
			if !in.W.Flag {
				y.Val = relation.Null
			}
			out.E = y
		}
	case in.S.HasFlag:
		// The AND probe follows the last dividend pair up the y
		// column; as it passes each row it turns right into the
		// divisor array, arriving one pulse behind the row's last y
		// ("doing an AND across the row after the dividend passes
		// through the array", §7).
		out.N = in.S
		out.E = in.S
	}
}

// Reset implements systolic.Cell; DividendGate is stateless.
func (DividendGate) Reset() {}

// Divisor is the divisor-array processor of §7. It stores one element of
// the divisor relation B. "Each processor of the row checks if the element
// it is storing matches any of the y's passing from left to right along the
// row"; the match is latched in a register. After the dividend has passed
// through, an AND probe (a boolean token) is sent along the row: each
// processor ANDs its register into the probe, so the token leaving the
// right end is TRUE iff every stored element was matched — i.e. iff the
// row's x belongs to the quotient.
type Divisor struct {
	Y       relation.Element
	matched bool
}

// Step implements systolic.Cell.
func (c *Divisor) Step(in *systolic.Inputs, out *systolic.Outputs) {
	switch {
	case in.W.HasVal:
		if in.W.Val != relation.Null && in.W.Val == c.Y {
			c.matched = true
		}
		out.E = in.W // y (or null) continues along the row
	case in.W.HasFlag:
		probe := in.W
		probe.Flag = probe.Flag && c.matched
		out.E = probe
	}
}

// Reset implements systolic.Cell: clears the match register, keeps the
// preloaded element.
func (c *Divisor) Reset() { c.matched = false }
