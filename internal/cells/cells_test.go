package cells

import (
	"testing"
	"testing/quick"

	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

func val(v int64) systolic.Token { return systolic.ValToken(relation.Element(v), systolic.Tag{}) }
func flag(b bool) systolic.Token { return systolic.FlagToken(b, systolic.Tag{}) }

// step runs one pulse of a cell the way the grid does: over the given
// latched inputs, into a cleared output slot.
func step(c systolic.Cell, in systolic.Inputs) systolic.Outputs {
	var out systolic.Outputs
	c.Step(&in, &out)
	return out
}

func TestOpApply(t *testing.T) {
	cases := []struct {
		op   Op
		a, b relation.Element
		want bool
	}{
		{EQ, 1, 1, true}, {EQ, 1, 2, false},
		{NE, 1, 2, true}, {NE, 1, 1, false},
		{LT, 1, 2, true}, {LT, 2, 2, false},
		{LE, 2, 2, true}, {LE, 3, 2, false},
		{GT, 3, 2, true}, {GT, 2, 2, false},
		{GE, 2, 2, true}, {GE, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("%d %v %d = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	if Op(99).Apply(1, 1) {
		t.Error("invalid op should be false")
	}
	if Op(99).String() != "op?" || EQ.String() != "=" || GE.String() != ">=" {
		t.Error("op strings wrong")
	}
}

func TestCompareCellDataflow(t *testing.T) {
	// Figure 3-2: a down, b up, t right with AND of equality.
	out := step(Compare{}, systolic.Inputs{N: val(5), S: val(5), W: flag(true)})
	if !out.S.HasVal || out.S.Val != 5 {
		t.Error("a did not continue down")
	}
	if !out.N.HasVal || out.N.Val != 5 {
		t.Error("b did not continue up")
	}
	if !out.E.HasFlag || !out.E.Flag {
		t.Error("equal elements with TRUE input must emit TRUE")
	}
	out = step(Compare{}, systolic.Inputs{N: val(5), S: val(6), W: flag(true)})
	if out.E.Flag {
		t.Error("unequal elements must emit FALSE")
	}
	// A FALSE input stays FALSE even on a match (§3.1's "surprisingly
	// useful" property).
	out = step(Compare{}, systolic.Inputs{N: val(5), S: val(5), W: flag(false)})
	if out.E.Flag {
		t.Error("FALSE initial input must stay FALSE")
	}
	// No boolean input, no boolean output.
	out = step(Compare{}, systolic.Inputs{N: val(5), S: val(5)})
	if out.E.Present() {
		t.Error("t emitted with no t input")
	}
}

func TestThetaCellOps(t *testing.T) {
	out := step(Theta{Op: GT}, systolic.Inputs{N: val(5), S: val(3), W: flag(true)})
	if !out.E.Flag {
		t.Error("5 > 3 should emit TRUE")
	}
	out = step(Theta{Op: LT}, systolic.Inputs{N: val(5), S: val(3), W: flag(true)})
	if out.E.Flag {
		t.Error("5 < 3 should emit FALSE")
	}
}

func TestAccumulateCell(t *testing.T) {
	// OR of the two inputs; N continues down.
	cases := []struct{ n, w, want bool }{
		{false, false, false}, {true, false, true}, {false, true, true}, {true, true, true},
	}
	for _, c := range cases {
		out := step(Accumulate{}, systolic.Inputs{N: flag(c.n), W: flag(c.w)})
		if !out.S.HasFlag || out.S.Flag != c.want {
			t.Errorf("accumulate(%v, %v) = %v, want %v", c.n, c.w, out.S, c.want)
		}
	}
	// Not busy: pass the accumulator through.
	out := step(Accumulate{}, systolic.Inputs{N: flag(true)})
	if !out.S.HasFlag || !out.S.Flag {
		t.Error("idle accumulation cell must pass t_i down")
	}
	// Orphan from the left is forwarded rather than dropped.
	out = step(Accumulate{}, systolic.Inputs{W: flag(true)})
	if !out.S.HasFlag {
		t.Error("orphan t_ij dropped")
	}
}

func TestDividendStoreCell(t *testing.T) {
	c := &DividendStore{X: 7}
	out := step(c, systolic.Inputs{S: val(7)})
	if !out.N.HasVal || out.N.Val != 7 {
		t.Error("z did not continue up")
	}
	if !out.E.HasFlag || !out.E.Flag {
		t.Error("match not signalled")
	}
	out = step(c, systolic.Inputs{S: val(8)})
	if out.E.Flag {
		t.Error("non-match signalled TRUE")
	}
	c.Reset()
	if c.X != 7 {
		t.Error("Reset cleared the preloaded element")
	}
}

func TestDividendGateCell(t *testing.T) {
	// Match: y passes to the right.
	out := step(DividendGate{}, systolic.Inputs{S: val(42), W: flag(true)})
	if !out.E.HasVal || out.E.Val != 42 {
		t.Error("matched y not emitted")
	}
	if !out.N.HasVal || out.N.Val != 42 {
		t.Error("y did not continue up")
	}
	// No match: null emitted.
	out = step(DividendGate{}, systolic.Inputs{S: val(42), W: flag(false)})
	if !out.E.HasVal || out.E.Val != relation.Null {
		t.Error("unmatched y must become the null value")
	}
	// Probe passes up and right.
	out = step(DividendGate{}, systolic.Inputs{S: flag(true)})
	if !out.N.HasFlag || !out.E.HasFlag {
		t.Error("probe not forwarded up and right")
	}
}

func TestDivisorCell(t *testing.T) {
	c := &Divisor{Y: 9}
	if c.matched {
		t.Error("fresh cell already matched")
	}
	out := step(c, systolic.Inputs{W: val(5)})
	if !out.E.HasVal || out.E.Val != 5 {
		t.Error("y not forwarded")
	}
	if c.matched {
		t.Error("non-matching y set the register")
	}
	step(c, systolic.Inputs{W: val(9)})
	if !c.matched {
		t.Error("matching y did not set the register")
	}
	// Null values never match.
	c2 := &Divisor{Y: relation.Null}
	step(c2, systolic.Inputs{W: systolic.ValToken(relation.Null, systolic.Tag{})})
	if c2.matched {
		t.Error("null matched null")
	}
	// AND probe.
	out = step(c, systolic.Inputs{W: flag(true)})
	if !out.E.HasFlag || !out.E.Flag {
		t.Error("probe AND matched register wrong")
	}
	c.Reset()
	if c.matched {
		t.Error("Reset did not clear the register")
	}
	out = step(c, systolic.Inputs{W: flag(true)})
	if out.E.Flag {
		t.Error("probe TRUE through unmatched cell")
	}
}

func TestStoredCompareCell(t *testing.T) {
	c := &StoredCompare{B: 4, Op: EQ}
	out := step(c, systolic.Inputs{N: val(4), W: flag(true)})
	if !out.E.HasFlag || !out.E.Flag {
		t.Error("stored compare missed a match")
	}
	if !out.S.HasVal {
		t.Error("a did not continue down")
	}
	out = step(c, systolic.Inputs{N: val(5), W: flag(true)})
	if out.E.Flag {
		t.Error("stored compare false positive")
	}
}

func TestCompareCellEquivalentToSpec(t *testing.T) {
	// Property: tOUT == tIN && (a == b) for all inputs.
	f := func(a, b int16, tin bool) bool {
		out := step(Compare{}, systolic.Inputs{N: val(int64(a)), S: val(int64(b)), W: flag(tin)})
		return out.E.Flag == (tin && a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
