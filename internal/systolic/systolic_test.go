package systolic

import (
	"testing"

	"systolicdb/internal/relation"
)

// passCell forwards every token straight across.
type passCell struct{}

func (passCell) Step(in Inputs) Outputs {
	var out Outputs
	if in.N.Present() {
		out.S = in.N
	}
	if in.S.Present() {
		out.N = in.S
	}
	if in.W.Present() {
		out.E = in.W
	}
	if in.E.Present() {
		out.W = in.E
	}
	return out
}
func (passCell) Reset() {}

// countCell counts how many times it stepped with work present.
type countCell struct{ active int }

func (c *countCell) Step(in Inputs) Outputs {
	if in.Any() {
		c.active++
	}
	return Outputs{}
}
func (c *countCell) Reset() { c.active = 0 }

func TestTokenString(t *testing.T) {
	cases := []struct {
		tok  Token
		want string
	}{
		{Empty, "."},
		{ValToken(7, Tag{}), "7"},
		{FlagToken(true, Tag{}), "T"},
		{FlagToken(false, Tag{}), "F"},
		{Token{Val: 3, Flag: true, HasVal: true, HasFlag: true}, "3/true"},
	}
	for _, c := range cases {
		if got := c.tok.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 3, func(_, _ int) Cell { return passCell{} }); err == nil {
		t.Error("zero rows not rejected")
	}
	if _, err := NewGrid(3, -1, func(_, _ int) Cell { return passCell{} }); err == nil {
		t.Error("negative cols not rejected")
	}
	if _, err := NewGrid(1, 1, func(_, _ int) Cell { return nil }); err == nil {
		t.Error("nil cell not rejected")
	}
}

func TestPortValidation(t *testing.T) {
	g, err := NewGrid(2, 3, func(_, _ int) Cell { return passCell{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feed(North, 3, nil); err == nil {
		t.Error("out-of-range north port not rejected")
	}
	if err := g.Feed(West, 2, nil); err == nil {
		t.Error("out-of-range west port not rejected")
	}
	if err := g.Drain(Side(9), 0, nil); err == nil {
		t.Error("invalid side not rejected")
	}
	if err := g.Feed(East, 1, func(int) Token { return Empty }); err != nil {
		t.Errorf("valid port rejected: %v", err)
	}
}

func TestTokenTraversalLatency(t *testing.T) {
	// A token fed into the top of a column of R pass cells emerges from
	// the bottom R-1 pulses later (it is latched by row 0 at the feed
	// pulse, and the bottom row's output is drained the pulse it is
	// latched there).
	const rows = 5
	g, err := NewGrid(rows, 1, func(_, _ int) Cell { return passCell{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feed(North, 0, func(p int) Token {
		if p == 0 {
			return ValToken(relation.Element(77), Tag{})
		}
		return Empty
	}); err != nil {
		t.Fatal(err)
	}
	gotPulse := -1
	if err := g.Drain(South, 0, func(p int, tok Token) {
		if tok.HasVal {
			gotPulse = p
		}
	}); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	g.Run(rows + 2)
	if gotPulse != rows-1 {
		t.Errorf("token exited at pulse %d, want %d", gotPulse, rows-1)
	}
}

func TestCounterFlowTokensPass(t *testing.T) {
	// Tokens moving in opposite directions through a linear column must
	// both arrive; the double-buffered wires must not drop or duplicate.
	const rows = 4
	g, err := NewGrid(rows, 1, func(_, _ int) Cell { return passCell{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feed(North, 0, func(p int) Token {
		if p == 0 {
			return ValToken(1, Tag{})
		}
		return Empty
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Feed(South, 0, func(p int) Token {
		if p == 0 {
			return ValToken(2, Tag{})
		}
		return Empty
	}); err != nil {
		t.Fatal(err)
	}
	var gotSouth, gotNorth relation.Element
	if err := g.Drain(South, 0, func(_ int, tok Token) {
		if tok.HasVal {
			gotSouth = tok.Val
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Drain(North, 0, func(_ int, tok Token) {
		if tok.HasVal {
			gotNorth = tok.Val
		}
	}); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	g.Run(rows + 1)
	if gotSouth != 1 || gotNorth != 2 {
		t.Errorf("counter-flow results: south=%d north=%d, want 1 and 2", gotSouth, gotNorth)
	}
}

func TestStatsAccounting(t *testing.T) {
	g, err := NewGrid(2, 2, func(_, _ int) Cell { return &countCell{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feed(North, 0, func(p int) Token {
		if p == 0 {
			return ValToken(5, Tag{})
		}
		return Empty
	}); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	g.Run(3)
	st := g.Stats()
	if st.Pulses != 3 || st.Cells != 4 || st.CellSteps != 12 {
		t.Errorf("stats = %+v", st)
	}
	// Only cell (0,0) at pulse 0 had input (countCell emits nothing).
	if st.ActiveSteps != 1 {
		t.Errorf("ActiveSteps = %d, want 1", st.ActiveSteps)
	}
	if u := st.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %f", u)
	}
	if (Stats{}).Utilization() != 0 {
		t.Error("zero stats utilization should be 0")
	}
}

func TestResetClearsState(t *testing.T) {
	g, err := NewGrid(1, 1, func(_, _ int) Cell { return &countCell{} })
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	g.Run(5)
	g.Reset()
	if st := g.Stats(); st.Pulses != 0 || st.ActiveSteps != 0 {
		t.Errorf("Reset left stats %+v", st)
	}
	c := g.cells[0].(*countCell)
	if c.active != 0 {
		t.Error("Reset did not reset the cell")
	}
}

func TestTracerObservesEveryPulse(t *testing.T) {
	g, err := NewGrid(2, 2, func(_, _ int) Cell { return passCell{} })
	if err != nil {
		t.Fatal(err)
	}
	var pulses []int
	g.SetTracer(tracerFunc(func(s Snapshot) {
		pulses = append(pulses, s.Pulse)
		if s.Rows != 2 || s.Cols != 2 {
			t.Errorf("snapshot dims %dx%d", s.Rows, s.Cols)
		}
	}))
	g.Reset()
	g.Run(3)
	if len(pulses) != 3 || pulses[0] != 0 || pulses[2] != 2 {
		t.Errorf("tracer pulses = %v", pulses)
	}
}

type tracerFunc func(Snapshot)

func (f tracerFunc) Observe(s Snapshot) { f(s) }

func TestSideString(t *testing.T) {
	for side, want := range map[Side]string{North: "north", South: "south", East: "east", West: "west"} {
		if side.String() != want {
			t.Errorf("%d.String() = %q", side, side.String())
		}
	}
}

func TestInputsAny(t *testing.T) {
	if (Inputs{}).Any() {
		t.Error("empty inputs reported busy")
	}
	if !(Inputs{E: FlagToken(false, Tag{})}).Any() {
		t.Error("flag input not reported")
	}
}
