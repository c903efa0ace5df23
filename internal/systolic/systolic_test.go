package systolic

import (
	"slices"
	"testing"

	"systolicdb/internal/relation"
)

// passCell forwards every token straight across.
type passCell struct{}

func (passCell) Step(in *Inputs, out *Outputs) {
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
}
func (passCell) Reset() {}

// countCell counts how many times it stepped with work present.
type countCell struct{ active int }

func (c *countCell) Step(in *Inputs, _ *Outputs) {
	if in.Any() {
		c.active++
	}
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

// TestReleaseTwice pins that a second Release of one grid does nothing:
// were the grid pooled twice, the next two NewGrid calls would hand one
// grid to two runs.
func TestReleaseTwice(t *testing.T) {
	build := func(_, _ int) Cell { return passCell{} }
	for range 8 {
		g, err := NewGrid(3, 5, build)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
		g.Release()
		a, _ := NewGrid(3, 5, build)
		b, _ := NewGrid(3, 5, build)
		if a == b {
			t.Fatal("two NewGrid calls returned one grid released twice")
		}
		a.Release()
		b.Release()
	}
}

// TestReleaseDropsReferences pins that a released grid holds none of its
// run's cells, feeders, sinks or tracer, so the pool keeps no driver data
// alive.
func TestReleaseDropsReferences(t *testing.T) {
	g, err := NewGrid(2, 2, func(_, _ int) Cell { return &countCell{} })
	if err != nil {
		t.Fatal(err)
	}
	feed := func(int) Token { return ValToken(1, Tag{}) }
	if err := g.Feed(Port{Side: North, Index: 1, Window: Window{Count: 1}, Feed: feed}); err != nil {
		t.Fatal(err)
	}
	if err := g.Drain(South, 1, func(int, Token) {}); err != nil {
		t.Fatal(err)
	}
	g.SetTracer(tracerFunc(func(Snapshot) {}))
	g.Run(3)
	g.Release()
	for i, c := range g.cells {
		if c != nil {
			t.Errorf("released grid holds cell %d", i)
		}
	}
	for port := range g.feeds {
		if g.feeds[port].Feed != nil || g.sinks[port] != nil {
			t.Errorf("released grid holds the feeder or sink of port %d", port)
		}
	}
	if g.trace != nil {
		t.Error("released grid holds its tracer")
	}
}

// TestNilCellReleasesGrid pins that NewGrid gives back the released grid
// it took when build returns a nil cell, so the next NewGrid of the shape
// takes it again.
func TestNilCellReleasesGrid(t *testing.T) {
	pass := func(_, _ int) Cell { return passCell{} }
	hole := func(r, c int) Cell {
		if r == 1 && c == 2 {
			return nil
		}
		return passCell{}
	}
	taken := 0
	for range 20 {
		g, err := NewGrid(2, 3, pass)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
		if _, err := NewGrid(2, 3, hole); err == nil {
			t.Fatal("nil cell not rejected")
		}
		h, err := NewGrid(2, 3, pass)
		if err != nil {
			t.Fatal(err)
		}
		if h == g {
			taken++
		}
		if h.cells[5] == nil || len(h.always) != 0 {
			t.Fatalf("grid after a nil cell: cells %v, always %v", h.cells, h.always)
		}
		h.Release()
	}
	if taken == 0 {
		t.Error("a NewGrid that met a nil cell kept the released grid it took")
	}
}

func TestPortValidation(t *testing.T) {
	g, err := NewGrid(2, 3, func(_, _ int) Cell { return passCell{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feed(Port{Side: North, Index: 3}); err == nil {
		t.Error("out-of-range north port not rejected")
	}
	if err := g.Feed(Port{Side: West, Index: 2}); err == nil {
		t.Error("out-of-range west port not rejected")
	}
	if err := g.Drain(Side(9), 0, nil); err == nil {
		t.Error("invalid side not rejected")
	}
	for _, w := range []Window{{First: -1, Count: 1}, {Count: -1}, {Stride: 0, Count: 2}} {
		if err := g.Feed(Port{Side: East, Index: 1, Window: w, Feed: func(int) Token { return Empty }}); err == nil {
			t.Errorf("window %+v not rejected", w)
		}
	}
	if err := g.Feed(Port{Side: East, Index: 1, Window: Window{First: 0, Stride: 2, Count: 3}, Feed: func(int) Token { return Empty }}); err != nil {
		t.Errorf("valid port rejected: %v", err)
	}
}

// once feeds tok at pulse 0 only.
func once(side Side, index int, tok Token) Port {
	return Port{Side: side, Index: index, Window: Window{Count: 1}, Feed: func(int) Token { return tok }}
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
	if err := g.Feed(once(North, 0, ValToken(relation.Element(77), Tag{}))); err != nil {
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
	if err := g.Feed(once(North, 0, ValToken(1, Tag{})), once(South, 0, ValToken(2, Tag{}))); err != nil {
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

// TestFeedBetweenRuns: a port registered after some pulses have run is
// fed from the next pulse on, at the pulses of its window not yet past.
func TestFeedBetweenRuns(t *testing.T) {
	g, err := NewGrid(1, 2, func(_, _ int) Cell { return passCell{} })
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := g.Drain(East, 0, func(p int, tok Token) { got = append(got, p, int(tok.Val)) }); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	g.Run(4)
	if err := g.Feed(Port{Side: West, Window: Window{First: 1, Stride: 3, Count: 3},
		Feed: func(p int) Token { return ValToken(relation.Element(p), Tag{}) }}); err != nil {
		t.Fatal(err)
	}
	g.Run(6)
	// Pulse 1 is past; pulses 4 and 7 are fed and leave one pulse later.
	if want := []int{5, 4, 8, 7}; !slices.Equal(got, want) {
		t.Errorf("east deliveries (pulse, value) = %v, want %v", got, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	g, err := NewGrid(2, 2, func(_, _ int) Cell { return &countCell{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feed(once(North, 0, ValToken(5, Tag{}))); err != nil {
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
	if (&Inputs{}).Any() {
		t.Error("empty inputs reported busy")
	}
	if !(&Inputs{E: FlagToken(false, Tag{})}).Any() {
		t.Error("flag input not reported")
	}
}
