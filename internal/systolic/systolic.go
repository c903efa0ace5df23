// Package systolic implements the synchronous processor-array simulator
// underlying every array in Kung & Lehman (1980).
//
// The model follows paper §2.1-2.2 exactly: a rectangular, orthogonally
// connected grid of processors (linear arrays are grids with one column).
// Each processor has input lines and output lines on its four sides. Time
// advances in global "pulses". At each pulse every processor latches the
// tokens on its input lines, performs its short computation, and presents
// new tokens on its output lines, which its neighbours will latch at the
// next pulse. All data therefore moves synchronously at one cell per pulse,
// and a cell's behaviour is a pure function of its latched inputs and
// internal registers — the simulator double-buffers all wires in two output
// planes, the outputs presented at the previous pulse (which every cell
// latches from) and those presented at this one, so that evaluation order
// within a pulse is immaterial.
//
// Tokens entering the grid boundary are produced by Feeders (the "staggered"
// input schedules of §3) and tokens leaving the boundary are delivered to
// Sinks. An optional Tracer observes the latched state each pulse, enabling
// the data-movement snapshots of Figures 3-4, 4-1 and 7-2.
package systolic

import (
	"fmt"
	"sync"

	"systolicdb/internal/obs"
	"systolicdb/internal/relation"
)

// Metric handles are cached at package level so the per-Run recording cost
// is a handful of atomic adds, never a registry lookup. All grids in the
// process accumulate into the same obs.Default series; per-run figures
// remain available from Grid.Stats.
var (
	mRuns        = obs.Default.Counter("systolic_runs_total", nil)
	mPulses      = obs.Default.Counter("systolic_pulses_total", nil)
	mCellSteps   = obs.Default.Counter("systolic_cell_steps_total", nil)
	mActiveSteps = obs.Default.Counter("systolic_active_steps_total", nil)
	mUtilization = obs.Default.Gauge("systolic_last_utilization", nil)
	mRunSeconds  = obs.Default.Timer("systolic_run_host_seconds", nil)
)

// Tag carries provenance for a token: the tuple and element it originated
// from. Tags exist only for the array drivers' schedule cross-checks and for
// tests that validate the positional timing schedules; cell algorithms never
// read them, because the hardware they model has no such information. A tag
// holds no pointer, so a wire write is a plain 24-byte token copy.
type Tag struct {
	Tuple int32 // tuple index within the relation (0-based)
	Elem  int32 // element index within the tuple (0-based)
	Valid bool
}

// Token is the value carried by one wire during one pulse. A token may
// carry a data element (HasVal), a boolean (HasFlag), both, or neither (an
// idle wire). The comparison array's vertical wires carry elements and its
// horizontal wires carry booleans; the division array's horizontal wires
// carry both (the y value and its match bit), which is why a single token
// type supports both payloads.
type Token struct {
	Val     relation.Element
	Flag    bool
	HasVal  bool
	HasFlag bool
	Tag     Tag
}

// Empty is the idle-wire token.
var Empty Token

// ValToken returns a data-carrying token.
func ValToken(v relation.Element, tag Tag) Token {
	return Token{Val: v, HasVal: true, Tag: tag}
}

// FlagToken returns a boolean-carrying token.
func FlagToken(b bool, tag Tag) Token {
	return Token{Flag: b, HasFlag: true, Tag: tag}
}

// Present reports whether the token carries any payload.
func (t Token) Present() bool { return t.HasVal || t.HasFlag }

// String renders the token compactly for traces.
func (t Token) String() string {
	switch {
	case t.HasVal && t.HasFlag:
		return fmt.Sprintf("%d/%v", t.Val, t.Flag)
	case t.HasVal:
		return fmt.Sprintf("%d", t.Val)
	case t.HasFlag:
		if t.Flag {
			return "T"
		}
		return "F"
	}
	return "."
}

// Inputs holds the tokens latched on a cell's four input lines at one pulse
// (paper Figure 2-2: the processor prototype's input lines).
type Inputs struct {
	N, S, E, W Token
}

// Any reports whether any input line carries a payload this pulse.
func (in Inputs) Any() bool {
	return in.N.Present() || in.S.Present() || in.E.Present() || in.W.Present()
}

// Outputs holds the tokens a cell presents on its four output lines.
type Outputs struct {
	N, S, E, W Token
}

// Cell is the algorithm executed by one processor (paper §2.2: "it is the
// algorithm actually executed by each processor that determines the function
// of the array"). Step must be a pure function of the latched inputs and
// the cell's internal registers. Reset restores the power-on register
// state, allowing a grid to be reused across runs.
type Cell interface {
	Step(in Inputs) Outputs
	Reset()
}

// Wrap transforms the cell built for (row, col) — the hook the fault layer
// uses to corrupt a grid's processors without the array drivers knowing
// anything about fault models. A nil Wrap is the identity.
type Wrap func(row, col int, cell Cell) Cell

// BuildWith composes a cell builder with an optional wrapper.
func BuildWith(build func(row, col int) Cell, wrap Wrap) func(row, col int) Cell {
	if wrap == nil {
		return build
	}
	return func(r, c int) Cell { return wrap(r, c, build(r, c)) }
}

// Feeder produces the token entering one boundary port at each pulse. The
// staggered input schedules of §3 are implemented as feeders.
type Feeder func(pulse int) Token

// Sink receives a token leaving one boundary port at a given pulse.
type Sink func(pulse int, tok Token)

// Side identifies one side of the grid for feeder/sink registration.
type Side int

// Grid sides.
const (
	North Side = iota // top edge: feeds the N inputs of row 0 / receives N outputs
	South             // bottom edge
	East              // right edge
	West              // left edge
)

func (s Side) String() string {
	switch s {
	case North:
		return "north"
	case South:
		return "south"
	case East:
		return "east"
	case West:
		return "west"
	}
	return fmt.Sprintf("side(%d)", int(s))
}

// Stats aggregates activity counters for a run, used by the §8 utilization
// experiments (E14) and by the perf model cross-checks.
type Stats struct {
	Pulses      int // pulses executed
	Cells       int // number of processors in the grid
	CellSteps   int // Pulses * Cells
	ActiveSteps int // cell-steps during which at least one input was present
}

// Utilization returns ActiveSteps / CellSteps, the fraction of processor
// time spent with work available (paper §8: "only half of the processors in
// a systolic array are busy at any one time").
func (s Stats) Utilization() float64 {
	if s.CellSteps == 0 {
		return 0
	}
	return float64(s.ActiveSteps) / float64(s.CellSteps)
}

// Snapshot is the latched state of the whole grid at one pulse: the inputs
// every cell latched, offered to the Tracer once all cells have stepped and
// before boundary outputs are drained. The Latched slices are reused across
// pulses: a Tracer that retains snapshots must deep-copy them during Observe
// (trace.Recorder does).
type Snapshot struct {
	Pulse   int
	Rows    int
	Cols    int
	Latched [][]Inputs // [row][col]
}

// Tracer observes per-pulse snapshots (see cmd/trace).
type Tracer interface {
	Observe(Snapshot)
}

// Grid is a rows x cols orthogonally connected processor array (Figure
// 2-1a); rows or cols of 1 give the linearly connected array (Figure 2-1b).
type Grid struct {
	rows, cols int
	cells      []Cell // row-major

	// feeders and sinks are indexed by side, then by port: the column for
	// North/South, the row for East/West. A nil entry is an unfed port.
	feeders [4][]Feeder
	sinks   [4][]Sink

	prev, outs []Outputs // row-major output planes: previous pulse, this pulse
	stats      Stats
	trace      Tracer
	workers    int        // goroutines used per pulse (<=1: serial); set only by tests
	latchBuf   [][]Inputs // this pulse's latched inputs, filled only for a tracer
}

// NewGrid builds a grid. The build function supplies the cell for each
// (row, col); it must not return nil.
func NewGrid(rows, cols int, build func(row, col int) Cell) (*Grid, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("systolic: grid dimensions %dx%d must be positive", rows, cols)
	}
	g := &Grid{
		rows:  rows,
		cols:  cols,
		cells: make([]Cell, rows*cols),
		prev:  make([]Outputs, rows*cols),
		outs:  make([]Outputs, rows*cols),
	}
	for side, ports := range [4]int{North: cols, South: cols, East: rows, West: rows} {
		g.feeders[side] = make([]Feeder, ports)
		g.sinks[side] = make([]Sink, ports)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cell := build(r, c)
			if cell == nil {
				return nil, fmt.Errorf("systolic: build returned nil cell at (%d,%d)", r, c)
			}
			g.cells[r*cols+c] = cell
		}
	}
	return g, nil
}

// Feed registers the feeder for a boundary input port. For North/South the
// index is a column; for East/West it is a row. Feeding a port twice
// replaces the earlier feeder.
func (g *Grid) Feed(side Side, index int, f Feeder) error {
	if err := g.checkPort(side, index); err != nil {
		return err
	}
	g.feeders[side][index] = f
	return nil
}

// Drain registers the sink for a boundary output port.
func (g *Grid) Drain(side Side, index int, s Sink) error {
	if err := g.checkPort(side, index); err != nil {
		return err
	}
	g.sinks[side][index] = s
	return nil
}

func (g *Grid) checkPort(side Side, index int) error {
	if side < North || side > West {
		return fmt.Errorf("systolic: invalid side %v", side)
	}
	if limit := len(g.feeders[side]); index < 0 || index >= limit {
		return fmt.Errorf("systolic: port %v[%d] out of range [0,%d)", side, index, limit)
	}
	return nil
}

// SetTracer installs a tracer (nil disables tracing).
func (g *Grid) SetTracer(t Tracer) { g.trace = t }

// Reset clears all wires and statistics and resets every cell's registers.
func (g *Grid) Reset() {
	for i, cell := range g.cells {
		cell.Reset()
		g.prev[i], g.outs[i] = Outputs{}, Outputs{}
	}
	g.stats = Stats{Cells: g.rows * g.cols}
}

// Stats returns the accumulated run statistics.
func (g *Grid) Stats() Stats { return g.stats }

// feed returns the boundary token for a port, or Empty if it is unfed.
func (g *Grid) feed(side Side, index, pulse int) Token {
	if f := g.feeders[side][index]; f != nil {
		return f(pulse)
	}
	return Empty
}

// drain delivers a boundary token to its sink, if any.
func (g *Grid) drain(side Side, index, pulse int, tok Token) {
	if s := g.sinks[side][index]; s != nil {
		s(pulse, tok)
	}
}

// Run advances the grid by the given number of pulses. It may be called
// repeatedly; pulse numbering continues across calls until Reset. Every
// call records its pulse, cell-step and host wall-clock cost into the
// obs.Default metrics registry.
func (g *Grid) Run(pulses int) {
	if g.stats.Cells == 0 {
		g.stats.Cells = g.rows * g.cols
	}
	before := g.stats
	stop := mRunSeconds.Start()
	for p := 0; p < pulses; p++ {
		g.step()
	}
	stop()
	mRuns.Inc()
	mPulses.Add(int64(g.stats.Pulses - before.Pulses))
	mCellSteps.Add(int64(g.stats.CellSteps - before.CellSteps))
	mActiveSteps.Add(int64(g.stats.ActiveSteps - before.ActiveSteps))
	mUtilization.Set(g.stats.Utilization())
}

// step executes one pulse: one pass over the rows latches and steps every
// cell, the tracer sees the latched inputs, boundary outputs are drained,
// and the output planes swap.
func (g *Grid) step() {
	pulse := g.stats.Pulses
	if g.trace != nil && g.latchBuf == nil {
		g.latchBuf = make([][]Inputs, g.rows)
		for r := range g.latchBuf {
			g.latchBuf[r] = make([]Inputs, g.cols)
		}
	}

	if workers := min(g.workers, g.rows); workers >= 2 {
		// Rows are partitioned over goroutines. Feeders may be shared
		// between edge rows, so they must be pure functions of the pulse
		// (all schedule feeders in this repository are).
		g.stats.ActiveSteps += g.forEachRowChunk(workers, func(r0, r1 int) int { return g.stepRows(r0, r1, pulse) })
	} else {
		g.stats.ActiveSteps += g.stepRows(0, g.rows, pulse)
	}
	g.stats.CellSteps += g.rows * g.cols
	if g.trace != nil {
		g.trace.Observe(Snapshot{Pulse: pulse, Rows: g.rows, Cols: g.cols, Latched: g.latchBuf})
	}

	// An output presented at pulse p is considered to leave the array at
	// pulse p (it would be latched by an external consumer at p+1; the
	// off-by-one is uniform and hidden inside the array drivers).
	last := (g.rows - 1) * g.cols
	for c := 0; c < g.cols; c++ {
		g.drain(North, c, pulse, g.outs[c].N)
		g.drain(South, c, pulse, g.outs[last+c].S)
	}
	for r := 0; r < g.rows; r++ {
		g.drain(West, r, pulse, g.outs[r*g.cols].W)
		g.drain(East, r, pulse, g.outs[r*g.cols+g.cols-1].E)
	}

	g.prev, g.outs = g.outs, g.prev
	g.stats.Pulses++
}

// stepRows runs one pulse over rows [r0, r1): each cell latches its inputs
// from the previous pulse's output plane (or a boundary feeder), steps, and
// presents its outputs on this pulse's plane. It returns how many of the
// cells had an input present.
func (g *Grid) stepRows(r0, r1, pulse int) int {
	active := 0
	rows, cols, prev := g.rows, g.cols, g.prev
	for r := r0; r < r1; r++ {
		for c, i := 0, r*cols; c < cols; c, i = c+1, i+1 {
			var in Inputs
			if r == 0 {
				in.N = g.feed(North, c, pulse)
			} else {
				in.N = prev[i-cols].S
			}
			if r == rows-1 {
				in.S = g.feed(South, c, pulse)
			} else {
				in.S = prev[i+cols].N
			}
			if c == 0 {
				in.W = g.feed(West, r, pulse)
			} else {
				in.W = prev[i-1].E
			}
			if c == cols-1 {
				in.E = g.feed(East, r, pulse)
			} else {
				in.E = prev[i+1].W
			}
			if in.Any() {
				active++
			}
			if g.trace != nil {
				g.latchBuf[r][c] = in
			}
			g.outs[i] = g.cells[i].Step(in)
		}
	}
	return active
}

// forEachRowChunk runs fn over ~equal row ranges on the given number of
// goroutines and returns the summed results.
func (g *Grid) forEachRowChunk(workers int, fn func(r0, r1 int) int) int {
	chunk := (g.rows + workers - 1) / workers
	results := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r0 := w * chunk
		r1 := min(r0+chunk, g.rows)
		if r0 >= r1 {
			break
		}
		wg.Add(1)
		go func(w, r0, r1 int) {
			defer wg.Done()
			results[w] = fn(r0, r1)
		}(w, r0, r1)
	}
	wg.Wait()
	total := 0
	for _, r := range results {
		total += r
	}
	return total
}
