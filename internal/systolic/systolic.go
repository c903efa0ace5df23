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
// within a pulse is immaterial. A third plane holds the inputs every cell
// latched this pulse; cells step in place, reading their slot of the latch
// plane and writing their slot of this pulse's output plane, so no token is
// copied through the Cell interface.
//
// Every processor is counted at every pulse, but the grid latches and
// steps only the cells a token reaches: a processor of the paper's arrays
// stepped on four idle lines changes nothing and presents nothing, so
// skipping it is the same synchronous model (§8: "only half of the
// processors in a systolic array are busy at any one time"). A cell that
// may emit with idle inputs says so through Visited; a cell that needs the
// pulse number reads the grid's clock through Clocked.
//
// Tokens entering the grid boundary are produced by Feeders (the "staggered"
// input schedules of §3), each registered with the Window of pulses at
// which it feeds its port, and present tokens leaving the boundary are
// delivered to Sinks. An optional Tracer observes the latched state each
// pulse, enabling the data-movement snapshots of Figures 3-4, 4-1 and 7-2.
//
// The package owns every grid's memory. An array driver builds a grid
// with NewGrid for one run and gives it back with Release when the run
// ends; NewGrid takes a released grid of the same size class when one is
// free, as §8's one physical array is fed again for each sub-problem. Only
// the planes and port tables are reused: NewGrid builds every cell anew,
// so no register carries over from one run to the next.
package systolic

import (
	"fmt"
	"math/bits"
	"slices"
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

// Any reports whether any input line carries a payload this pulse. It
// reads through a pointer so that the grid's per-cell activity count copies
// nothing out of the latch plane.
func (in *Inputs) Any() bool {
	return in.N.Present() || in.S.Present() || in.E.Present() || in.W.Present()
}

// Outputs holds the tokens a cell presents on its four output lines.
type Outputs struct {
	N, S, E, W Token
}

// Cell is the algorithm executed by one processor (paper §2.2: "it is the
// algorithm actually executed by each processor that determines the function
// of the array"). Step must be a pure function of the latched inputs and
// the cell's internal registers. The grid passes in this cell's slot of its
// latch plane and out its slot of this pulse's output plane, cleared before
// the call: Step sets the lines it drives and leaves the rest idle. Both
// point into grid-owned planes that the next pulse overwrites, and that
// Release hands to the next grid, so Step must not retain either pointer.
// The grid steps a cell only at a pulse where one of its input lines
// carries a token, unless it is Visited every pulse. A cell belongs to the
// one run of the grid NewGrid built it for, and starts that run in its
// power-on state: Release drops it, and the next NewGrid builds its own
// cells.
type Cell interface {
	Step(in *Inputs, out *Outputs)
}

// Visited is implemented by a cell that may present a token with idle
// inputs: a register that releases what it latched a pulse earlier, as in
// the pattern-match chip. The grid visits a cell whose EveryPulse reports
// true at every pulse. It visits every other cell only at a pulse where one
// of its input lines carries a token, so that cell's Step on idle inputs
// must change nothing and present nothing — true of every processor of the
// paper's arrays, whose registers move only when data arrives. NewGrid asks
// each cell once.
type Visited interface {
	EveryPulse() bool
}

// Clocked is implemented by a cell that needs the number of the pulse it
// steps at, as the fault layer's wrapper does to decide whether to fire.
// NewGrid hands such a cell the grid's pulse counter once: during Step it
// reads the current pulse, 0 at the grid's first. The cell must not write
// it.
type Clocked interface {
	Clock(pulse *int)
}

// Wrap transforms the cell built for (row, col) — the hook the fault layer
// uses to corrupt a grid's processors without the array drivers knowing
// anything about fault models. A nil Wrap is the identity. A wrapper cell
// reports its inner cell's EveryPulse, so the grid visits it whenever it
// would visit the inner cell.
type Wrap func(row, col int, cell Cell) Cell

// BuildWith composes a cell builder with an optional wrapper.
func BuildWith(build func(row, col int) Cell, wrap Wrap) func(row, col int) Cell {
	if wrap == nil {
		return build
	}
	return func(r, c int) Cell { return wrap(r, c, build(r, c)) }
}

// Feeder produces the token entering one boundary port at a pulse of the
// port's Window. The staggered input schedules of §3 are implemented as
// feeders.
type Feeder func(pulse int) Token

// Window is the set of pulses at which a boundary port is fed: Count
// pulses, Stride apart, the first at First. Each staggered schedule of §3
// feeds a port at a fixed spacing — two pulses on the counter-flow
// arrays, one on the others — so one window describes it.
type Window struct {
	First, Stride, Count int
}

// Port registers one boundary input port: where it is (for North/South
// the Index is a column; for East/West it is a row), the Window of pulses
// its schedule feeds, and the Feeder the grid calls at those pulses and at
// no other.
type Port struct {
	Side  Side
	Index int
	Window
	Feed Feeder
}

// Sink receives a token leaving one boundary port at a given pulse. It is
// called only for a present token. Within one pulse, sinks are called
// north and south by column, then west and east by row.
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
	CellSteps   int // Pulses * Cells: every processor is counted at every pulse, visited or not
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
// every cell latched (all idle for a cell no token reached), offered to the
// Tracer once all cells have stepped and before boundary outputs are
// drained. Latched holds row views over the grid's latch plane, which the
// next pulse overwrites and Release hands to the next grid: a Tracer that
// retains snapshots must deep-copy them during Observe (trace.Recorder
// does).
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
	cells      []Cell    // row-major
	pos        []cellPos // row and column of each cell

	// Boundary ports are numbered in the order sinks see a pulse's
	// tokens: the north and south ports of column c are 2c and 2c+1, the
	// west and east ports of row r are 2·cols+2r and 2·cols+2r+1.
	feeds   []feed  // by port; a zero Count is an unfed port
	sinks   []Sink  // by port; nil is an undrained port
	bound   []Token // by port: the token fed at this pulse
	fed     []int32 // ports fed at this pulse
	drained []drained
	cal     calendar

	ins        []Inputs   // row-major latch plane: the inputs each cell latched this pulse
	prev, outs []Outputs  // row-major output planes: previous pulse, this pulse
	latched    [][]Inputs // row views over ins, handed to the tracer

	// A pulse visits the cells in visit: those a token reached from a
	// neighbour or a feeder, and the cells in always (those Visited every
	// pulse). mark[i] is one more than the last pulse cell i was scheduled
	// for. Stepping fills next for the following pulse; last holds the
	// cells visited at the previous pulse, whose slots of prev are cleared
	// once latched.
	always, mark      []int32
	visit, next, last []int32

	stats Stats
	trace Tracer

	class int  // size class: the planes have room for 1<<class cells
	free  bool // released and not yet taken again
}

type cellPos struct{ row, col int32 }

// feed is one port's registration, the cell behind the port, and its
// place in the calendar: the next pulse of its window to wake and how many
// wake-ups remain.
type feed struct {
	Port
	cell, next, left int
}

// drained is a present token that left the grid through a drained port.
type drained struct {
	port int32
	tok  Token
}

// calendar wakes each feeder at the pulses of its window and at no other.
// pending holds the ports whose window has not begun, in order of first
// pulse; once begun, a port waits in the ring bucket of its next pulse.
// The ring is one longer than the largest stride, so a port woken at pulse
// p is never filed back into p's own bucket.
type calendar struct {
	armed   bool
	pending []int32
	cursor  int
	ring    [][]int32
}

// NewGrid builds a grid. The build function supplies the cell for each
// (row, col); it must not return nil. The grid's planes and port tables
// come from a released grid of the same size class when one is free (see
// Release), and are allocated otherwise; either way the grid starts with
// every wire idle, no port fed or drained, no tracer and zero Stats. The
// cells are always built anew, so no register outlives the grid that
// held it, and NewGrid asks each cell once for Visited and Clocked.
func NewGrid(rows, cols int, build func(row, col int) Cell) (*Grid, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("systolic: grid dimensions %dx%d must be positive", rows, cols)
	}
	class := bits.Len(uint(rows*cols - 1))
	g, _ := released[class].Get().(*Grid)
	if g == nil {
		g = &Grid{class: class}
	}
	g.fit(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cell := build(r, c)
			if cell == nil {
				g.Release()
				return nil, fmt.Errorf("systolic: build returned nil cell at (%d,%d)", r, c)
			}
			i := r*cols + c
			g.cells[i], g.pos[i] = cell, cellPos{int32(r), int32(c)}
			if v, ok := cell.(Visited); ok && v.EveryPulse() {
				g.always = append(g.always, int32(i))
			}
			if clk, ok := cell.(Clocked); ok {
				clk.Clock(&g.stats.Pulses)
			}
		}
	}
	return g, nil
}

// released holds the grids given back by Release, one pool per size
// class: class k holds grids with planes for up to 1<<k cells, so the
// number of pools is fixed whatever the shapes served, and the GC may
// reclaim any grid a pool holds.
var released [bits.UintSize]sync.Pool

// fit shapes g as a rows x cols grid, allocating the planes of its size
// class if g is new and growing a port table too short for this shape:
// the only place grid memory is allocated. Every slot of a new or
// released grid is idle, so fit clears nothing.
func (g *Grid) fit(rows, cols int) {
	n, ports := rows*cols, 2*(rows+cols)
	if size := 1 << g.class; cap(g.cells) < size {
		g.cells, g.pos = make([]Cell, size), make([]cellPos, size)
		g.ins, g.prev, g.outs = make([]Inputs, size), make([]Outputs, size), make([]Outputs, size)
		g.mark = make([]int32, size)
		g.visit, g.next, g.last = make([]int32, 0, size), make([]int32, 0, size), make([]int32, 0, size)
	}
	if cap(g.feeds) < ports {
		g.feeds, g.sinks, g.bound = make([]feed, ports), make([]Sink, ports), make([]Token, ports)
		g.fed, g.drained = make([]int32, 0, ports), make([]drained, 0, ports)
	}
	if cap(g.latched) < rows {
		g.latched = make([][]Inputs, rows)
	}
	g.rows, g.cols, g.free = rows, cols, false
	g.cells, g.pos, g.mark = g.cells[:n], g.pos[:n], g.mark[:n]
	g.ins, g.prev, g.outs = g.ins[:n], g.prev[:n], g.outs[:n]
	g.feeds, g.sinks, g.bound = g.feeds[:ports], g.sinks[:ports], g.bound[:ports]
	g.latched = g.latched[:rows]
	for r := range g.latched {
		g.latched[r] = g.ins[r*cols : (r+1)*cols : (r+1)*cols]
	}
}

// Release gives the grid back for a later NewGrid to reuse, as the one
// physical array of §8 is fed again for each sub-problem. It idles every
// wire, port token, mark and visit list, disarms the calendar, zeroes the
// stats and drops the cells, feeders, sinks and tracer, so a released grid
// holds nothing of its run. After Release the caller must not use the
// grid or any Snapshot's Latched views; a driver reads Stats first (a
// deferred Release runs after the return values are read). A second
// Release of the same grid does nothing.
func (g *Grid) Release() {
	if g.free {
		return
	}
	clear(g.ins)
	clear(g.prev)
	clear(g.outs)
	clear(g.mark)
	clear(g.bound)
	g.fed, g.drained = g.fed[:0], g.drained[:0]
	g.visit, g.next, g.last = g.visit[:0], g.next[:0], g.last[:0]
	g.cal.armed = false
	clear(g.cells)
	clear(g.feeds)
	clear(g.sinks)
	g.always, g.trace, g.stats, g.free = g.always[:0], nil, Stats{}, true
	released[g.class].Put(g)
}

// port returns the number of a boundary port and the cell behind it: for
// North/South the index is a column; for East/West it is a row.
func (g *Grid) port(side Side, index int) (port, cell int, err error) {
	limit := g.cols
	if side == East || side == West {
		limit = g.rows
	}
	switch {
	case side < North || side > West:
		return 0, 0, fmt.Errorf("systolic: invalid side %v", side)
	case index < 0 || index >= limit:
		return 0, 0, fmt.Errorf("systolic: port %v[%d] out of range [0,%d)", side, index, limit)
	case side == North:
		return 2 * index, index, nil
	case side == South:
		return 2*index + 1, (g.rows-1)*g.cols + index, nil
	case side == West:
		return 2*g.cols + 2*index, index * g.cols, nil
	}
	return 2*g.cols + 2*index + 1, index*g.cols + g.cols - 1, nil
}

// Feed registers boundary input ports; every other port is idle. Feeding
// a port twice replaces the earlier registration.
func (g *Grid) Feed(ports ...Port) error {
	for _, p := range ports {
		port, cell, err := g.port(p.Side, p.Index)
		if err != nil {
			return err
		}
		if p.First < 0 || p.Count < 0 || (p.Count > 1 && p.Stride < 1) {
			return fmt.Errorf("systolic: port %v[%d]: invalid window %+v", p.Side, p.Index, p.Window)
		}
		if p.Count <= 1 {
			p.Stride = 1
		}
		if p.Feed == nil {
			p.Count = 0
		}
		g.feeds[port] = feed{Port: p, cell: cell}
	}
	g.cal.armed = false
	return nil
}

// Drain registers the sink for a boundary output port.
func (g *Grid) Drain(side Side, index int, s Sink) error {
	port, _, err := g.port(side, index)
	if err != nil {
		return err
	}
	g.sinks[port] = s
	return nil
}

// SetTracer installs a tracer (nil disables tracing).
func (g *Grid) SetTracer(t Tracer) {
	if t != nil && g.trace == nil {
		// Untraced pulses leave the latch slots of visited cells as they
		// were; a traced pulse shows idle inputs for every cell it skips.
		clear(g.ins)
	}
	g.trace = t
}

// Stats returns the accumulated run statistics.
func (g *Grid) Stats() Stats { return g.stats }

// Run advances the grid by the given number of pulses. It may be called
// repeatedly; pulse numbering continues across calls. Every
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

// arm files every fed port in the calendar from the given pulse on: at
// the first pulse of its window not yet past.
func (g *Grid) arm(pulse int) {
	c := &g.cal
	c.pending, c.cursor = c.pending[:0], 0
	size := 1
	for port := range g.feeds {
		fd := &g.feeds[port]
		if fd.left = 0; fd.Count == 0 {
			continue
		}
		skip := 0
		if pulse > fd.First {
			skip = (pulse - fd.First + fd.Stride - 1) / fd.Stride
		}
		if fd.left = fd.Count - skip; fd.left <= 0 {
			continue
		}
		fd.next = fd.First + skip*fd.Stride
		c.pending = append(c.pending, int32(port))
		size = max(size, fd.Stride+1)
	}
	slices.SortFunc(c.pending, func(a, b int32) int { return g.feeds[a].next - g.feeds[b].next })
	if cap(c.ring) < size {
		c.ring = make([][]int32, size)
	}
	c.ring = c.ring[:size]
	for b := range c.ring {
		if cap(c.ring[b]) < len(c.pending) {
			c.ring[b] = make([]int32, 0, len(c.pending))
		}
		c.ring[b] = c.ring[b][:0]
	}
	c.armed = true
}

// wake calls the feeders due at this pulse — the only call of a Feeder —
// and holds each present token on its port for its cell, which it
// schedules, to latch.
func (g *Grid) wake(pulse int) {
	c := &g.cal
	due := &c.ring[pulse%len(c.ring)]
	for ; c.cursor < len(c.pending) && g.feeds[c.pending[c.cursor]].next == pulse; c.cursor++ {
		*due = append(*due, c.pending[c.cursor])
	}
	for _, port := range *due {
		fd := &g.feeds[port]
		if tok := fd.Feed(pulse); tok.Present() {
			g.bound[port] = tok
			g.fed = append(g.fed, port)
			g.schedule(&g.visit, fd.cell, int32(pulse+1))
		}
		if fd.left--; fd.left > 0 {
			fd.next += fd.Stride
			later := &c.ring[fd.next%len(c.ring)]
			*later = append(*later, port)
		}
	}
	*due = (*due)[:0]
}

// schedule adds cell i to list for the pulse whose stamp (pulse+1) is
// given, unless it is there already.
func (g *Grid) schedule(list *[]int32, i int, stamp int32) {
	if g.mark[i] != stamp {
		g.mark[i] = stamp
		*list = append(*list, int32(i))
	}
}

// step executes one pulse: the due feeders are woken, every cell to visit
// latches its inputs and steps in place, the tracer sees the latch plane,
// the tokens that left the grid are delivered to their sinks, and the
// output planes swap.
func (g *Grid) step() {
	pulse := g.stats.Pulses
	if !g.cal.armed {
		g.arm(pulse)
	}
	g.wake(pulse)
	for _, i := range g.always {
		g.schedule(&g.visit, int(i), int32(pulse+1))
	}
	g.stats.ActiveSteps += g.stepCells(pulse)
	g.stats.CellSteps += g.rows * g.cols
	if g.trace != nil {
		g.trace.Observe(Snapshot{Pulse: pulse, Rows: g.rows, Cols: g.cols, Latched: g.latched})
	}

	// An output presented at pulse p is considered to leave the array at
	// pulse p (it would be latched by an external consumer at p+1; the
	// off-by-one is uniform and hidden inside the array drivers).
	if len(g.drained) > 1 {
		slices.SortFunc(g.drained, func(a, b drained) int { return int(a.port - b.port) })
	}
	for _, d := range g.drained {
		g.sinks[d.port](pulse, d.tok)
	}
	g.drained = g.drained[:0]
	for _, port := range g.fed {
		g.bound[port] = Empty
	}
	g.fed = g.fed[:0]

	// Clear what the next pulse must see as idle: the outputs of the
	// previous pulse (this plane becomes the next pulse's output plane)
	// and, when traced, the inputs this pulse latched.
	for _, i := range g.last {
		g.prev[i] = Outputs{}
	}
	if g.trace != nil {
		for _, i := range g.visit {
			g.ins[i] = Inputs{}
		}
	}
	g.last, g.visit, g.next = g.visit, g.next, g.last[:0]
	g.prev, g.outs = g.outs, g.prev
	g.stats.Pulses++
}

// stepCells runs one pulse over the cells to visit: each latches its
// inputs into its slot of the latch plane, from the previous pulse's
// output plane or a boundary port, and steps in place, presenting its
// outputs in its idle slot of this pulse's plane. A present output is
// scheduled at the neighbour it faces for the next pulse, or kept for its
// sink when it leaves the grid. It returns how many of the cells had an
// input present.
func (g *Grid) stepCells(pulse int) int {
	active := 0
	rows, cols, prev, ins, outs, bound := g.rows, g.cols, g.prev, g.ins, g.outs, g.bound
	east := 2 * cols // the west port of row r is east+2r, its east port one more
	stamp := int32(pulse + 2)
	for _, i32 := range g.visit {
		i := int(i32)
		r, c := int(g.pos[i].row), int(g.pos[i].col)
		in := &ins[i]
		if r == 0 {
			in.N = bound[2*c]
		} else {
			in.N = prev[i-cols].S
		}
		if r == rows-1 {
			in.S = bound[2*c+1]
		} else {
			in.S = prev[i+cols].N
		}
		if c == 0 {
			in.W = bound[east+2*r]
		} else {
			in.W = prev[i-1].E
		}
		if c == cols-1 {
			in.E = bound[east+2*r+1]
		} else {
			in.E = prev[i+1].W
		}
		if in.Any() {
			active++
		}
		out := &outs[i]
		g.cells[i].Step(in, out)
		if out.N.Present() {
			if r == 0 {
				g.leave(2*c, out.N)
			} else {
				g.schedule(&g.next, i-cols, stamp)
			}
		}
		if out.S.Present() {
			if r == rows-1 {
				g.leave(2*c+1, out.S)
			} else {
				g.schedule(&g.next, i+cols, stamp)
			}
		}
		if out.W.Present() {
			if c == 0 {
				g.leave(east+2*r, out.W)
			} else {
				g.schedule(&g.next, i-1, stamp)
			}
		}
		if out.E.Present() {
			if c == cols-1 {
				g.leave(east+2*r+1, out.E)
			} else {
				g.schedule(&g.next, i+1, stamp)
			}
		}
	}
	return active
}

// leave keeps a token leaving the grid through a port for its sink, if
// the port has one.
func (g *Grid) leave(port int, tok Token) {
	if g.sinks[port] != nil {
		g.drained = append(g.drained, drained{int32(port), tok})
	}
}
