package systolic

import (
	"fmt"
	"sync"
	"testing"

	"systolicdb/internal/relation"
)

// compareCell duplicates the comparison-processor program locally so the
// engine package can test whole grids without importing the cells package
// (which would create an import cycle in tests).
type compareCell struct{}

func (compareCell) Step(in *Inputs, out *Outputs) {
	if in.N.HasVal {
		out.S = in.N
	}
	if in.S.HasVal {
		out.N = in.S
	}
	if in.W.HasFlag {
		t := in.W
		if in.N.HasVal && in.S.HasVal {
			t.Flag = t.Flag && in.N.Val == in.S.Val
		}
		out.E = t
	}
}

// accumulateCell duplicates the accumulation processor of §4.2
// (cells.Accumulate) for the same reason.
type accumulateCell struct{}

func (accumulateCell) Step(in *Inputs, out *Outputs) {
	switch {
	case in.N.HasFlag && in.W.HasFlag:
		t := in.N
		t.Flag = t.Flag || in.W.Flag
		out.S = t
	case in.N.HasFlag:
		out.S = in.N
	case in.W.HasFlag:
		out.S = in.W
	}
}

// buildComparisonGrid wires comparisonProblem's grid, whose results
// leave through sink: from the east edge, or, with accumulate set, from
// the foot of the accumulation column.
func buildComparisonGrid(t *testing.T, n, m int, accumulate bool, sink Sink) *Grid {
	t.Helper()
	rows, cols, build, ports := comparisonProblem(n, m, accumulate)
	g, err := NewGrid(rows, cols, build)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Feed(ports...); err != nil {
		t.Fatal(err)
	}
	if accumulate {
		if err := g.Drain(South, m, sink); err != nil {
			t.Fatal(err)
		}
		return g
	}
	for r := 0; r < rows; r++ {
		if err := g.Drain(East, r, sink); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// comparisonProblem returns the shape, cells and feeds of a small 2-D
// comparison problem (identical relations so every diagonal matches)
// whose feeders index precomputed operands. With accumulate set, a column
// of accumulation cells to the right ORs each row's results into a t_i
// stream moving down, as in the intersection array of §4.2.
func comparisonProblem(n, m int, accumulate bool) (rows, cols int, build func(row, col int) Cell, ports []Port) {
	rows, cols = 2*n-1, m
	if accumulate {
		cols++
	}
	build = func(_, c int) Cell {
		if c == m {
			return accumulateCell{}
		}
		return compareCell{}
	}
	elems := make([]relation.Element, n*m)
	for i := range elems {
		elems[i] = relation.Element(i)
	}
	for k := 0; k < m; k++ {
		k := k
		w := Window{First: k, Stride: 2, Count: n}
		feed := func(p int) Token { return ValToken(elems[(p-k)/2*m+k], Tag{}) }
		ports = append(ports, Port{Side: North, Index: k, Window: w, Feed: feed}, Port{Side: South, Index: k, Window: w, Feed: feed})
	}
	for r := 0; r < rows; r++ {
		// A TRUE for every scheduled pair start (parity check only).
		first := ((r-n+1)%2 + 2) % 2
		ports = append(ports, Port{Side: West, Index: r, Window: Window{First: first, Stride: 2, Count: 64},
			Feed: func(int) Token { return FlagToken(true, Tag{}) }})
	}
	if accumulate {
		ports = append(ports, Port{Side: North, Index: m, Window: Window{First: 0, Stride: 2, Count: n},
			Feed: func(int) Token { return FlagToken(false, Tag{}) }})
	}
	return rows, cols, build, ports
}

// collect returns a sink appending every flag that leaves the grid to res.
func collect(res *[]bool) Sink {
	return func(_ int, tok Token) {
		if tok.HasFlag {
			*res = append(*res, tok.Flag)
		}
	}
}

// TestConcurrentParallelGridsWithTracing backs the "safe for concurrent
// use" claim of independent grids under the race detector: many goroutines
// each drive their own grid with tracing enabled, all recording into the
// shared metrics registry, and every one must reproduce the result of a
// grid run alone exactly. All the grids have one shape, and each goroutine
// releases its grid and builds a new one between runs, so grids pass from
// one goroutine to another through the released pool.
func TestConcurrentParallelGridsWithTracing(t *testing.T) {
	const n, m, pulses, runs = 8, 2, 40, 4
	var aloneRes []bool
	alone := buildComparisonGrid(t, n, m, false, collect(&aloneRes))
	alone.Run(pulses)
	aloneStats := alone.Stats()
	alone.Release()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runs)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for run := range runs {
				if err := runTracedAlone(n, m, pulses, aloneStats, aloneRes); err != nil {
					errs <- fmt.Errorf("grid %d run %d: %v", i, run, err)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// runTracedAlone builds a traced comparison grid, runs it, compares it
// with the grid run alone and releases it.
func runTracedAlone(n, m, pulses int, aloneStats Stats, aloneRes []bool) error {
	rows, cols, build, ports := comparisonProblem(n, m, false)
	g, err := NewGrid(rows, cols, build)
	if err != nil {
		return err
	}
	defer g.Release()
	if err := g.Feed(ports...); err != nil {
		return err
	}
	var res []bool
	for r := 0; r < rows; r++ {
		if err := g.Drain(East, r, collect(&res)); err != nil {
			return err
		}
	}
	traced := 0
	var lastPulse int
	g.SetTracer(tracerFunc(func(s Snapshot) {
		// Read through the snapshot the way trace.Recorder does; with
		// -race this catches any grid writing another grid's latch
		// plane while a tracer reads it.
		for r := 0; r < s.Rows; r++ {
			for c := 0; c < s.Cols; c++ {
				_ = s.Latched[r][c].Any()
			}
		}
		lastPulse = s.Pulse
		traced++
	}))
	g.Run(pulses)
	if traced != pulses || lastPulse != pulses-1 {
		return fmt.Errorf("traced %d pulses (last %d), want %d", traced, lastPulse, pulses)
	}
	if st := g.Stats(); st != aloneStats {
		return fmt.Errorf("stats %+v differ from a grid run alone %+v", st, aloneStats)
	}
	if len(res) != len(aloneRes) {
		return fmt.Errorf("%d results vs %d run alone", len(res), len(aloneRes))
	}
	for k := range res {
		if res[k] != aloneRes[k] {
			return fmt.Errorf("result %d differs", k)
		}
	}
	return nil
}
