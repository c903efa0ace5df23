package systolic

import (
	"fmt"
	"sync"
	"testing"

	"systolicdb/internal/relation"
)

// compareCell duplicates the comparison-processor program locally so the
// engine package can test parallel equivalence without importing the cells
// package (which would create an import cycle in tests).
type compareCell struct{}

func (compareCell) Step(in Inputs) Outputs {
	var out Outputs
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
	return out
}
func (compareCell) Reset() {}

// buildComparisonGrid wires a small 2-D comparison problem (identical
// relations so every diagonal matches) and returns the grid plus a place
// the east-side results accumulate.
func buildComparisonGrid(t *testing.T, n, m int) (*Grid, *[]bool) {
	t.Helper()
	rows := 2*n - 1
	g, err := NewGrid(rows, m, func(_, _ int) Cell { return compareCell{} })
	if err != nil {
		t.Fatal(err)
	}
	tuple := func(i int) []relation.Element {
		out := make([]relation.Element, m)
		for k := range out {
			out[k] = relation.Element(i*m + k)
		}
		return out
	}
	alpha := 0
	for k := 0; k < m; k++ {
		k := k
		feed := func(p int) Token {
			q := p - alpha - k
			if q >= 0 && q%2 == 0 && q/2 < n {
				return ValToken(tuple(q / 2)[k], Tag{})
			}
			return Empty
		}
		if err := g.Feed(North, k, feed); err != nil {
			t.Fatal(err)
		}
		if err := g.Feed(South, k, feed); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rows; r++ {
		r := r
		if err := g.Feed(West, r, func(p int) Token {
			// A TRUE for every scheduled pair start (parity check only).
			if (p-r+n-1)%2 == 0 {
				return FlagToken(true, Tag{})
			}
			return Empty
		}); err != nil {
			t.Fatal(err)
		}
	}
	results := &[]bool{}
	for r := 0; r < rows; r++ {
		if err := g.Drain(East, r, func(_ int, tok Token) {
			if tok.HasFlag {
				*results = append(*results, tok.Flag)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return g, results
}

func TestParallelRunMatchesSerial(t *testing.T) {
	const n, m, pulses = 12, 3, 60
	serialGrid, serialRes := buildComparisonGrid(t, n, m)
	serialGrid.Reset()
	serialGrid.Run(pulses)
	serialStats := serialGrid.Stats()

	for _, workers := range []int{2, 4, 16, 100} {
		g, res := buildComparisonGrid(t, n, m)
		g.SetParallelism(workers)
		g.Reset()
		g.Run(pulses)
		st := g.Stats()
		if st != serialStats {
			t.Errorf("workers=%d: stats %+v differ from serial %+v", workers, st, serialStats)
		}
		if len(*res) != len(*serialRes) {
			t.Fatalf("workers=%d: %d results vs serial %d", workers, len(*res), len(*serialRes))
		}
		for i := range *res {
			if (*res)[i] != (*serialRes)[i] {
				t.Fatalf("workers=%d: result %d differs", workers, i)
			}
		}
	}
}

func TestParallelWithTracer(t *testing.T) {
	g, _ := buildComparisonGrid(t, 4, 2)
	count := 0
	g.SetTracer(tracerFunc(func(s Snapshot) { count++ }))
	g.SetParallelism(4)
	g.Reset()
	g.Run(10)
	if count != 10 {
		t.Errorf("tracer observed %d pulses, want 10", count)
	}
}

// TestConcurrentParallelGridsWithTracing backs the "safe for concurrent
// use" claim of the parallel stepping path under the race detector: many
// goroutines each drive their own parallel grid with tracing enabled (the
// combination that interleaves the latch barrier, the tracer callback and
// the worker fan-out), all recording into the shared metrics registry, and
// every one must reproduce the serial result exactly.
func TestConcurrentParallelGridsWithTracing(t *testing.T) {
	const n, m, pulses = 8, 2, 40
	serialGrid, serialRes := buildComparisonGrid(t, n, m)
	serialGrid.Reset()
	serialGrid.Run(pulses)
	serialStats := serialGrid.Stats()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		workers := 2 + i%3
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			g, res := buildComparisonGrid(t, n, m)
			traced := 0
			var lastPulse int
			g.SetTracer(tracerFunc(func(s Snapshot) {
				// Read through the snapshot the way trace.Recorder
				// does; with -race this catches any worker writing
				// the latch buffer while the tracer reads it.
				for r := 0; r < s.Rows; r++ {
					for c := 0; c < s.Cols; c++ {
						_ = s.Latched[r][c].Any()
					}
				}
				lastPulse = s.Pulse
				traced++
			}))
			g.SetParallelism(workers)
			g.Reset()
			g.Run(pulses)
			if traced != pulses || lastPulse != pulses-1 {
				errs <- fmt.Errorf("workers=%d: traced %d pulses (last %d), want %d", workers, traced, lastPulse, pulses)
				return
			}
			if st := g.Stats(); st != serialStats {
				errs <- fmt.Errorf("workers=%d: stats %+v differ from serial %+v", workers, st, serialStats)
				return
			}
			if len(*res) != len(*serialRes) {
				errs <- fmt.Errorf("workers=%d: %d results vs serial %d", workers, len(*res), len(*serialRes))
				return
			}
			for i := range *res {
				if (*res)[i] != (*serialRes)[i] {
					errs <- fmt.Errorf("workers=%d: result %d differs", workers, i)
					return
				}
			}
		}(workers)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkGridSerialVsParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "parallel4"}[workers], func(b *testing.B) {
			rows, cols := 256, 16
			g, err := NewGrid(rows, cols, func(_, _ int) Cell { return compareCell{} })
			if err != nil {
				b.Fatal(err)
			}
			if err := g.Feed(North, 0, func(p int) Token { return ValToken(relation.Element(p), Tag{}) }); err != nil {
				b.Fatal(err)
			}
			g.SetParallelism(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset()
				g.Run(64)
			}
		})
	}
}

// SetParallelism sets how many goroutines step the grid each pulse. Values
// below 2 select the serial path. Because every cell's outputs depend only
// on the previous pulse's output plane, rows can be latched and stepped
// concurrently without changing any result — the synchronous-hardware
// property the engine models is exactly what makes this safe. Parallel runs
// produce bit-identical results and statistics to serial runs (tested), but
// only pay off on grids with thousands of cells.
func (g *Grid) SetParallelism(workers int) { g.workers = workers }
