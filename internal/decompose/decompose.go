// Package decompose implements the problem-decomposition technique of Kung
// & Lehman (1980) §8: "it is also possible to use the array to solve
// problems that will not fit entirely on it. ... In the intersection
// problem, consider the matrix, T, of results. For a large problem, one can
// simply partition this matrix into sub-problems small enough to fit on the
// array; each of these sub-problems would generate a piece of the matrix."
//
// A fixed-size array is modelled by its tuple capacities (how many tuples
// of A and of B a single pass can accept). The tiler partitions T into
// blocks, runs each block on the fixed array, and reassembles — for the
// comparison array the blocks are simply copied into place; for the
// accumulating (intersection-family) arrays the per-tile row results are
// OR-combined, since t_i = OR over all blocks of the block-local OR.
//
// Tiles are the unit of fault tolerance: a Tiler with a fault.Runner hands
// every tile to it as a repeatable attempt plus a host reference checksum,
// and the runner decides injection, verification, retry and quarantine. A
// tile's results are committed to the global output only after the runner
// accepts it, so a corrupted attempt can never poison the OR-accumulation.
package decompose

import (
	"fmt"

	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/fault"
	"systolicdb/internal/intersect"
	"systolicdb/internal/obs"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Every executed tile records into obs.Default: how many tiles ran, and the
// distribution of per-tile pulse counts (the unit a multi-device scheduler
// balances across arrays).
var (
	mTiles      = obs.Default.Counter("decompose_tiles_total", nil)
	mTilePulses = obs.Default.Histogram("decompose_tile_pulses", nil, nil)

	// Prefilter accounting: a selection evaluated before tiling (the
	// logic-per-track disk load of §9, fed by the optimizer's predicate
	// pushdown) shrinks the relation the downstream tiled operator sees,
	// so the problem decomposes into fewer tiles. These record how often
	// that happens and how many tuples the tilers never had to strip.
	mPrefilterSelects = obs.Default.Counter("decompose_prefilter_selects_total", nil)
	mPrefilterRows    = obs.Default.Counter("decompose_prefilter_rows_total", nil)
)

// RecordPrefilter charges one pre-tiling selection into obs.Default: a
// relation of `before` tuples was reduced to `after` before any tiled
// operator touched it. The machine's selecting-load path calls this; the
// tiles that reduction saves are ArraySize.Tiles before minus after.
func RecordPrefilter(before, after int) {
	if after > before {
		after = before
	}
	mPrefilterSelects.Inc()
	mPrefilterRows.Add(int64(before - after))
}

// ArraySize is the capacity of the fixed physical array: the maximum
// number of tuples of A and of B a single pass can process.
type ArraySize struct {
	MaxA int
	MaxB int
}

func (s ArraySize) validate() error {
	if s.MaxA <= 0 || s.MaxB <= 0 {
		return fmt.Errorf("decompose: array capacities (%d, %d) must be positive", s.MaxA, s.MaxB)
	}
	return nil
}

// Tiles returns the number of sub-problems an nA x nB problem decomposes
// into: ceil(nA/MaxA) * ceil(nB/MaxB).
func (s ArraySize) Tiles(nA, nB int) int {
	return ceilDiv(nA, s.MaxA) * ceilDiv(nB, s.MaxB)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Stats aggregates the cost of a tiled run. Pulses is the sequential sum
// over tiles (one physical array executes the tiles one after another);
// PerTilePulses records each tile's own pulse count, which schedulers with
// several physical arrays use to run tiles concurrently (§9: "Results from
// subrelations must be stored outside the systolic arrays before they are
// finally combined"). Under a fault runner a tile's pulse count includes
// every retry attempt, so retries show up in the cost model.
type Stats struct {
	Tiles         int
	Pulses        int
	CellSteps     int
	ActiveSteps   int
	PerTilePulses []int
}

func (s *Stats) add(t systolic.Stats) {
	s.Pulses += t.Pulses
	s.CellSteps += t.CellSteps
	s.ActiveSteps += t.ActiveSteps
	s.PerTilePulses = append(s.PerTilePulses, t.Pulses)
	mTiles.Inc()
	mTilePulses.Observe(float64(t.Pulses))
}

// Tiler runs tiled operations on a fixed-size array, optionally through a
// fault.Runner that adds injection, verification, retry and quarantine
// around every tile. The zero Runner executes each tile once on pristine
// cells, which is byte-for-byte the historical behaviour.
type Tiler struct {
	Size   ArraySize
	Runner fault.Runner
}

// runTile executes one tile attempt through the runner (or directly).
func (t Tiler) runTile(op string, ref func() fault.Checksum, attempt fault.Attempt) (systolic.Stats, error) {
	if t.Runner == nil {
		_, st, err := attempt(nil)
		return st, err
	}
	return t.Runner.RunTile(op, ref, attempt)
}

// TiledT computes the full matrix T for a problem larger than the physical
// array by running one comparison-array pass per tile. init receives
// *global* pair indices.
func TiledT(a, b []relation.Tuple, init comparison.InitFunc, size ArraySize) (*comparison.Matrix, Stats, error) {
	return Tiler{Size: size}.T(a, b, nil, init)
}

// T is TiledT through the tiler's runner, with one comparison operator per
// column as comparison.Run2D takes them: nil ops tile the comparison array
// of §3.2, and the join columns with their operators tile the join array
// of §6 (fault op label "join", else "compare").
func (tl Tiler) T(a, b []relation.Tuple, ops []cells.Op, init comparison.InitFunc) (*comparison.Matrix, Stats, error) {
	if err := tl.Size.validate(); err != nil {
		return nil, Stats{}, err
	}
	// Reject ragged input before any tile runs, so no device attempt,
	// retry or quarantine is spent on it.
	if _, err := comparison.CheckWidths(a, b, ops); err != nil {
		return nil, Stats{}, err
	}
	op := "compare"
	if ops != nil {
		op = "join"
	}
	nA, nB := len(a), len(b)
	t := comparison.NewMatrix(nA, nB)
	var stats Stats
	for i0 := 0; i0 < nA; i0 += tl.Size.MaxA {
		i1 := min(i0+tl.Size.MaxA, nA)
		for j0 := 0; j0 < nB; j0 += tl.Size.MaxB {
			j1 := min(j0+tl.Size.MaxB, nB)
			var tileInit comparison.InitFunc
			if init != nil {
				i0, j0 := i0, j0
				tileInit = func(i, j int) bool { return init(i0+i, j0+j) }
			}
			aT, bT := a[i0:i1], b[j0:j1]
			var tile *comparison.Matrix
			st, err := tl.runTile(op,
				func() fault.Checksum {
					return fault.MatrixChecksum(comparison.ReferenceT(aT, bT, ops, tileInit).Bits)
				},
				func(wrap systolic.Wrap) (fault.Checksum, systolic.Stats, error) {
					res, err := comparison.Run2DWrap(aT, bT, ops, tileInit, nil, wrap)
					if err != nil {
						return fault.Checksum{}, systolic.Stats{}, err
					}
					tile = res.T
					return fault.MatrixChecksum(res.T.Bits), res.Stats, nil
				})
			if err != nil {
				return nil, Stats{}, fmt.Errorf("decompose: tile (%d..%d, %d..%d): %w", i0, i1, j0, j1, err)
			}
			for i := range tile.Bits {
				copy(t.Bits[i0+i][j0:], tile.Bits[i])
			}
			stats.Tiles++
			stats.add(st)
		}
	}
	return t, stats, nil
}

// Accumulate computes the per-tuple OR bits t_i (the intersection array's
// output, equation 4.1) for a problem larger than the physical array: each
// tile runs the full comparison+accumulation grid and the block-local t_i
// are OR-combined across B-tiles, only after the runner accepts the tile.
func (tl Tiler) Accumulate(a, b []relation.Tuple, init comparison.InitFunc) ([]bool, Stats, error) {
	if err := tl.Size.validate(); err != nil {
		return nil, Stats{}, err
	}
	nA, nB := len(a), len(b)
	keep := make([]bool, nA)
	var stats Stats
	if nA == 0 || nB == 0 {
		return keep, stats, nil
	}
	if _, err := comparison.CheckWidths(a, b, nil); err != nil {
		return nil, Stats{}, err
	}
	for i0 := 0; i0 < nA; i0 += tl.Size.MaxA {
		i1 := min(i0+tl.Size.MaxA, nA)
		for j0 := 0; j0 < nB; j0 += tl.Size.MaxB {
			j1 := min(j0+tl.Size.MaxB, nB)
			var tileInit comparison.InitFunc
			if init != nil {
				i0, j0 := i0, j0
				tileInit = func(i, j int) bool { return init(i0+i, j0+j) }
			}
			aT, bT := a[i0:i1], b[j0:j1]
			var tileBits []bool
			st, err := tl.runTile("accumulate",
				func() fault.Checksum {
					return fault.BoolChecksum(comparison.ReferenceT(aT, bT, nil, tileInit).OrRows())
				},
				func(wrap systolic.Wrap) (fault.Checksum, systolic.Stats, error) {
					bits, st, err := intersect.RunAccumulatedWrap(aT, bT, tileInit, nil, wrap)
					if err != nil {
						return fault.Checksum{}, st, err
					}
					tileBits = bits
					return fault.BoolChecksum(bits), st, nil
				})
			if err != nil {
				return nil, Stats{}, fmt.Errorf("decompose: tile (%d..%d, %d..%d): %w", i0, i1, j0, j1, err)
			}
			for i, bit := range tileBits {
				keep[i0+i] = keep[i0+i] || bit
			}
			stats.Tiles++
			stats.add(st)
		}
	}
	return keep, stats, nil
}

// Intersection computes A ∩ B on a fixed-size array via decomposition.
func (tl Tiler) Intersection(a, b *relation.Relation) (*relation.Relation, Stats, error) {
	return tl.tiledSelect(a, b, true)
}

// Difference computes A - B on a fixed-size array via decomposition.
func (tl Tiler) Difference(a, b *relation.Relation) (*relation.Relation, Stats, error) {
	return tl.tiledSelect(a, b, false)
}

func (tl Tiler) tiledSelect(a, b *relation.Relation, want bool) (*relation.Relation, Stats, error) {
	if a == nil || b == nil {
		return nil, Stats{}, fmt.Errorf("decompose: nil relation")
	}
	if !a.Schema().UnionCompatible(b.Schema()) {
		return nil, Stats{}, fmt.Errorf("decompose: relations are not union-compatible")
	}
	keep, stats, err := tl.Accumulate(a.Tuples(), b.Tuples(), nil)
	if err != nil {
		return nil, Stats{}, err
	}
	rel, err := a.Select(keep, want)
	if err != nil {
		return nil, Stats{}, err
	}
	return rel, stats, nil
}

// RemoveDuplicates removes duplicate tuples on a fixed-size array via
// decomposition, using the global triangle mask of §5.
func (tl Tiler) RemoveDuplicates(a *relation.Relation) (*relation.Relation, Stats, error) {
	if a == nil {
		return nil, Stats{}, fmt.Errorf("decompose: nil relation")
	}
	tuples := a.Tuples()
	dup, stats, err := tl.Accumulate(tuples, tuples, func(i, j int) bool { return i > j })
	if err != nil {
		return nil, Stats{}, err
	}
	rel, err := a.Select(dup, false)
	if err != nil {
		return nil, Stats{}, err
	}
	return rel, stats, nil
}
