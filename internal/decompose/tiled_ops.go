package decompose

import (
	"fmt"

	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/division"
	"systolicdb/internal/fault"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// JoinT computes the join match matrix T for a problem larger than the
// physical join array by running one join-array pass per tile (§8's
// decomposition applied to the array of §6).
func (tl Tiler) JoinT(aKeys, bKeys []relation.Tuple, ops []cells.Op) (*comparison.Matrix, Stats, error) {
	if err := tl.Size.validate(); err != nil {
		return nil, Stats{}, err
	}
	nA, nB := len(aKeys), len(bKeys)
	t := comparison.NewMatrix(nA, nB)
	var stats Stats
	// Reject ragged keys before any tile runs: the host-reference lane
	// (join.ReferenceT) indexes key tuples directly, so without this the
	// checksum closure would panic instead of the array erroring.
	if nA > 0 && nB > 0 {
		if err := join.CheckKeys(aKeys, bKeys, ops); err != nil {
			return nil, Stats{}, err
		}
	}
	for i0 := 0; i0 < nA; i0 += tl.Size.MaxA {
		i1 := min(i0+tl.Size.MaxA, nA)
		for j0 := 0; j0 < nB; j0 += tl.Size.MaxB {
			j1 := min(j0+tl.Size.MaxB, nB)
			aT, bT := aKeys[i0:i1], bKeys[j0:j1]
			var tile *comparison.Matrix
			st, err := tl.runTile("join",
				func() fault.Checksum {
					return fault.MatrixChecksum(join.ReferenceT(aT, bT, ops).Bits)
				},
				func(wrap systolic.Wrap) (fault.Checksum, systolic.Stats, error) {
					m, st, err := join.RunTWrap(aT, bT, ops, wrap)
					if err != nil {
						return fault.Checksum{}, st, err
					}
					tile = m
					return fault.MatrixChecksum(m.Bits), st, nil
				})
			if err != nil {
				return nil, Stats{}, fmt.Errorf("decompose: join tile (%d..%d, %d..%d): %w", i0, i1, j0, j1, err)
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

// Division runs the division array for a dividend whose distinct-x count
// exceeds the physical array's row capacity (Size.MaxA rows of
// dividend/divisor processors): the stored x's are partitioned into row
// bands and the full pair stream is replayed through each band.
func (tl Tiler) Division(pairs []division.Pair, xs, divisor []relation.Element) ([]bool, Stats, error) {
	if err := tl.Size.validate(); err != nil {
		return nil, Stats{}, err
	}
	bits := make([]bool, len(xs))
	var stats Stats
	for r0 := 0; r0 < len(xs); r0 += tl.Size.MaxA {
		r1 := min(r0+tl.Size.MaxA, len(xs))
		xsT := xs[r0:r1]
		var band []bool
		st, err := tl.runTile("divide",
			func() fault.Checksum {
				return fault.BoolChecksum(division.ReferenceBits(pairs, xsT, divisor))
			},
			func(wrap systolic.Wrap) (fault.Checksum, systolic.Stats, error) {
				b, st, err := division.RunArrayWrap(pairs, xsT, divisor, nil, wrap)
				if err != nil {
					return fault.Checksum{}, st, err
				}
				band = b
				return fault.BoolChecksum(b), st, nil
			})
		if err != nil {
			return nil, Stats{}, fmt.Errorf("decompose: division band (%d..%d): %w", r0, r1, err)
		}
		copy(bits[r0:], band)
		stats.Tiles++
		stats.add(st)
	}
	return bits, stats, nil
}
