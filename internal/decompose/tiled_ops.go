package decompose

import (
	"fmt"

	"systolicdb/internal/division"
	"systolicdb/internal/fault"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

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
