// Package bitlevel implements the word-level to bit-level transformation of
// Kung & Lehman (1980) §8: "In implementation, each word processor can be
// partitioned into bit processors to achieve modularity at the bit-level."
//
// The transformation is exactly the one the paper cites from Foster & Kung:
// a word comparator over W-bit words becomes W serially connected bit
// comparators, and a tuple of m words becomes a stream of m*W bits. Since
// our systolic cells already compare whatever element arrives on their data
// lines, the bit-level array is the *same hardware* running on bit-expanded
// tuples — the equality of the two levels is verified in this package's
// tests and in experiment E10.
package bitlevel

import (
	"fmt"

	"systolicdb/internal/comparison"
	"systolicdb/internal/intersect"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// MaxWidth is the largest supported word width in bits. It matches the
// usable range of relation.Element (see that type's documentation): wider
// words could not round-trip through Expand/Collapse.
const MaxWidth = 62

// checkWidth validates a word width against the supported [1, MaxWidth]
// range. Every width-taking entry point shares it, so the width error is
// uniform and always names the supported maximum — a caller should never
// learn the ceiling only when a later decode fails.
func checkWidth(width int) error {
	if width <= 0 || width > MaxWidth {
		return fmt.Errorf("bitlevel: width %d out of range [1,%d]", width, MaxWidth)
	}
	return nil
}

// Expand decomposes a tuple of W-bit words into a tuple of m*W single-bit
// elements (most significant bit first). All elements must be
// representable as unsigned W-bit integers.
func Expand(t relation.Tuple, width int) (relation.Tuple, error) {
	if err := checkWidth(width); err != nil {
		return nil, err
	}
	out := make(relation.Tuple, 0, len(t)*width)
	for k, e := range t {
		if e < 0 || e >= 1<<uint(width) {
			return nil, fmt.Errorf("bitlevel: element %d (column %d) does not fit in %d bits", e, k, width)
		}
		for b := width - 1; b >= 0; b-- {
			out = append(out, (e>>uint(b))&1)
		}
	}
	return out, nil
}

// Collapse reverses Expand.
func Collapse(bits relation.Tuple, width int) (relation.Tuple, error) {
	if err := checkWidth(width); err != nil {
		return nil, err
	}
	if len(bits)%width != 0 {
		return nil, fmt.Errorf("bitlevel: %d bits is not a multiple of width %d", len(bits), width)
	}
	out := make(relation.Tuple, 0, len(bits)/width)
	for i := 0; i < len(bits); i += width {
		var e relation.Element
		for b := 0; b < width; b++ {
			v := bits[i+b]
			if v != 0 && v != 1 {
				return nil, fmt.Errorf("bitlevel: element %d at position %d is not a bit", v, i+b)
			}
			e = e<<1 | v
		}
		out = append(out, e)
	}
	return out, nil
}

// expandAll bit-expands a tuple list.
func expandAll(ts []relation.Tuple, width int) ([]relation.Tuple, error) {
	out := make([]relation.Tuple, len(ts))
	for i, t := range ts {
		e, err := Expand(t, width)
		if err != nil {
			return nil, fmt.Errorf("tuple %d: %w", i, err)
		}
		out[i] = e
	}
	return out, nil
}

// CompareTuples runs the linear comparison array at bit level: m*width bit
// comparators in a row. It returns the equality bit and the simulation
// statistics (the pulse count is m*width, the bit-serial latency).
func CompareTuples(a, b relation.Tuple, width int) (bool, systolic.Stats, error) {
	if len(a) != len(b) {
		return false, systolic.Stats{}, fmt.Errorf("bitlevel: tuple widths %d and %d differ", len(a), len(b))
	}
	ea, err := Expand(a, width)
	if err != nil {
		return false, systolic.Stats{}, err
	}
	eb, err := Expand(b, width)
	if err != nil {
		return false, systolic.Stats{}, err
	}
	return comparison.CompareTuples(ea, eb)
}

// Run2D runs the two-dimensional comparison array at bit level, producing
// the same matrix T as the word-level array on the original tuples.
func Run2D(a, b []relation.Tuple, width int, init comparison.InitFunc) (*comparison.Result, error) {
	ea, err := expandAll(a, width)
	if err != nil {
		return nil, fmt.Errorf("bitlevel: relation A: %w", err)
	}
	eb, err := expandAll(b, width)
	if err != nil {
		return nil, fmt.Errorf("bitlevel: relation B: %w", err)
	}
	return comparison.Run2D(ea, eb, nil, init, nil)
}

// IntersectBits runs the complete intersection array of §4 at bit level:
// tuples are expanded into bit streams and pushed through the (bit-serial)
// comparison + accumulation grid, returning the per-tuple membership bit —
// the full word→bit transformation applied to a whole relational operator.
func IntersectBits(a, b []relation.Tuple, width int) ([]bool, systolic.Stats, error) {
	ea, err := expandAll(a, width)
	if err != nil {
		return nil, systolic.Stats{}, fmt.Errorf("bitlevel: relation A: %w", err)
	}
	eb, err := expandAll(b, width)
	if err != nil {
		return nil, systolic.Stats{}, fmt.Errorf("bitlevel: relation B: %w", err)
	}
	return intersect.RunAccumulated(ea, eb, nil, nil)
}
