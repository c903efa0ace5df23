// Package comparison implements the tuple-comparison arrays of Kung &
// Lehman (1980) §3: the linear comparison array that tests two tuples for
// equality (Figure 3-1), and the two-dimensional comparison array that
// pipelines all |A|·|B| tuple comparisons and produces the boolean matrix T
// (Figures 3-3/3-4).
//
// The two-dimensional array takes one comparison operator per column, so
// it is also the join array of §6: one processor column per join column,
// with a θ comparator preloaded for a non-equi-join (§6.3.2). ReferenceT
// is the one software definition of T for both, and CheckWidths the one
// width check of the tuple lists fed to them.
//
// The package also exposes the input staggering schedule as a first-class
// object (Schedule), because every compound array in the paper —
// intersection, difference, remove-duplicates — reuses the same dataflow
// and differs only in what is attached to the comparison array's boundary.
package comparison

import (
	"fmt"

	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Schedule is the closed-form timing of the two-dimensional comparison
// array for |A| = NA tuples against |B| = NB tuples of M elements each.
//
// Derivation (paper §3.2). Relation A is fed from the top, one element per
// column, with element k of a tuple entering one pulse after element k-1
// (the "staggered"/"slanted" inputs of Figure 3-1) and each tuple entering
// two pulses behind its predecessor. Relation B is fed symmetrically from
// the bottom. Tuples move one row per pulse in opposite directions, so the
// pair (a_i, b_j) first meets — element 0 against element 0 — in the
// left-most column of a fixed row, and the comparison then sweeps one
// column rightward per pulse within that row, with the partial AND
// travelling alongside (Figure 3-4). The two-pulse spacing is exactly what
// guarantees that every a_i crosses every b_j *at* a processor rather than
// between two processors.
//
// With 0-based tuple indices i ∈ [0,NA), j ∈ [0,NB) and 0-based rows/
// columns/pulses, the solved schedule is:
//
//	rows            R       = NA + NB - 1
//	lead times      Alpha   = max(0, NB-NA)   (delay of A's first tuple)
//	                Beta    = max(0, NA-NB)   (delay of B's first tuple)
//	feeding         a_{i,k} enters the top of column k at pulse Alpha + 2i + k
//	                b_{j,k} enters the bottom of column k at pulse Beta + 2j + k
//	meeting row     Row(i,j)        = NA - 1 + j - i
//	meeting pulse   StartPulse(i,j) = NA - 1 + Alpha + i + j   (column 0)
//	result exit     ExitPulse(i,j)  = StartPulse(i,j) + M - 1  (column M-1)
//
// Every formula is verified against brute-force simulation with provenance
// tags in the package tests.
type Schedule struct {
	NA, NB int // tuple counts of A and B
	M      int // elements per tuple (comparison columns)
	Alpha  int // entry delay of A
	Beta   int // entry delay of B
	Rows   int // rows of the comparison array
}

// NewSchedule computes the schedule for the given problem shape. NA and NB
// must be positive and M at least 1.
func NewSchedule(nA, nB, m int) (Schedule, error) {
	if nA <= 0 || nB <= 0 {
		return Schedule{}, fmt.Errorf("comparison: relation cardinalities (%d, %d) must be positive", nA, nB)
	}
	if m <= 0 {
		return Schedule{}, fmt.Errorf("comparison: tuple width %d must be positive", m)
	}
	return Schedule{
		NA:    nA,
		NB:    nB,
		M:     m,
		Alpha: max(0, nB-nA),
		Beta:  max(0, nA-nB),
		Rows:  nA + nB - 1,
	}, nil
}

// Row returns the row in which the pair (a_i, b_j) is compared.
func (s Schedule) Row(i, j int) int { return s.NA - 1 + j - i }

// StartPulse returns the pulse at which the pair (a_i, b_j) is compared in
// column 0 — the pulse at which the row's initial boolean must arrive from
// the west.
func (s Schedule) StartPulse(i, j int) int { return s.NA - 1 + s.Alpha + i + j }

// ExitPulse returns the pulse at which the finished t_ij leaves the east
// side of the comparison array.
func (s Schedule) ExitPulse(i, j int) int { return s.StartPulse(i, j) + s.M - 1 }

// TotalPulses returns the number of pulses needed to drain every t_ij out
// of the comparison array: one more than the last exit pulse. It is linear
// in NA + NB + M — the pipelining claim of §3.2.
func (s Schedule) TotalPulses() int {
	return s.ExitPulse(s.NA-1, s.NB-1) + 1
}

// StartWindow returns the pulses at which the pairs compared in a row
// start in column 0: the row's west feed. Row r holds the pairs with
// j - i = diff = r - (NA-1), for i from lo = max(0, -diff) to hi =
// min(NA-1, NB-1-diff), and pair (i, i+diff) starts at NA-1 + Alpha + 2i +
// diff: hi-lo+1 pulses, two apart, the first at NA-1 + Alpha + 2·lo + diff.
func (s Schedule) StartWindow(row int) systolic.Window {
	diff := row - (s.NA - 1)
	lo, hi := max(0, -diff), min(s.NA-1, s.NB-1-diff)
	return systolic.Window{First: s.NA - 1 + s.Alpha + 2*lo + diff, Stride: 2, Count: max(0, hi-lo+1)}
}

// Ports returns the boundary feeds of the two-dimensional comparison
// array: a_{i,k} enters the top of column k at pulse Alpha + 2i + k and
// b_{j,k} the bottom at Beta + 2j + k (the staggered, two-pulse-spaced
// schedule of §3.2), and the initial boolean of pair (i, j) — init(i, j),
// or TRUE for a nil init — enters the west of the pair's row exactly at
// its start pulse. The intersection, remove-duplicates and join arrays
// feed the same ports. Every tuple must be M elements wide.
func (s Schedule) Ports(a, b []relation.Tuple, init InitFunc) []systolic.Port {
	ports := make([]systolic.Port, 0, 2*s.M+s.Rows)
	for k := 0; k < s.M; k++ {
		ports = append(ports,
			systolic.Port{Side: systolic.North, Index: k, Window: systolic.Window{First: s.Alpha + k, Stride: 2, Count: s.NA},
				Feed: func(p int) systolic.Token {
					q := p - s.Alpha - k
					if q >= 0 && q%2 == 0 && q/2 < s.NA {
						i := q / 2
						return systolic.ValToken(a[i][k], systolic.Tag{Tuple: int32(i), Elem: int32(k), Valid: true})
					}
					return systolic.Empty
				}},
			systolic.Port{Side: systolic.South, Index: k, Window: systolic.Window{First: s.Beta + k, Stride: 2, Count: s.NB},
				Feed: func(p int) systolic.Token {
					q := p - s.Beta - k
					if q >= 0 && q%2 == 0 && q/2 < s.NB {
						j := q / 2
						return systolic.ValToken(b[j][k], systolic.Tag{Tuple: int32(j), Elem: int32(k), Valid: true})
					}
					return systolic.Empty
				}})
	}
	for r := 0; r < s.Rows; r++ {
		ports = append(ports, systolic.Port{Side: systolic.West, Index: r, Window: s.StartWindow(r),
			Feed: func(p int) systolic.Token {
				i, j, ok := s.PairAt(r, p)
				if !ok {
					return systolic.Empty
				}
				v := true
				if init != nil {
					v = init(i, j)
				}
				return systolic.FlagToken(v, systolic.Tag{Tuple: int32(i), Elem: int32(j), Valid: true})
			}})
	}
	return ports
}

// PairAt inverts the schedule: it returns the 0-based (i, j) whose
// comparison starts at the given row and pulse, or ok=false if no pair is
// scheduled there. Drivers use it to label west-side boolean feeds and
// east-side result arrivals.
func (s Schedule) PairAt(row, startPulse int) (i, j int, ok bool) {
	// Row fixes j-i; startPulse fixes i+j.
	diff := row - (s.NA - 1)                 // j - i
	sum := startPulse - (s.NA - 1) - s.Alpha // i + j
	if (sum+diff)%2 != 0 {
		return 0, 0, false
	}
	j = (sum + diff) / 2
	i = j - diff
	if i < 0 || i >= s.NA || j < 0 || j >= s.NB {
		return 0, 0, false
	}
	return i, j, true
}
