// Package hex implements the hexagonally connected systolic array of Kung &
// Leiserson — reference [5] of Kung & Lehman (1980), whose §2.1 notes that
// "hexagonally connected arrays as in [5] would work as well in many
// instances". The canonical hex-array computation, and the one implemented
// here, is matrix multiplication: three data streams (the A, B and C
// matrices) flow through the array in three directions 120° apart, and
// wherever an a, a b and a c meet in a cell, the cell performs one
// multiply-accumulate step of c_ij += a_ik * b_kj.
//
// Geometry. Cells live on axial hex coordinates (x, y) with the six
// neighbour offsets (±1,0), (0,±1), (+1,−1), (−1,+1). The three stream
// directions are
//
//	dA = (+1, 0)    a_ik moves east
//	dB = (−1, +1)   b_kj moves southwest
//	dC = (0, −1)    c_ij moves north
//
// whose sum is zero — the 120° property that makes a three-way rendezvous
// schedule solvable. Solving  P + T·d  for a common meeting point gives the
// closed-form schedule (verified in tests):
//
//	meeting time    T(i,j,k)  = i + j + k
//	meeting cell    M(i,j,k)  = (j − i, i − k)
//	start positions P_A(i,k)  = (−2i − k,  i − k)
//	                P_B(k,j)  = (2j + k,  −j − 2k)
//	                P_C(i,j)  = (j − i,    2i + j)
//
// Consecutive elements of each stream ride three pulses apart along their
// line of travel, so at most one third of the cells hold any given stream's
// data at once — the familiar 1/3-utilization of the hex array.
package hex

import (
	"fmt"

	"systolicdb/internal/relation"
)

// Dir is one of the six hex directions.
type Dir int

// Hex directions (axial offsets).
const (
	East      Dir = iota // (+1, 0)
	West                 // (-1, 0)
	South                // (0, +1)
	North                // (0, -1)
	NorthEast            // (+1, -1)
	SouthWest            // (-1, +1)
)

// offset returns the axial coordinate offset of a direction.
func (d Dir) offset() (int, int) {
	switch d {
	case East:
		return 1, 0
	case West:
		return -1, 0
	case South:
		return 0, 1
	case North:
		return 0, -1
	case NorthEast:
		return 1, -1
	case SouthWest:
		return -1, 1
	}
	return 0, 0
}

// Coord is an axial hex coordinate.
type Coord struct{ X, Y int }

// Add returns the coordinate one step in the given direction.
func (c Coord) Add(d Dir) Coord {
	dx, dy := d.offset()
	return Coord{c.X + dx, c.Y + dy}
}

// Token is a value in flight on the hex array, tagged with its stream and
// matrix indices for collection.
type Token struct {
	Val    relation.Element
	Stream rune // 'a', 'b' or 'c'
	I, J   int  // matrix indices: a_ik -> (i,k), b_kj -> (k,j), c_ij -> (i,j)
}

// Stats counts the activity of a hex run.
type Stats struct {
	Pulses      int
	Cells       int
	CellSteps   int
	ActiveSteps int // cell-pulses with at least one token present
	MACs        int // multiply-accumulate operations performed
}

// Utilization returns ActiveSteps / CellSteps.
func (s Stats) Utilization() float64 {
	if s.CellSteps == 0 {
		return 0
	}
	return float64(s.ActiveSteps) / float64(s.CellSteps)
}

// injection schedules a token to appear at a cell at a pulse, travelling in
// the given direction from then on.
type injection struct {
	pulse int
	at    Coord
	dir   Dir
	tok   Token
}

// Array is a bounded hexagonally connected array executing the
// multiply-accumulate rendezvous program in every cell.
type Array struct {
	minX, maxX, minY, maxY int
	injections             []injection
	stats                  Stats
}

// inBounds reports whether a coordinate is inside the array.
func (h *Array) inBounds(c Coord) bool {
	return c.X >= h.minX && c.X <= h.maxX && c.Y >= h.minY && c.Y <= h.maxY
}

// flight is a token moving across the array.
type flight struct {
	at  Coord
	dir Dir
	tok Token
}

// run advances the array until every token has left the bounds, calling
// collect for each exiting token. Cells hold no state: each pulse, the
// tokens co-located at a cell interact (c += a*b when all three streams are
// present), then every token moves one cell along its direction.
func (h *Array) run(collect func(Token)) {
	cells := (h.maxX - h.minX + 1) * (h.maxY - h.minY + 1)
	h.stats.Cells = cells

	var inFlight []flight
	pending := append([]injection(nil), h.injections...)
	pulse := 0
	for len(inFlight) > 0 || len(pending) > 0 {
		// Inject tokens scheduled for this pulse.
		rest := pending[:0]
		for _, inj := range pending {
			if inj.pulse == pulse {
				inFlight = append(inFlight, flight{at: inj.at, dir: inj.dir, tok: inj.tok})
			} else {
				rest = append(rest, inj)
			}
		}
		pending = rest

		// Group tokens by cell and perform the rendezvous computation.
		byCell := make(map[Coord][]int, len(inFlight))
		for idx := range inFlight {
			byCell[inFlight[idx].at] = append(byCell[inFlight[idx].at], idx)
		}
		for _, idxs := range byCell {
			var ai, bi, ci = -1, -1, -1
			for _, idx := range idxs {
				switch inFlight[idx].tok.Stream {
				case 'a':
					ai = idx
				case 'b':
					bi = idx
				case 'c':
					ci = idx
				}
			}
			if ai >= 0 && bi >= 0 && ci >= 0 {
				inFlight[ci].tok.Val += inFlight[ai].tok.Val * inFlight[bi].tok.Val
				h.stats.MACs++
			}
		}
		h.stats.ActiveSteps += len(byCell)

		// Move every token; collect the ones that leave the array.
		next := inFlight[:0]
		for _, f := range inFlight {
			f.at = f.at.Add(f.dir)
			if h.inBounds(f.at) {
				next = append(next, f)
			} else {
				collect(f.tok)
			}
		}
		inFlight = next

		pulse++
		h.stats.CellSteps += cells
	}
	h.stats.Pulses = pulse
}

// Multiply computes the n x n integer matrix product C = A·B on the
// hexagonal array. Zero entries of A and B are not injected — this is what
// makes the array efficient for the band matrices of [5]: the array area
// and token count scale with the bands, not with n².
func Multiply(a, b [][]relation.Element) ([][]relation.Element, Stats, error) {
	n := len(a)
	if n == 0 {
		return nil, Stats{}, fmt.Errorf("hex: empty matrix")
	}
	for _, row := range a {
		if len(row) != n {
			return nil, Stats{}, fmt.Errorf("hex: A is not square")
		}
	}
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("hex: dimension mismatch: |A|=%d |B|=%d", n, len(b))
	}
	for _, row := range b {
		if len(row) != n {
			return nil, Stats{}, fmt.Errorf("hex: B is not square")
		}
	}

	// The meeting cells span x = j-i, y = i-k for i,j,k in [0,n);
	// token start positions lie outside, so the array bounds cover the
	// full travel region.
	h := &Array{
		minX: -3 * (n - 1), maxX: 3 * (n - 1),
		minY: -3 * (n - 1), maxY: 3 * (n - 1),
	}

	// Inject A (skip zeros).
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if a[i][k] == 0 {
				continue
			}
			h.injections = append(h.injections, injection{
				pulse: 0,
				at:    Coord{-2*i - k, i - k},
				dir:   East,
				tok:   Token{Val: a[i][k], Stream: 'a', I: i, J: k},
			})
		}
	}
	// Inject B (skip zeros).
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			if b[k][j] == 0 {
				continue
			}
			h.injections = append(h.injections, injection{
				pulse: 0,
				at:    Coord{2*j + k, -j - 2*k},
				dir:   SouthWest,
				tok:   Token{Val: b[k][j], Stream: 'b', I: k, J: j},
			})
		}
	}
	// Inject C accumulators (all of them — results may be non-zero
	// anywhere).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.injections = append(h.injections, injection{
				pulse: 0,
				at:    Coord{j - i, 2*i + j},
				dir:   North,
				tok:   Token{Val: 0, Stream: 'c', I: i, J: j},
			})
		}
	}

	c := make([][]relation.Element, n)
	for i := range c {
		c[i] = make([]relation.Element, n)
	}
	got := 0
	h.run(func(tok Token) {
		if tok.Stream == 'c' {
			c[tok.I][tok.J] = tok.Val
			got++
		}
	})
	if got != n*n {
		return nil, Stats{}, fmt.Errorf("hex: collected %d of %d results", got, n*n)
	}
	return c, h.stats, nil
}

// Reference computes C = A·B directly, as the test specification.
func Reference(a, b [][]relation.Element) [][]relation.Element {
	n := len(a)
	c := make([][]relation.Element, n)
	for i := range c {
		c[i] = make([]relation.Element, n)
		for j := 0; j < n; j++ {
			var sum relation.Element
			for k := 0; k < n; k++ {
				sum += a[i][k] * b[k][j]
			}
			c[i][j] = sum
		}
	}
	return c
}
