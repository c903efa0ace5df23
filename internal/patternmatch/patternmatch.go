// Package patternmatch implements the pattern-match chip of Foster & Kung —
// reference [3] of Kung & Lehman (1980) — which §8 describes as "a
// scaled-down version of the comparison array in Section 3. (This chip has
// been fabricated, tested, and found to work.)"
//
// The chip is a linear systolic array with the pattern preloaded, one
// character per cell. Text characters stream through at one cell per
// pulse; partial match results travel the same direction at *half* speed
// (each cell holds a result for one pulse before forwarding it), so the
// result for alignment p meets exactly the text characters p, p+1, ...,
// p+L-1 at cells 0, 1, ..., L-1 and accumulates the AND of the per-cell
// comparisons. One alignment result is produced per pulse at steady state.
//
// A Wildcard pattern element matches any character — the "don't care"
// capability of the fabricated chip.
package patternmatch

import (
	"fmt"

	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Wildcard is the pattern element that matches any text character.
const Wildcard relation.Element = -1

// cell is one pattern-match processor: a stored pattern character, a text
// character passing at full speed, and a result register that delays each
// partial match by one pulse (half-speed results).
type cell struct {
	pat  relation.Element
	held systolic.Token // result latched last pulse, forwarded this pulse
}

func (c *cell) Step(in *systolic.Inputs, out *systolic.Outputs) {
	// Forward the result held from the previous pulse.
	if c.held.Present() {
		out.E = c.held
		c.held = systolic.Empty
	}
	// Text continues at full speed on the N line (a dedicated character
	// channel, distinct from the W/E result channel).
	if in.N.HasVal {
		out.S = in.N
	}
	// A result arriving from the west is combined with the text
	// character arriving this same pulse, then held for one pulse.
	if in.W.HasFlag {
		r := in.W
		if in.N.HasVal {
			ok := c.pat == Wildcard || in.N.Val == c.pat
			r.Flag = r.Flag && ok
		} else {
			// The alignment runs off the end of the text: no match.
			r.Flag = false
		}
		c.held = r
	}
}

func (c *cell) Reset() { c.held = systolic.Empty }

// EveryPulse implements systolic.Visited: the result register releases
// what it held on a pulse whose inputs may be idle.
func (c *cell) EveryPulse() bool { return true }

// Match streams text through a pattern-match array and returns one boolean
// per alignment p in [0, len(text)-len(pattern)]: whether
// text[p : p+len(pattern)] matches the pattern.
//
// Implementation note on geometry: the engine's grids route W->E and N->S
// independently, so the linear chip is modelled as a 1 x L grid whose
// "text" channel uses the N/S ports of each column (re-injected to the
// next column by the driver via the schedule) — physically the chip has
// two forward channels of different speeds, which is exactly what the two
// port pairs model. Text character q is fed to column k at pulse q + k;
// the result for alignment p is injected at column 0 at pulse p and
// emerges from column L-1 at pulse p + 2L - 2.
func Match(pattern, text []relation.Element) ([]bool, systolic.Stats, error) {
	L := len(pattern)
	if L == 0 {
		return nil, systolic.Stats{}, fmt.Errorf("patternmatch: empty pattern")
	}
	nAlign := len(text) - L + 1
	if nAlign <= 0 {
		return []bool{}, systolic.Stats{}, nil
	}
	grid, err := systolic.NewGrid(1, L, func(_, k int) systolic.Cell {
		return &cell{pat: pattern[k]}
	})
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	defer grid.Release()
	if err := grid.Feed(ports(L, text)...); err != nil {
		return nil, systolic.Stats{}, err
	}
	matches := make([]bool, nAlign)
	got := make([]bool, nAlign)
	var collectErr error
	if err := grid.Drain(systolic.East, 0, func(pulse int, tok systolic.Token) {
		if !tok.HasFlag || collectErr != nil {
			return
		}
		// r_p is latched by cell L-1 at pulse p + 2(L-1) and forwarded
		// the following pulse.
		p := pulse - (2*L - 1)
		if p < 0 || p >= nAlign {
			collectErr = fmt.Errorf("patternmatch: unexpected result at pulse %d", pulse)
			return
		}
		if tok.Tag.Valid && int(tok.Tag.Tuple) != p {
			collectErr = fmt.Errorf("patternmatch: schedule misalignment: positional %d, tag %d", p, tok.Tag.Tuple)
			return
		}
		matches[p] = tok.Flag
		got[p] = true
	}); err != nil {
		return nil, systolic.Stats{}, err
	}
	grid.Reset()
	grid.Run(nAlign + 2*L)
	if collectErr != nil {
		return nil, systolic.Stats{}, collectErr
	}
	for p, g := range got {
		if !g {
			return nil, systolic.Stats{}, fmt.Errorf("patternmatch: no result for alignment %d", p)
		}
	}
	return matches, grid.Stats(), nil
}

// ports returns the chip's feeds. Text channel: character q reaches cell k
// at pulse q + k. Each column is fed from the north with the appropriately
// delayed character stream (the physical chip shifts characters cell to
// cell; feeding each column the same stream delayed by k is the same
// dataflow expressed through the engine's boundary). Result channel:
// alignment p's TRUE token enters cell 0 at pulse p.
func ports(L int, text []relation.Element) []systolic.Port {
	nAlign := len(text) - L + 1
	ports := []systolic.Port{{Side: systolic.West, Index: 0, Window: systolic.Window{First: 0, Stride: 1, Count: nAlign},
		Feed: func(p int) systolic.Token {
			if p >= 0 && p < nAlign {
				return systolic.FlagToken(true, systolic.Tag{Tuple: int32(p), Valid: true})
			}
			return systolic.Empty
		}}}
	for k := 0; k < L; k++ {
		ports = append(ports, systolic.Port{Side: systolic.North, Index: k, Window: systolic.Window{First: k, Stride: 1, Count: len(text)},
			Feed: func(p int) systolic.Token {
				q := p - k
				if q >= 0 && q < len(text) {
					return systolic.ValToken(text[q], systolic.Tag{Tuple: int32(q), Valid: true})
				}
				return systolic.Empty
			}})
	}
	return ports
}

// MatchString runs the array on byte strings; '?' in the pattern is the
// wildcard. It returns the matching start positions.
func MatchString(pattern, text string) ([]int, systolic.Stats, error) {
	// Index byte-by-byte: `for i := range s` over a string visits rune
	// start offsets only, which would leave zero elements inside
	// multi-byte UTF-8 sequences (a bug found by FuzzMatchString).
	pat := make([]relation.Element, len(pattern))
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '?' {
			pat[i] = Wildcard
		} else {
			pat[i] = relation.Element(pattern[i])
		}
	}
	txt := make([]relation.Element, len(text))
	for i := 0; i < len(text); i++ {
		txt[i] = relation.Element(text[i])
	}
	bits, st, err := Match(pat, txt)
	if err != nil {
		return nil, st, err
	}
	var positions []int
	for p, ok := range bits {
		if ok {
			positions = append(positions, p)
		}
	}
	return positions, st, nil
}

// Reference is the brute-force specification used by tests.
func Reference(pattern, text []relation.Element) []bool {
	nAlign := len(text) - len(pattern) + 1
	if nAlign <= 0 {
		return []bool{}
	}
	out := make([]bool, nAlign)
	for p := range out {
		ok := true
		for k, pc := range pattern {
			if pc != Wildcard && text[p+k] != pc {
				ok = false
				break
			}
		}
		out[p] = ok
	}
	return out
}
