// This file implements the *hardware* general case of §7: "The extension
// from this to the general case is straightforward (as in the preceding
// section on the join)." Where Divide reduces multi-column groups to the
// restricted binary/unary case by composite interning (a word-parallel
// reading), RunGeneralArray builds the array the sentence implies: one
// processor column per quotient column (match bits ANDed across the group,
// exactly like the join array's columns), one gate column per divided
// column, and one divisor processor per divisor column per divisor tuple.
//
// Dataflow (derived in the comments below; verified against the interned
// implementation in tests):
//
//   - pairs enter from the south and move north, z elements staggered one
//     pulse apart, y elements two pulses apart, consecutive pairs S = ky+1
//     pulses apart (the frame the gate block emits per pair is ky+1 tokens
//     long, so the pipeline period must be at least that);
//   - the per-pair match bit is generated in the left block and sweeps
//     east, meeting each z element exactly at its column;
//   - the gate block serialises each pair into a *frame* — a leader token
//     (carrying the match bit) followed by the ky gated y values — which
//     slides east through the divisor rows at one column per pulse;
//   - each divisor processor knows its index within its group, counts the
//     value tokens since the last frame leader, and latches a match when
//     its indexed value equals its stored element;
//   - after the last pair, an AND probe follows the frames and collects
//     the conjunction of the row's divisor registers.
package division

import (
	"fmt"

	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// multiStore is the left-block processor: one stored element of a quotient
// tuple. The match bit chain works exactly like a join-array row: the
// partial bit arrives from the west in step with the z element from the
// south. The leftmost column has no west input, which reads as TRUE.
type multiStore struct {
	x relation.Element
}

func (c *multiStore) Step(in *systolic.Inputs, out *systolic.Outputs) {
	if in.S.HasVal {
		out.N = in.S
		eq := in.S.Val == c.x
		if in.W.HasFlag {
			eq = eq && in.W.Flag
		}
		out.E = systolic.FlagToken(eq, in.S.Tag)
	}
}

func (c *multiStore) Reset() {}

// multiGate is the gate-block processor. It forwards frame tokens from the
// west, latches the pair's match bit from the frame leader (or, in the
// first gate column, from the raw bit arriving off the left block), gates
// its own y element, and appends it to the frame one pulse later.
type multiGate struct {
	lastCol bool // last gate column appends the frame tail

	bit         bool
	bitSet      bool
	hold        systolic.Token
	hasHold     bool
	pendingTail bool
}

// Frame-token type marks. Hardware would carry a two-bit type field beside
// the data; the simulator encodes it in reserved element values on
// dual-payload tokens.
const (
	leaderMark = relation.Null
	tailMark   = relation.Null + 1
)

// leaderToken marks the start of a pair's frame and carries the pair's
// dividend-match bit.
func leaderToken(bit bool, tag systolic.Tag) systolic.Token {
	t := systolic.FlagToken(bit, tag)
	t.HasVal = true
	t.Val = leaderMark
	return t
}

// tailToken ends a pair's frame; as it slides through a divisor group it
// accumulates the AND of the group's per-frame element matches, which is
// what makes multi-column divisor matching frame-coherent (all columns must
// match in the *same* frame).
func tailToken(tag systolic.Tag) systolic.Token {
	t := systolic.FlagToken(true, tag)
	t.HasVal = true
	t.Val = tailMark
	return t
}

func isLeader(t systolic.Token) bool { return t.HasVal && t.HasFlag && t.Val == leaderMark }
func isTail(t systolic.Token) bool   { return t.HasVal && t.HasFlag && t.Val == tailMark }
func isProbe(t systolic.Token) bool  { return t.HasFlag && !t.HasVal }
func isValue(t systolic.Token) bool  { return t.HasVal && !t.HasFlag }

func (c *multiGate) Step(in *systolic.Inputs, out *systolic.Outputs) {
	// West-side frame traffic: the leader refreshes the bit register and
	// every frame token is forwarded east unchanged. A pure flag from the
	// west coinciding with a y element is the first gate column's raw bit
	// off the left block (handled below); without a y it can only be a
	// schedule anomaly and is forwarded harmlessly.
	switch {
	case isLeader(in.W):
		c.bit = in.W.Flag
		c.bitSet = true
		out.E = in.W
	case isTail(in.W), isValue(in.W):
		out.E = in.W
	case isProbe(in.W) && !in.S.HasVal:
		out.E = in.W
	}

	switch {
	case in.S.HasVal:
		// A y element continues north; its gated copy joins the frame
		// one pulse later.
		out.N = in.S
		if isProbe(in.W) {
			// First gate column: the raw match bit arrives exactly
			// with y_0; emit the frame leader.
			c.bit = in.W.Flag
			c.bitSet = true
			out.E = leaderToken(c.bit, in.S.Tag)
		}
		g := in.S
		if !c.bitSet || !c.bit {
			g.Val = relation.Null
		}
		g.HasFlag = false
		c.hold = g
		c.hasHold = true
	case in.S.HasFlag:
		// The AND probe climbing the last gate column: continue north
		// and turn east into the divisor rows.
		out.N = in.S
		if !out.E.Present() {
			out.E = in.S
		}
	}

	// Emit the held gated value on the first idle east pulse; the last
	// gate column follows it with the frame tail one pulse later.
	if c.hasHold && !out.E.Present() {
		out.E = c.hold
		c.hasHold = false
		if c.lastCol {
			c.pendingTail = true
		}
	} else if c.pendingTail && !out.E.Present() {
		out.E = tailToken(systolic.Tag{Valid: true})
		c.pendingTail = false
	}
}

func (c *multiGate) Reset() {
	c.bit, c.bitSet, c.hasHold, c.pendingTail = false, false, false, false
	c.hold = systolic.Empty
}

// EveryPulse implements systolic.Visited: a held gated value and the frame
// tail leave on the first idle east pulse, whether or not an input is
// present.
func (c *multiGate) EveryPulse() bool { return true }

// multiDivisor is the divisor-block processor: one stored element of one
// divisor tuple, plus its index within the group. It counts value tokens
// since the last frame leader to know which y element is passing.
type multiDivisor struct {
	y     relation.Element
	index int
	last  bool // last cell of its group holds the group's OR register

	counter      int
	framed       bool
	frameMatch   bool // did this cell's indexed element match in the current frame
	groupMatched bool // (last cell only) did any complete frame match the whole group
}

func (c *multiDivisor) Step(in *systolic.Inputs, out *systolic.Outputs) {
	switch {
	case isLeader(in.W):
		c.counter = 0
		c.framed = true
		c.frameMatch = false
		out.E = in.W
	case isValue(in.W):
		if c.framed {
			if c.counter == c.index && in.W.Val != relation.Null && in.W.Val == c.y {
				c.frameMatch = true
			}
			c.counter++
		}
		out.E = in.W
	case isTail(in.W):
		// The tail accumulates the AND of the group's per-frame
		// matches; the group's last cell ORs the completed conjunction
		// into its register. This is what makes multi-column matching
		// frame-coherent: all columns must match within one frame.
		tail := in.W
		tail.Flag = tail.Flag && c.frameMatch
		if c.last {
			if tail.Flag {
				c.groupMatched = true
			}
			// The tail leaves the group reset for the next one.
			tail.Flag = true
		}
		c.framed = false
		out.E = tail
	case isProbe(in.W):
		probe := in.W
		if c.last {
			probe.Flag = probe.Flag && c.groupMatched
		}
		out.E = probe
	}
}

func (c *multiDivisor) Reset() {
	c.counter, c.framed, c.frameMatch, c.groupMatched = 0, false, false, false
}

// GeneralProblem is a division expressed for the hardware general array:
// dividend pairs as (z-tuple, y-tuple), distinct quotient tuples to
// preload, and divisor tuples.
type GeneralProblem struct {
	ZS      []relation.Tuple // pair quotient tuples, width kz
	YS      []relation.Tuple // pair divided tuples, width ky
	Xs      []relation.Tuple // distinct quotient tuples (rows), width kz
	Divisor []relation.Tuple // divisor tuples, width ky
}

// probeEntry is the pulse at which the AND probe enters the last gate
// column, after the last of n pairs with a frame period of ky+2.
func probeEntry(n, kz, ky int) int { return (ky+2)*n + kz + 2*ky + 2 }

// ports returns the south feeds of the general array: pair p's z elements
// (stagger 1) at pulse S·p + c into column c < kz, its y elements
// (stagger 2) at S·p + kz + 2c into gate column kz + c, with S = ky+2 the
// frame period, and the probe after the last pair into the last gate
// column. The probe is off that column's S-pulse lattice, so its window
// takes every pulse from the first y to the probe.
func (p GeneralProblem) ports(kz, ky int) []systolic.Port {
	n, S := len(p.ZS), ky+2
	var ports []systolic.Port
	for c := 0; c < kz; c++ {
		ports = append(ports, systolic.Port{Side: systolic.South, Index: c, Window: systolic.Window{First: c, Stride: S, Count: n},
			Feed: func(pulse int) systolic.Token {
				q := pulse - c
				if q >= 0 && q%S == 0 && q/S < n {
					pr := q / S
					return systolic.ValToken(p.ZS[pr][c], systolic.Tag{Tuple: int32(pr), Elem: int32(c), Valid: true})
				}
				return systolic.Empty
			}})
	}
	probe := probeEntry(n, kz, ky)
	for c := 0; c < ky; c++ {
		w := systolic.Window{First: kz + 2*c, Stride: S, Count: n}
		if c == ky-1 {
			w = systolic.Window{First: kz + 2*c, Stride: 1, Count: probe - (kz + 2*c) + 1}
		}
		ports = append(ports, systolic.Port{Side: systolic.South, Index: kz + c, Window: w,
			Feed: func(pulse int) systolic.Token {
				if c == ky-1 && pulse == probe {
					return systolic.FlagToken(true, systolic.Tag{Valid: true})
				}
				q := pulse - kz - 2*c
				if q >= 0 && q%S == 0 && q/S < n {
					pr := q / S
					return systolic.ValToken(p.YS[pr][c], systolic.Tag{Tuple: int32(pr), Elem: int32(c), Valid: true})
				}
				return systolic.Empty
			}})
	}
	return ports
}

// RunGeneralArray runs the multi-column division array and returns the
// quotient-membership bit per stored quotient tuple.
func RunGeneralArray(p GeneralProblem, tracer systolic.Tracer) ([]bool, systolic.Stats, error) {
	nRows := len(p.Xs)
	if nRows == 0 {
		return nil, systolic.Stats{}, nil
	}
	if len(p.ZS) != len(p.YS) {
		return nil, systolic.Stats{}, fmt.Errorf("division: %d z-tuples vs %d y-tuples", len(p.ZS), len(p.YS))
	}
	kz := len(p.Xs[0])
	if kz == 0 {
		return nil, systolic.Stats{}, fmt.Errorf("division: empty quotient tuples")
	}
	ky := 0
	if len(p.YS) > 0 {
		ky = len(p.YS[0])
	} else if len(p.Divisor) > 0 {
		ky = len(p.Divisor[0])
	} else {
		ky = 1 // no pairs and no divisor: width is irrelevant
	}
	for _, t := range p.Xs {
		if len(t) != kz {
			return nil, systolic.Stats{}, fmt.Errorf("division: ragged quotient tuples")
		}
	}
	for i := range p.ZS {
		if len(p.ZS[i]) != kz || len(p.YS[i]) != ky {
			return nil, systolic.Stats{}, fmt.Errorf("division: pair %d has wrong widths", i)
		}
	}
	for _, t := range p.Divisor {
		if len(t) != ky {
			return nil, systolic.Stats{}, fmt.Errorf("division: ragged divisor tuples")
		}
	}

	n := len(p.ZS)
	nDiv := len(p.Divisor)
	cols := kz + ky + nDiv*ky

	grid, err := systolic.NewGrid(nRows, cols, func(r, c int) systolic.Cell {
		switch {
		case c < kz:
			return &multiStore{x: p.Xs[r][c]}
		case c < kz+ky:
			return &multiGate{lastCol: c == kz+ky-1}
		default:
			j := c - kz - ky
			return &multiDivisor{y: p.Divisor[j/ky][j%ky], index: j % ky, last: j%ky == ky-1}
		}
	})
	if err != nil {
		return nil, systolic.Stats{}, err
	}
	defer grid.Release()
	grid.SetTracer(tracer)

	if err := grid.Feed(p.ports(kz, ky)...); err != nil {
		return nil, systolic.Stats{}, err
	}

	bits := make([]bool, nRows)
	got := make([]bool, nRows)
	var collectErr error
	for r := 0; r < nRows; r++ {
		r := r
		if err := grid.Drain(systolic.East, r, func(_ int, tok systolic.Token) {
			if !isProbe(tok) || collectErr != nil {
				return
			}
			if got[r] {
				collectErr = fmt.Errorf("division: duplicate probe at row %d", r)
				return
			}
			bits[r] = tok.Flag
			got[r] = true
		}); err != nil {
			return nil, systolic.Stats{}, err
		}
	}

	grid.Reset()
	grid.Run(probeEntry(n, kz, ky) + nRows + nDiv*ky + ky + 6)
	if collectErr != nil {
		return nil, systolic.Stats{}, collectErr
	}
	for r, g := range got {
		if !g {
			return nil, systolic.Stats{}, fmt.Errorf("division: no probe output for row %d", r)
		}
	}
	return bits, grid.Stats(), nil
}

// DivideHW computes the general division on the multi-column hardware
// array (no composite interning). Column-group semantics match Divide.
func DivideHW(a, b *relation.Relation, aQuot, aDiv, bCols []int) (*Result, error) {
	// Reuse Prepare for validation and the distinct-x identification
	// (which runs the remove-duplicates array), but feed the hardware
	// array with the raw multi-column tuples.
	ip, err := Prepare(a, b, aQuot, aDiv, bCols)
	if err != nil {
		return nil, err
	}
	if a.Cardinality() == 0 {
		rel, err := ip.Materialize(nil)
		if err != nil {
			return nil, err
		}
		return &Result{Rel: rel}, nil
	}
	gp := GeneralProblem{}
	for i := 0; i < a.Cardinality(); i++ {
		t := a.Tuple(i)
		gp.ZS = append(gp.ZS, t.Project(aQuot))
		gp.YS = append(gp.YS, t.Project(aDiv))
	}
	// Distinct quotient tuples, first-occurrence order (same order the
	// interned Prepare produced, so results align with ip.Xs).
	seen := make(map[string]bool)
	for _, z := range gp.ZS {
		k := z.String()
		if !seen[k] {
			seen[k] = true
			gp.Xs = append(gp.Xs, z)
		}
	}
	seenDiv := make(map[string]bool)
	for j := 0; j < b.Cardinality(); j++ {
		d := b.Tuple(j).Project(bCols)
		k := d.String()
		if !seenDiv[k] {
			seenDiv[k] = true
			gp.Divisor = append(gp.Divisor, d)
		}
	}
	bits, stats, err := RunGeneralArray(gp, nil)
	if err != nil {
		return nil, err
	}
	if bits == nil {
		bits = []bool{}
	}
	rel, err := ip.Materialize(bits)
	if err != nil {
		return nil, err
	}
	return &Result{Rel: rel, Xs: ip.Xs, Bits: bits, Stats: stats, Dedup: ip.Dedup}, nil
}
