package systolic

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"systolicdb/internal/relation"
)

// The cell programs of the stepping property: each is a pure function of
// its latched inputs and registers, and all but holdCell do nothing on
// idle inputs.

// turnCell sends each input out of the next side clockwise.
type turnCell struct{}

func (turnCell) Step(in *Inputs, out *Outputs) {
	out.E, out.S, out.W, out.N = in.N, in.E, in.S, in.W
}
func (turnCell) Reset() {}

// mixCell folds every present input into one token sent east and south.
type mixCell struct{}

func (mixCell) Step(in *Inputs, out *Outputs) {
	if !in.Any() {
		return
	}
	t := Token{HasVal: true}
	for k, x := range [4]Token{in.N, in.S, in.E, in.W} {
		if x.Present() {
			t.Val += x.Val*relation.Element(k+1) + 1
			t.Flag = t.Flag != x.Flag
			t.Tag = x.Tag
		}
	}
	out.E, out.S = t, t
}
func (mixCell) Reset() {}

// tallyCell counts the pulses it had work and reports the count north,
// passing its west input east.
type tallyCell struct{ n int }

func (c *tallyCell) Step(in *Inputs, out *Outputs) {
	if !in.Any() {
		return
	}
	c.n++
	out.N = ValToken(relation.Element(c.n), Tag{})
	out.E = in.W
}
func (c *tallyCell) Reset() { c.n = 0 }

// holdCell is the half-speed register of the pattern-match chip: it emits
// east the token it latched from the west one pulse earlier, so it emits
// on idle inputs too. Its north input passes south.
type holdCell struct{ held Token }

func (c *holdCell) Step(in *Inputs, out *Outputs) {
	out.E, c.held = c.held, in.W
	out.S = in.N
}
func (c *holdCell) Reset()           { c.held = Empty }
func (c *holdCell) EveryPulse() bool { return true }

// pulseCounter is the identity wrap of the dense reference: it steps its
// cell unchanged and counts pulses, so it asks to be visited every pulse;
// wrapping every cell, it makes its grid visit every cell at every pulse.
type pulseCounter struct {
	inner Cell
	pulse int
}

func (c *pulseCounter) Step(in *Inputs, out *Outputs) {
	c.inner.Step(in, out)
	c.pulse++
}
func (c *pulseCounter) Reset()           { c.inner.Reset(); c.pulse = 0 }
func (c *pulseCounter) EveryPulse() bool { return true }

// program is one random grid: its shape, a cell kind per cell, the feeds
// (each a window of pulses, with every gap-th pulse of it left idle) and
// the number of pulses to run.
type program struct {
	rows, cols int
	kinds      []byte
	feeds      []progFeed
	pulses     int
}

type progFeed struct {
	side                       Side
	port, first, stride, count int
	gap                        int
}

// stream is a fuzz input read as a stream of small numbers; an exhausted
// stream reads zeros.
type stream []byte

func (b *stream) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

func decodeProgram(data []byte) program {
	b := stream(data)
	p := program{rows: 1 + b.next(6), cols: 1 + b.next(6), pulses: 1 + b.next(40)}
	p.kinds = make([]byte, p.rows*p.cols)
	for i := range p.kinds {
		p.kinds[i] = byte(b.next(5))
	}
	for range b.next(12) {
		side := Side(b.next(4))
		ports := p.cols
		if side == East || side == West {
			ports = p.rows
		}
		p.feeds = append(p.feeds, progFeed{side: side, port: b.next(ports), first: b.next(12),
			stride: 1 + b.next(4), count: b.next(10), gap: b.next(4)})
	}
	return p
}

// delivery is one sink call.
type delivery struct {
	pulse int
	side  Side
	port  int
	tok   Token
}

// run builds and runs the program, wrapped in pulseCounter when dense,
// and returns its Stats, its snapshots rendered per pulse and every sink
// call on every port. It releases the grid, so the next run of a shape
// in its size class takes it.
func (p program) run(t testing.TB, dense bool) (Stats, []string, []delivery) {
	g, err := NewGrid(p.rows, p.cols, func(r, c int) Cell {
		var cell Cell
		switch p.kinds[r*p.cols+c] {
		case 0:
			cell = passCell{}
		case 1:
			cell = turnCell{}
		case 2:
			cell = mixCell{}
		case 3:
			cell = &tallyCell{}
		default:
			cell = &holdCell{}
		}
		if dense {
			cell = &pulseCounter{inner: cell}
		}
		return cell
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	for k, f := range p.feeds {
		f, k := f, k
		w := Window{First: f.first, Stride: f.stride, Count: f.count}
		if err := g.Feed(Port{Side: f.side, Index: f.port, Window: w, Feed: func(pulse int) Token {
			q := pulse - f.first
			if q < 0 || q%f.stride != 0 || q/f.stride >= f.count {
				t.Errorf("feeder of %v[%d] called at pulse %d, outside its window %+v", f.side, f.port, pulse, w)
			}
			if f.gap > 0 && (q/f.stride)%f.gap == f.gap-1 {
				return Empty
			}
			return Token{Val: relation.Element(100*k + q), HasVal: true, Flag: q%3 == 0, HasFlag: q%2 == 0,
				Tag: Tag{Tuple: int32(k), Elem: int32(q), Valid: true}}
		}}); err != nil {
			t.Fatal(err)
		}
	}
	var log []delivery
	for side, ports := range [4]int{North: p.cols, South: p.cols, East: p.rows, West: p.rows} {
		for port := range ports {
			side, port := Side(side), port
			if err := g.Drain(side, port, func(pulse int, tok Token) {
				if !tok.Present() {
					t.Errorf("sink of %v[%d] called with an idle token at pulse %d", side, port, pulse)
				}
				log = append(log, delivery{pulse, side, port, tok})
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snaps []string
	g.SetTracer(tracerFunc(func(s Snapshot) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d:", s.Pulse)
		for _, row := range s.Latched {
			for _, in := range row {
				fmt.Fprintf(&sb, " %v,%v,%v,%v", in.N, in.S, in.E, in.W)
			}
		}
		snaps = append(snaps, sb.String())
	}))
	// No Reset: a grid from NewGrid starts idle, a released one too. Two
	// calls: the grid's state carries across Run calls.
	g.Run(p.pulses / 2)
	g.Run(p.pulses - p.pulses/2)
	return g.Stats(), snaps, log
}

// deliveryOrder is the order sinks see within one pulse: north and south
// by column, then west and east by row.
func deliveryOrder(d delivery) int {
	if d.side == North || d.side == South {
		return 2*d.port + int(d.side-North)
	}
	return 1<<20 + 2*d.port + int(West-d.side)
}

// checkStepping is the stepping property: a grid that visits only the
// cells a token reaches runs the program exactly as one that visits every
// cell at every pulse — same Stats, same snapshots, same sink calls in the
// same order — and its sinks see each pulse's tokens north and south by
// column, then west and east by row. The program runs a third time on the
// grid the dense run released, whose cells were all visited every pulse,
// and must repeat its first run.
func checkStepping(t *testing.T, p program) {
	t.Helper()
	st, snaps, log := p.run(t, false)
	wantSt, wantSnaps, wantLog := p.run(t, true)
	againSt, againSnaps, againLog := p.run(t, false)
	if againSt != st || !slices.Equal(againSnaps, snaps) || !slices.Equal(againLog, log) {
		t.Fatalf("%+v: a run on a released grid differs from the first run:\n got  %+v %v %v\n want %+v %v %v",
			p, againSt, againSnaps, againLog, st, snaps, log)
	}
	if st != wantSt {
		t.Fatalf("%+v: stats %+v, visiting every cell %+v", p, st, wantSt)
	}
	if !slices.Equal(snaps, wantSnaps) {
		for i := range min(len(snaps), len(wantSnaps)) {
			if snaps[i] != wantSnaps[i] {
				t.Fatalf("%+v: snapshot %d\n got  %s\n want %s", p, i, snaps[i], wantSnaps[i])
			}
		}
		t.Fatalf("%+v: %d snapshots, want %d", p, len(snaps), len(wantSnaps))
	}
	if !slices.Equal(log, wantLog) {
		t.Fatalf("%+v: sink calls\n got  %v\n want %v", p, log, wantLog)
	}
	for i := 1; i < len(log); i++ {
		if log[i].pulse == log[i-1].pulse && deliveryOrder(log[i]) <= deliveryOrder(log[i-1]) {
			t.Fatalf("%+v: sink order %v then %v", p, log[i-1], log[i])
		}
	}
}

// TestGridStepping checks the stepping property on random programs.
func TestGridStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	data := make([]byte, 64)
	for range 500 {
		rng.Read(data)
		checkStepping(t, decodeProgram(data))
	}
}

// FuzzGridStepping checks the stepping property on fuzzed programs.
func FuzzGridStepping(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 30, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 4, 3, 1, 0, 1, 5, 0, 2, 2, 0, 2, 1, 3, 0})
	f.Add([]byte{5, 5, 39, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 11, 3, 0, 0, 1, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStepping(t, decodeProgram(data))
	})
}
