package systolic_test

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/division"
	"systolicdb/internal/intersect"
	"systolicdb/internal/patternmatch"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

var updateStepping = flag.Bool("update", false, "rewrite testdata/stepping.golden")

// record is everything one driver run shows of its grid: the driver's
// result (or error), its Stats, every tracer snapshot and, under the
// counting wrap, every token a cell presented on the grid boundary — the
// tokens the grid delivers to that port's sink.
type record struct {
	result string
	stats  systolic.Stats
	snaps  *recorder // nil when the driver takes no tracer
	emits  []emit    // nil when the driver takes no wrap
}

// emit is a token presented on the grid boundary: (pulse, side, port,
// token) rendered as text, and its place in the order sinks see a pulse's
// tokens (north and south by column, then west and east by row).
type emit struct {
	pulse, order int
	text         string
}

// recorder hashes every snapshot it observes, in order, and notes the
// grid's latch plane.
type recorder struct {
	pulses int
	h      hashWriter
	plane  *systolic.Inputs
}

func (r *recorder) Observe(s systolic.Snapshot) {
	r.pulses++
	r.plane = &s.Latched[0][0]
	r.h.int(s.Pulse, s.Rows, s.Cols)
	for _, row := range s.Latched {
		for i := range row {
			in := &row[i]
			r.h.tok(in.N, in.S, in.E, in.W)
		}
	}
}

type hashWriter struct{ buf []byte }

func (h *hashWriter) int(vs ...int) {
	for _, v := range vs {
		h.buf = binary.AppendVarint(h.buf, int64(v))
	}
}

func (h *hashWriter) tok(ts ...systolic.Token) {
	for _, t := range ts {
		h.buf = append(h.buf, fmt.Sprintf("%v|%d|%d|%v;", t, t.Tag.Tuple, t.Tag.Elem, t.Tag.Valid)...)
	}
}

func (h *hashWriter) sum() string {
	f := fnv.New64a()
	f.Write(h.buf)
	return fmt.Sprintf("%016x", f.Sum64())
}

// countingWrap is the identity wrap of the reference runs: each wrapped
// cell steps its inner cell unchanged and counts its own pulses. A cell
// that counts pulses must see every pulse, so it asks to be visited every
// pulse; as every cell is wrapped, the grid visits every cell at every
// pulse: a run under this wrap is the dense reference a
// visit-only-what-a-token-reaches grid must reproduce. Cells on the
// boundary also log what they present toward the outside of a rows x cols
// grid.
func countingWrap(rows, cols int, emits *[]emit) systolic.Wrap {
	return func(row, col int, cell systolic.Cell) systolic.Cell {
		return &countingCell{inner: cell, row: row, col: col, rows: rows, cols: cols, emits: emits}
	}
}

type countingCell struct {
	inner                systolic.Cell
	row, col, rows, cols int
	pulse                int
	emits                *[]emit
}

func (c *countingCell) Step(in *systolic.Inputs, out *systolic.Outputs) {
	c.inner.Step(in, out)
	log := func(edge bool, side systolic.Side, port, order int, t systolic.Token) {
		if edge && t.Present() {
			*c.emits = append(*c.emits, emit{c.pulse, order, fmt.Sprintf("%d %v %d %v/%v", c.pulse, side, port, t, t.Tag)})
		}
	}
	log(c.row == 0, systolic.North, c.col, 2*c.col, out.N)
	log(c.row == c.rows-1, systolic.South, c.col, 2*c.col+1, out.S)
	log(c.col == c.cols-1, systolic.East, c.row, 2*c.cols+2*c.row+1, out.E)
	log(c.col == 0, systolic.West, c.row, 2*c.cols+2*c.row, out.W)
	c.pulse++
}

func (c *countingCell) EveryPulse() bool { return true }

// driverCase is one random shape of one array driver: the rows x cols
// grid it builds, and run, which executes it with an optional tracer and
// wrap; a driver that takes neither ignores them, and says so through
// traced and wrapped.
type driverCase struct {
	name            string
	rows, cols      int
	traced, wrapped bool
	run             func(tr systolic.Tracer, wrap systolic.Wrap) (string, systolic.Stats)
}

func randTuples(rng *rand.Rand, n, m, domain int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		t := make(relation.Tuple, m)
		for k := range t {
			t[k] = relation.Element(rng.Intn(domain))
		}
		out[i] = t
	}
	return out
}

func randInit(rng *rand.Rand) comparison.InitFunc {
	if rng.Intn(2) == 0 {
		return nil
	}
	salt := rng.Intn(1 << 20)
	return func(i, j int) bool { return (i*31+j*17+salt)%3 != 0 }
}

func outcome(v any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(v)
}

func matrixString(m *comparison.Matrix) string {
	var sb strings.Builder
	for _, row := range m.Bits {
		for _, b := range row {
			if b {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte('/')
	}
	return sb.String()
}

// driverCases draws the random shapes of every array driver, from fixed
// seeds so the golden file stays valid.
func driverCases() []driverCase {
	var cases []driverCase
	add := func(c driverCase) { cases = append(cases, c) }
	const perDriver = 12

	rng := rand.New(rand.NewSource(1))
	for n := range perDriver {
		nA, nB, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(3)
		a, b, init := randTuples(rng, nA, m, 3), randTuples(rng, nB, m, 3), randInit(rng)
		add(driverCase{name: fmt.Sprintf("Run2D/%d/%dx%dx%d", n, nA, nB, m), rows: nA + nB - 1, cols: m, traced: true, wrapped: true,
			run: func(tr systolic.Tracer, wrap systolic.Wrap) (string, systolic.Stats) {
				res, err := comparison.Run2DWrap(a, b, nil, init, tr, wrap)
				if err != nil {
					return outcome(nil, err), systolic.Stats{}
				}
				return matrixString(res.T), res.Stats
			}})
	}
	rng = rand.New(rand.NewSource(2))
	for n := range perDriver {
		nA, nB, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(3)
		a, b, init := randTuples(rng, nA, m, 3), randTuples(rng, nB, m, 3), randInit(rng)
		add(driverCase{name: fmt.Sprintf("RunFixed/%d/%dx%dx%d", n, nA, nB, m), rows: nB, cols: m,
			run: func(systolic.Tracer, systolic.Wrap) (string, systolic.Stats) {
				res, err := comparison.RunFixed(a, b, init)
				if err != nil {
					return outcome(nil, err), systolic.Stats{}
				}
				return matrixString(res.T), res.Stats
			}})
	}
	rng = rand.New(rand.NewSource(3))
	for n := range perDriver {
		m := 1 + rng.Intn(5)
		a := randTuples(rng, 1, m, 2)[0]
		b := randTuples(rng, 1, m, 2)[0]
		add(driverCase{name: fmt.Sprintf("CompareTuples/%d/m%d", n, m), rows: 1, cols: m,
			run: func(systolic.Tracer, systolic.Wrap) (string, systolic.Stats) {
				eq, st, err := comparison.CompareTuples(a, b)
				return outcome(eq, err), st
			}})
	}
	rng = rand.New(rand.NewSource(4))
	for n := range perDriver {
		nA, nB, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(3)
		a, b := randTuples(rng, nA, m, 3), randTuples(rng, nB, m, 3)
		add(driverCase{name: fmt.Sprintf("Accumulated/%d/%dx%dx%d", n, nA, nB, m), rows: nA + nB - 1, cols: m + 1, traced: true, wrapped: true,
			run: func(tr systolic.Tracer, wrap systolic.Wrap) (string, systolic.Stats) {
				keep, st, err := intersect.RunAccumulatedWrap(a, b, nil, tr, wrap)
				return outcome(keep, err), st
			}})
	}
	rng = rand.New(rand.NewSource(5))
	domain := relation.IntDomain("d")
	schema := func(m int) *relation.Schema {
		cols := make([]relation.Column, m)
		for k := range cols {
			cols[k] = relation.Column{Name: fmt.Sprintf("c%d", k), Domain: domain}
		}
		return relation.MustSchema(cols...)
	}
	for n := range perDriver {
		nA, nB, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(3)
		ra := relation.MustRelation(schema(m), randTuples(rng, nA, m, 3))
		rb := relation.MustRelation(schema(m), randTuples(rng, nB, m, 3))
		add(driverCase{name: fmt.Sprintf("Difference/%d/%dx%dx%d", n, nA, nB, m), rows: nA + nB - 1, cols: m + 1,
			run: func(systolic.Tracer, systolic.Wrap) (string, systolic.Stats) {
				res, err := intersect.Difference(ra, rb)
				if err != nil {
					return outcome(nil, err), systolic.Stats{}
				}
				return fmt.Sprint(res.Keep, res.Rel.Cardinality()), res.Stats
			}})
	}
	rng = rand.New(rand.NewSource(6))
	for n := range perDriver {
		nA, m := 1+rng.Intn(7), 1+rng.Intn(3)
		a := randTuples(rng, nA, m, 2)
		add(driverCase{name: fmt.Sprintf("Dedup/%d/%dx%d", n, nA, m), rows: 2*nA - 1, cols: m + 1, traced: true, wrapped: true,
			run: func(tr systolic.Tracer, wrap systolic.Wrap) (string, systolic.Stats) {
				dup, st, err := intersect.RunAccumulatedWrap(a, a, func(i, j int) bool { return i > j }, tr, wrap)
				return outcome(dup, err), st
			}})
	}
	rng = rand.New(rand.NewSource(7))
	allOps := []cells.Op{cells.EQ, cells.NE, cells.LT, cells.LE, cells.GT, cells.GE}
	for n := range perDriver {
		nA, nB, w := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(3)
		a, b := randTuples(rng, nA, w, 4), randTuples(rng, nB, w, 4)
		ops := make([]cells.Op, w)
		for k := range ops {
			ops[k] = allOps[rng.Intn(len(allOps))]
		}
		add(driverCase{name: fmt.Sprintf("Join/%d/%dx%dx%d", n, nA, nB, w), rows: nA + nB - 1, cols: w, wrapped: true,
			run: func(_ systolic.Tracer, wrap systolic.Wrap) (string, systolic.Stats) {
				res, err := comparison.Run2DWrap(a, b, ops, nil, nil, wrap)
				if err != nil {
					return outcome(nil, err), systolic.Stats{}
				}
				return matrixString(res.T), res.Stats
			}})
	}
	rng = rand.New(rand.NewSource(8))
	for n := range perDriver {
		nX, nDiv, nPairs := 1+rng.Intn(4), rng.Intn(4), rng.Intn(10)
		xs := make([]relation.Element, nX)
		for i := range xs {
			xs[i] = relation.Element(10 + i)
		}
		divisor := make([]relation.Element, nDiv)
		for i := range divisor {
			divisor[i] = relation.Element(i)
		}
		pairs := make([]division.Pair, nPairs)
		for i := range pairs {
			pairs[i] = division.Pair{Z: xs[rng.Intn(nX)], Y: relation.Element(rng.Intn(4))}
		}
		add(driverCase{name: fmt.Sprintf("Divide/%d/%dx%dx%d", n, nX, nDiv, nPairs), rows: nX, cols: 2 + nDiv, traced: true, wrapped: true,
			run: func(tr systolic.Tracer, wrap systolic.Wrap) (string, systolic.Stats) {
				bits, st, err := division.RunArrayWrap(pairs, xs, divisor, tr, wrap)
				return outcome(bits, err), st
			}})
	}
	rng = rand.New(rand.NewSource(9))
	for n := range perDriver {
		kz, ky, nX, nDiv, nPairs := 1+rng.Intn(2), 1+rng.Intn(2), 1+rng.Intn(3), rng.Intn(3), rng.Intn(8)
		p := division.GeneralProblem{}
		seen := map[string]bool{}
		for len(p.Xs) < nX {
			x := randTuples(rng, 1, kz, 3)[0]
			if !seen[x.String()] {
				seen[x.String()] = true
				p.Xs = append(p.Xs, x)
			}
		}
		seen = map[string]bool{}
		for len(p.Divisor) < nDiv {
			d := randTuples(rng, 1, ky, 2)[0]
			if !seen[d.String()] {
				seen[d.String()] = true
				p.Divisor = append(p.Divisor, d)
			}
		}
		for range nPairs {
			p.ZS = append(p.ZS, p.Xs[rng.Intn(nX)])
			p.YS = append(p.YS, randTuples(rng, 1, ky, 2)[0])
		}
		cols := kz + ky + nDiv*ky
		if nPairs == 0 && nDiv == 0 {
			cols = kz + 1 // the array's width when no tuple gives ky
		}
		add(driverCase{name: fmt.Sprintf("GeneralDivide/%d/kz%d.ky%d.%dx%dx%d", n, kz, ky, nX, nDiv, nPairs), rows: nX, cols: cols, traced: true,
			run: func(tr systolic.Tracer, _ systolic.Wrap) (string, systolic.Stats) {
				bits, st, err := division.RunGeneralArray(p, tr)
				return outcome(bits, err), st
			}})
	}
	rng = rand.New(rand.NewSource(10))
	for n := range perDriver {
		L, nText := 1+rng.Intn(4), rng.Intn(12)
		pattern := make([]relation.Element, L)
		for k := range pattern {
			pattern[k] = relation.Element(rng.Intn(3))
			if rng.Intn(4) == 0 {
				pattern[k] = patternmatch.Wildcard
			}
		}
		text := make([]relation.Element, nText)
		for k := range text {
			text[k] = relation.Element(rng.Intn(3))
		}
		add(driverCase{name: fmt.Sprintf("Match/%d/L%d.n%d", n, L, nText), rows: 1, cols: L,
			run: func(systolic.Tracer, systolic.Wrap) (string, systolic.Stats) {
				m, st, err := patternmatch.Match(pattern, text)
				return outcome(m, err), st
			}})
	}
	return cases
}

func (c driverCase) record(wrapped bool) record {
	var r record
	var tr systolic.Tracer
	if c.traced {
		r.snaps = &recorder{}
		tr = r.snaps
	}
	var wrap systolic.Wrap
	if wrapped {
		r.emits = []emit{}
		wrap = countingWrap(c.rows, c.cols, &r.emits)
	}
	r.result, r.stats = c.run(tr, wrap)
	return r
}

func (r record) line(name string, emits []emit) string {
	snaps := "-"
	if r.snaps != nil {
		snaps = fmt.Sprintf("%d:%s", r.snaps.pulses, r.snaps.h.sum())
	}
	em := "-"
	if emits != nil {
		// In the order sinks see them, whatever order the cells stepped.
		slices.SortStableFunc(emits, func(a, b emit) int {
			return cmp.Or(cmp.Compare(a.pulse, b.pulse), cmp.Compare(a.order, b.order))
		})
		var h hashWriter
		for _, e := range emits {
			h.buf = append(append(h.buf, e.text...), '\n')
		}
		em = fmt.Sprintf("%d:%s", len(emits), h.sum())
	}
	var h hashWriter
	h.buf = []byte(r.result)
	return fmt.Sprintf("%s result=%s stats=%d/%d/%d/%d snaps=%s emits=%s",
		name, h.sum(), r.stats.Pulses, r.stats.Cells, r.stats.CellSteps, r.stats.ActiveSteps, snaps, em)
}

// TestDriverStepping runs random shapes of every array driver — the
// comparison array (Run2D, RunFixed, CompareTuples), intersection and
// difference accumulation, the remove-duplicates triangle, the θ-join,
// simple and general division and the pattern-match chip — and checks two
// things. Where the driver takes a wrap, the run must equal the same run
// under countingWrap, which makes its grid visit every cell at every
// pulse: same result, Stats and snapshots. And every run's result, Stats,
// snapshots and boundary tokens must match testdata/stepping.golden,
// written from a grid that latched and stepped every cell at every pulse
// and called every feeder at every pulse. Rewrite it with -update only
// when an array's timing is meant to change.
//
// A second pass runs every case again, each run just after a grid of its
// shape with another history was released (see soil), so the driver's
// NewGrid takes that grid: the golden must still match.
func TestDriverStepping(t *testing.T) {
	const golden = "testdata/stepping.golden"
	var want []string
	if !*updateStepping {
		f, err := os.Open(golden)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			want = append(want, sc.Text())
		}
	}
	for pass := range 2 {
		var lines []string
		reused := 0
		for i, c := range driverCases() {
			record := func(wrapped bool) record {
				if pass == 0 {
					return c.record(wrapped)
				}
				plane := soil(t, c.rows, c.cols, 2+i%9)
				r := c.record(wrapped)
				if r.snaps != nil && r.snaps.plane == plane {
					reused++
				}
				return r
			}
			plain := record(false)
			emits := []emit(nil)
			if c.wrapped {
				dense := record(true)
				if plain.result != dense.result || plain.stats != dense.stats {
					t.Errorf("pass %d: %s: result %q stats %+v; every cell visited: %q %+v", pass, c.name, plain.result, plain.stats, dense.result, dense.stats)
				}
				if plain.snaps != nil && string(plain.snaps.h.buf) != string(dense.snaps.h.buf) {
					t.Errorf("pass %d: %s: snapshots differ from the run that visits every cell", pass, c.name)
				}
				emits = dense.emits
			}
			lines = append(lines, plain.line(c.name, emits))
		}
		if *updateStepping {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		if pass == 1 && reused == 0 {
			t.Error("no traced driver run took the grid released before it")
		}
		if len(want) != len(lines) {
			t.Fatalf("pass %d: %d runs, golden has %d", pass, len(lines), len(want))
		}
		for i := range lines {
			if lines[i] != want[i] {
				t.Errorf("pass %d: run %d moved:\n got  %s\n want %s", pass, i, lines[i], want[i])
			}
		}
	}
}

// soilCell presents a token on all four lines at every step, so a grid
// of them has every wire busy. Those built with every set are visited
// every pulse; all are clocked, and stamp the pulse into their tokens.
type soilCell struct {
	every bool
	pulse *int
}

func (c *soilCell) Step(_ *systolic.Inputs, out *systolic.Outputs) {
	t := systolic.Token{Val: relation.Element(*c.pulse), HasVal: true, Flag: true, HasFlag: true}
	out.N, out.S, out.E, out.W = t, t, t, t
}
func (c *soilCell) EveryPulse() bool { return c.every }
func (c *soilCell) Clock(pulse *int) { c.pulse = pulse }

// soil runs a rows x cols grid of soilCells for the given number of
// pulses, with every port fed at a stride of 7 (a calendar ring longer
// than any driver's) and drained, and a tracer, then releases it with
// tokens still on its wires, and returns its latch plane. Its feeders,
// sinks and tracer fail the test if a grid calls them after release.
func soil(t *testing.T, rows, cols, pulses int) *systolic.Inputs {
	t.Helper()
	g, err := systolic.NewGrid(rows, cols, func(r, c int) systolic.Cell { return &soilCell{every: (r+c)%2 == 0} })
	if err != nil {
		t.Fatal(err)
	}
	done := false
	alive := func(what string) {
		if done {
			t.Errorf("a released grid called its %s", what)
		}
	}
	feed := func(p int) systolic.Token {
		alive("feeder")
		return systolic.ValToken(relation.Element(-p), systolic.Tag{Tuple: int32(p), Valid: true})
	}
	var plane *systolic.Inputs
	g.SetTracer(tracerFunc(func(s systolic.Snapshot) {
		alive("tracer")
		plane = &s.Latched[0][0]
	}))
	for side, ports := range [4]int{systolic.North: cols, systolic.South: cols, systolic.East: rows, systolic.West: rows} {
		for port := range ports {
			w := systolic.Window{First: port % 3, Stride: 7, Count: 20}
			if err := g.Feed(systolic.Port{Side: systolic.Side(side), Index: port, Window: w, Feed: feed}); err != nil {
				t.Fatal(err)
			}
			if err := g.Drain(systolic.Side(side), port, func(int, systolic.Token) { alive("sink") }); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Run(pulses)
	done = true
	g.Release()
	return plane
}

type tracerFunc func(systolic.Snapshot)

func (f tracerFunc) Observe(s systolic.Snapshot) { f(s) }
