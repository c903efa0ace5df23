// Package bitset is the word-parallel execution backend: a second,
// semantically equivalent implementation of the repository's relational
// operations that evaluates the boolean matrix T in uint64 lanes.
//
// Kung & Lehman's §8 word→bit-level transformation decomposes one
// word-comparison processor into a page of single-bit processors; this
// package runs the same licence in the other direction — it packs 64
// T-matrix entries into one machine word and evaluates them with a single
// bitwise instruction, the move the bulk-bitwise processing-in-memory
// literature makes for relational analytics. Both backends compute identical
// bits, which the differential tests in this package pin.
//
// Everything runs on one abstraction, the row: the nonzero words of a row
// of T, ascending by word position. A column of the indexed tuple list
// stores one row per distinct value in flat arrays with integer links
// (value → id, id → a run of word positions and words), exactly as many
// entries as there are nonzero words, so a column costs O(n) whatever its
// cardinality. A column whose dense form is no larger than that — d distinct
// values, d·⌈n/64⌉ ≤ 2·(nonzero words), read off the input — is stored whole
// in one arena instead, d rows of ⌈n/64⌉ words, and its rows (like a θ
// lane's) are seen through the same view with the positions implied. Row i
// of T is the AND of one row per column, each step walking the shorter
// operand; membership, remove-duplicates, the join and its T matrix are
// consumers of that one evaluator.
//
// Where the pulse simulator in internal/systolic charges one pulse per cell
// step, this backend charges one word op (Stats.WordOps) per lane probed and
// per word it actually reads out of a lane or combines with another:
// all-zero stretches of a row of T are never touched, so never charged.
//
// The backend is selected through machine.Config.Backend / query.Options
// (see those packages); nothing here depends on the pulse simulator except
// the shared result types (comparison.Matrix) and the shared reduction
// helpers (join.Materializer, division.PrepareDistinct).
package bitset

import (
	"fmt"
	"math/bits"

	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/division"
	"systolicdb/internal/relation"
)

// Lanes is the wavefront width: the number of T-matrix entries evaluated
// by one word operation.
const Lanes = 64

// Stats counts the work done by a bitset run, the backend's analogue of
// systolic.Stats. One word op evaluates up to Lanes T-matrix entries, so
// WordOps plays the role pulses play for the simulator backend.
type Stats struct {
	WordOps int // lane probes plus uint64 words read out of a lane or combined
}

func (s *Stats) add(o Stats) { s.WordOps += o.WordOps }

func wordsFor(nBits int) int { return (nBits + Lanes - 1) / Lanes }

// row is (part of) one row of T: words[e] packs t_{i,64p} … t_{i,64p+63}
// for p = at(e), positions ascending. With pos set, only nonzero words are
// present; a nil pos is the dense form, words[e] at position e, zero words
// included.
type row struct {
	pos   []int32
	words []uint64
}

func (r row) at(e int) int {
	if r.pos == nil {
		return e
	}
	return int(r.pos[e])
}

// any reports whether any bit of r is set.
func (r row) any() bool {
	for _, x := range r.words {
		if x != 0 {
			return true
		}
	}
	return false
}

// anyBelow reports whether any bit with index < i is set: the §5 triangle
// mask, under which only matches strictly below the diagonal count.
func (r row) anyBelow(i int) bool {
	for e, x := range r.words {
		switch p := r.at(e); {
		case p > i>>6:
			return false
		case p == i>>6:
			x &= 1<<(uint(i)&63) - 1
		}
		if x != 0 {
			return true
		}
	}
	return false
}

// each calls f with the index of every set bit, ascending.
func (r row) each(f func(j int)) {
	for e, x := range r.words {
		for base := r.at(e) * Lanes; x != 0; x &= x - 1 {
			f(base + bits.TrailingZeros64(x))
		}
	}
}

// column is one lane of the comparison: row(v) is the row of T a probe
// value v sees when only this column is compared, empty when nothing
// matches. For an equality column it is a value index over column k of a
// tuple list, bit j of row(v) set iff ts[j][k] == v, built up front. A θ
// column is an arena that starts empty: the dense comparison row of a
// probe value is scanned out of ts on first use and kept.
type column struct {
	ids    map[relation.Element]int32
	rowID  []int32 // equality column: the id of each indexed tuple's value
	start  []int32 // sparse form: id's entries are [start[id], start[id+1])
	pos    []int32
	words  []uint64
	stride int // arena form (start == nil): id's words are [id·stride, (id+1)·stride)

	theta *thetaScan // set on a θ column
}

type thetaScan struct {
	op cells.Op
	ts []relation.Tuple
	k  int
	st *Stats
}

func (c *column) row(v relation.Element) row {
	id, ok := c.ids[v]
	if !ok {
		if c.theta == nil {
			return row{}
		}
		id = c.scan(v)
	}
	return c.rowOf(id)
}

func (c *column) rowOf(id int32) row {
	if c.start == nil {
		return row{words: c.words[int(id)*c.stride:][:c.stride]}
	}
	lo, hi := c.start[id], c.start[id+1]
	return row{pos: c.pos[lo:hi], words: c.words[lo:hi]}
}

// scan appends the comparison row of probe value v to a θ column's arena.
func (c *column) scan(v relation.Element) int32 {
	id := int32(len(c.ids))
	c.ids[v] = id
	c.words = append(c.words, make([]uint64, c.stride)...)
	words := c.words[int(id)*c.stride:]
	for j, t := range c.theta.ts {
		if c.theta.op.Apply(v, t[c.theta.k]) {
			words[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	c.theta.st.WordOps += c.stride
	return id
}

// indexer is the scratch the columns of one tuple list share while they
// are indexed.
type indexer struct {
	count []int32 // per id: nonzero words, then the fill cursor
	last  []int32 // per id: last word position counted
}

// index builds the lane of column k of ts in two passes over the tuples:
// one assigns ids and counts each id's nonzero words, one fills arrays of
// exactly that size.
func (ix *indexer) index(ts []relation.Tuple, k int) *column {
	c := &column{ids: make(map[relation.Element]int32), rowID: make([]int32, len(ts)), stride: wordsFor(len(ts))}
	count, last, nnz := ix.count[:0], ix.last[:0], 0
	for j, t := range ts {
		id, ok := c.ids[t[k]]
		if !ok {
			id = int32(len(c.ids))
			c.ids[t[k]] = id
			count, last = append(count, 0), append(last, -1)
		}
		c.rowID[j] = id
		if w := int32(j >> 6); last[id] != w {
			last[id] = w
			count[id]++
			nnz++
		}
	}
	ix.count, ix.last = count, last
	if len(count)*c.stride <= 2*nnz {
		c.words = make([]uint64, len(count)*c.stride)
		for j, id := range c.rowID {
			c.words[int(id)*c.stride+j>>6] |= 1 << (uint(j) & 63)
		}
		return c
	}
	c.start = make([]int32, len(count)+1)
	for id, n := range count {
		c.start[id+1] = c.start[id] + n
		count[id] = c.start[id] - 1
	}
	c.pos, c.words = make([]int32, nnz), make([]uint64, nnz)
	for j, id := range c.rowID {
		e, w := count[id], int32(j>>6)
		if e < c.start[id] || c.pos[e] != w {
			e++
			count[id], c.pos[e] = e, w
		}
		c.words[e] |= 1 << (uint(j) & 63)
	}
	return c
}

// evaluator computes rows of T against one indexed tuple list.
type evaluator struct {
	lanes []*column
	acc   row // scratch the ANDs write into
	st    *Stats
}

// newEvaluator indexes columns cols of ts; ops[k] is the comparison on
// cols[k], a nil ops equality throughout.
func newEvaluator(ts []relation.Tuple, cols []int, ops []cells.Op, st *Stats) *evaluator {
	w := wordsFor(len(ts))
	ev := &evaluator{lanes: make([]*column, len(cols)), acc: row{pos: make([]int32, w), words: make([]uint64, w)}, st: st}
	var ix indexer
	for k, c := range cols {
		if ops != nil && ops[k] != cells.EQ {
			ev.lanes[k] = &column{ids: make(map[relation.Element]int32), stride: w,
				theta: &thetaScan{op: ops[k], ts: ts, k: c, st: st}}
			continue
		}
		ev.lanes[k] = ix.index(ts, c)
	}
	return ev
}

// eval returns the row of T for the probe t[cols]: the AND of its lanes'
// rows, each step walking the shorter operand. self >= 0 says the probe is
// the indexed tuple ts[self] itself (remove-duplicates), whose value ids
// indexing already assigned, so no lane is looked up by value. The result
// aliases the index or the evaluator's scratch: it is read-only and valid
// until the next eval.
func (ev *evaluator) eval(t relation.Tuple, cols []int, self int) row {
	var acc row
	for k, c := range cols {
		var r row
		if lane := ev.lanes[k]; self >= 0 {
			r = lane.rowOf(lane.rowID[self])
		} else {
			r = lane.row(t[c])
		}
		ev.st.WordOps += 1 + min(len(acc.words), len(r.words)) // the lane's link, then the shorter operand's words
		switch {
		case len(r.words) == 0:
			return row{}
		case k == 0:
			acc = r
			ev.st.WordOps += len(r.words)
		case acc.pos == nil && r.pos == nil:
			// Two dense rows: the plain word-AND loop, and the result
			// stays dense.
			dst := ev.acc.words[:len(acc.words)]
			if andWords(dst, acc.words, r.words) == 0 {
				return row{}
			}
			acc = row{words: dst}
		case len(r.words) < len(acc.words):
			acc = ev.and(r, acc)
		default:
			acc = ev.and(acc, r)
		}
		if len(acc.words) == 0 {
			return row{}
		}
	}
	return acc
}

// andWords sets dst = a AND b word by word and returns the OR of the result.
// dst may be a or b.
func andWords(dst, a, b []uint64) (or uint64) {
	b, dst = b[:len(a)], dst[:len(a)]
	for e, x := range a {
		x &= b[e]
		dst[e] = x
		or |= x
	}
	return or
}

// and intersects a with b, at least one of them sparse, into the scratch
// row: a's words each look up b's word at the same position and the nonzero
// results are compacted. Either operand may be the scratch already: a word
// is written only after the words at and before its index, in both
// operands, have been read for the last time.
func (ev *evaluator) and(a, b row) row {
	out := ev.acc
	n, j := 0, 0
	for e, x := range a.words {
		p := a.at(e)
		if b.pos == nil {
			x &= b.words[p]
		} else {
			for j < len(b.pos) && int(b.pos[j]) < p {
				j++
			}
			if j == len(b.pos) {
				break
			}
			if int(b.pos[j]) != p {
				continue
			}
			x &= b.words[j]
		}
		if x != 0 {
			out.pos[n], out.words[n] = int32(p), x
			n++
		}
	}
	return row{pos: out.pos[:n], words: out.words[:n]}
}

// identity is the column list of a whole m-wide tuple.
func identity(m int) []int {
	cols := make([]int, m)
	for k := range cols {
		cols[k] = k
	}
	return cols
}

// Membership computes the accumulated bit t_i = OR_j (a_i = b_j) for every
// tuple of a — the word-parallel equivalent of intersect.RunAccumulated
// with a nil init mask (equation 4.1 of the paper). The return conventions
// mirror the array driver exactly: a nil slice when a is empty, an
// all-FALSE slice when b is empty.
func Membership(a, b []relation.Tuple) ([]bool, Stats, error) {
	var st Stats
	if len(a) == 0 {
		return nil, st, nil
	}
	if len(b) == 0 {
		return make([]bool, len(a)), st, nil
	}
	m, err := comparison.CheckWidths(a, b, nil)
	if err != nil {
		return nil, st, err
	}
	cols := identity(m)
	ev := newEvaluator(b, cols, nil, &st)
	keep := make([]bool, len(a))
	for i, t := range a {
		keep[i] = ev.eval(t, cols, -1).any()
	}
	return keep, st, nil
}

// Duplicates computes the §5 remove-duplicates bit for every tuple of a:
// dup[i] is TRUE iff some earlier tuple equals a[i] — the triangle-masked
// accumulation t_i = OR_{j<i} (a_i = a_j), evaluated 64 lanes at a time.
// A nil slice is returned when a is empty, mirroring the array driver.
func Duplicates(a []relation.Tuple) ([]bool, Stats, error) {
	if len(a) == 0 {
		return nil, Stats{}, nil
	}
	m, err := comparison.CheckWidths(a, a, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	dup, st := duplicates(a, identity(m))
	return dup, st, nil
}

// duplicates is Duplicates over the sub-tuples a[i][cols], which are never
// built.
func duplicates(a []relation.Tuple, cols []int) ([]bool, Stats) {
	var st Stats
	ev := newEvaluator(a, cols, nil, &st)
	dup := make([]bool, len(a))
	for i, t := range a {
		dup[i] = ev.eval(t, cols, i).anyBelow(i)
	}
	return dup, st
}

// joinRows evaluates the §6 match matrix T row by row — t_ij is TRUE iff
// every ops[k] holds between a[i][aCols[k]] and b[j][bCols[k]] — and hands
// each row that may hold a TRUE entry to emit, in order of i. Equality
// columns resolve through a value index; θ columns build one dense row per
// distinct probe value, memoised across probes.
func joinRows(a []relation.Tuple, aCols []int, b []relation.Tuple, bCols []int, ops []cells.Op, st *Stats, emit func(i int, r row)) {
	ev := newEvaluator(b, bCols, ops, st)
	for i, t := range a {
		if r := ev.eval(t, aCols, -1); len(r.words) > 0 {
			emit(i, r)
		}
	}
}

// JoinT computes the §6 match matrix T on already-projected key tuples,
// the word-parallel equivalent of join.RunT. It is the dense consumer of
// joinRows, kept so the backends can be compared bit for bit; Join never
// builds the matrix.
func JoinT(aKeys, bKeys []relation.Tuple, ops []cells.Op) (*comparison.Matrix, Stats, error) {
	var st Stats
	if len(aKeys) == 0 || len(bKeys) == 0 {
		return comparison.NewMatrix(len(aKeys), len(bKeys)), st, nil
	}
	if len(ops) == 0 {
		return nil, st, fmt.Errorf("bitset: join needs at least one operator")
	}
	if _, err := comparison.CheckWidths(aKeys, bKeys, ops); err != nil {
		return nil, st, err
	}
	t := comparison.NewMatrix(len(aKeys), len(bKeys))
	cols := identity(len(ops))
	joinRows(aKeys, cols, bKeys, cols, ops, &st, func(i int, r row) {
		r.each(func(j int) { t.Bits[i][j] = true })
	})
	return t, st, nil
}

// DivisionBits computes the §7 quotient membership bit for each stored x:
// x belongs to the quotient iff every divisor element appears paired with
// it. The divisor is packed into lanes, one per distinct element; every
// pair ORs its y's lane into its x's coverage mask, and x qualifies iff its
// mask is full. Semantics match division.RunArray / division.ReferenceBits
// exactly, including the empty-divisor convention (every x qualifies) and
// a nil result for an empty xs.
func DivisionBits(pairs []division.Pair, xs, divisor []relation.Element) ([]bool, Stats) {
	var st Stats
	if len(xs) == 0 {
		return nil, st
	}
	laneOf := make(map[relation.Element]int, len(divisor))
	for _, y := range divisor {
		if _, ok := laneOf[y]; !ok {
			laneOf[y] = len(laneOf)
		}
	}
	w := wordsFor(len(laneOf))
	maskOf := make(map[relation.Element]int, len(xs)) // x → offset of its mask
	for _, x := range xs {
		if _, ok := maskOf[x]; !ok {
			maskOf[x] = len(maskOf) * w
		}
	}
	// A mask starts with the unused lanes of its last word set, so a full
	// mask is all ones.
	masks := make([]uint64, len(maskOf)*w)
	if used := len(laneOf) % Lanes; used != 0 {
		for last := w - 1; last < len(masks); last += w {
			masks[last] = ^uint64(0) << uint(used)
		}
	}
	for _, pr := range pairs {
		off, stored := maskOf[pr.Z]
		l, wanted := laneOf[pr.Y]
		if stored && wanted {
			masks[off+l>>6] |= 1 << (uint(l) & 63)
			st.WordOps++
		}
	}
	out := make([]bool, len(xs))
	for r, x := range xs {
		and := ^uint64(0)
		for _, word := range masks[maskOf[x]:][:w] {
			and &= word
		}
		st.WordOps += w
		out[r] = and == ^uint64(0)
	}
	return out, st
}
