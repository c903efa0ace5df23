// Package treemachine models the tree machine of S. W. Song (reference [9]
// of Kung & Lehman 1980), the rival database-machine architecture named in
// §9: "The leaf nodes of the tree machine are responsible for data storage,
// and for a limited amount of processing of the data. The tree structure
// itself is used to broadcast instructions and data, and to combine results
// of low-level computations on the data."
//
// The model is a synchronous, node-level simulation of a complete binary
// tree. Every pulse, each node moves tokens one level: instruction/data
// tokens travel from the root toward the leaves (one level per pulse, both
// children), and result tokens travel from the leaves toward the root. An
// internal node combines aligned boolean results (OR) instantly, but value
// results (join pairs) must be *funnelled*: a node can forward only one
// value per pulse toward its parent and queues the rest.
// This funnelling serialisation is the architectural contrast with the
// systolic arrays — and the reason the paper calls for "a detailed
// comparison of these and other database machine structures" (experiment
// E16 runs that comparison).
package treemachine

import (
	"fmt"

	"systolicdb/internal/relation"
)

// Stats aggregates activity counters for tree-machine operations.
type Stats struct {
	Pulses int // synchronous pulses executed
	Nodes  int // nodes in the tree (2*leaves - 1)
}

// downToken is an instruction/data token broadcast toward the leaves.
type downToken struct {
	kind  downKind
	tuple relation.Tuple // payload tuple or key
	idx   int            // tuple index for load / masking
}

type downKind int

const (
	loadKind  downKind = iota // store tuple at leaf idx
	markKind                  // flag |= (stored == tuple)
	flagsKind                 // respond with (leafIdx, flag)
	probeKind                 // respond with leafIdx if key columns match
)

// upToken is a result token funnelled toward the root.
type upToken struct {
	leaf int
	flag bool
	j    int // index of the probing tuple (join pairs)
}

// Tree is a complete binary tree machine with a power-of-two number of
// leaves. Leaves store one tuple each.
type Tree struct {
	depth  int // leaves = 1 << depth
	leaves int

	stored []relation.Tuple // leaf storage (nil = empty leaf)
	flags  []bool           // leaf flag registers
	keyCol []int            // columns compared by probe/mark (nil = whole tuple)

	// Wire state, double-buffered per pulse. down[l] holds the token
	// in flight at level l (levels 0=root .. depth=leaves); because the
	// root broadcasts identically to all nodes of a level, one slot per
	// level suffices for down traffic.
	down []*downToken
	// upQueue[l][i]: FIFO of result tokens waiting at node i of level l.
	upQueue [][][]upToken

	stats Stats
}

// New builds a tree machine with at least the given number of leaves
// (rounded up to a power of two, minimum 1).
func New(capacity int) (*Tree, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("treemachine: capacity %d must be positive", capacity)
	}
	depth := 0
	for 1<<depth < capacity {
		depth++
	}
	leaves := 1 << depth
	t := &Tree{
		depth:  depth,
		leaves: leaves,
		stored: make([]relation.Tuple, leaves),
		flags:  make([]bool, leaves),
	}
	t.resetWires()
	t.stats = Stats{Nodes: 2*leaves - 1}
	return t, nil
}

func (t *Tree) resetWires() {
	t.down = make([]*downToken, t.depth+1)
	t.upQueue = make([][][]upToken, t.depth+1)
	for l := 0; l <= t.depth; l++ {
		t.upQueue[l] = make([][]upToken, 1<<l)
	}
}

// Stats returns the accumulated statistics.
func (t *Tree) Stats() Stats { return t.stats }

// run streams the given down tokens into the root, one per pulse, and
// simulates until all traffic drains. collect receives result tokens as
// they leave the root.
func (t *Tree) run(stream []downToken, collect func(upToken)) {
	pulse := 0
	fed := 0
	for {
		busy := false
		// Down traffic moves leafward one level per pulse; process
		// deepest level first so a token moves one level per pulse.
		if tok := t.down[t.depth]; tok != nil {
			// Token reaches the leaves: every leaf processes it.
			t.leafProcess(*tok)
			t.down[t.depth] = nil
			busy = true
		}
		for l := t.depth - 1; l >= 0; l-- {
			if tok := t.down[l]; tok != nil {
				t.down[l+1] = tok
				t.down[l] = nil
				busy = true
			}
		}
		if fed < len(stream) {
			tok := stream[fed]
			fed++
			t.down[0] = &tok
			busy = true
		}

		// Up traffic: each node forwards at most one queued result
		// per pulse toward its parent (the funnel). Process shallow
		// levels first so a token moves at most one level per pulse.
		for l := 0; l <= t.depth; l++ {
			for i := range t.upQueue[l] {
				q := t.upQueue[l][i]
				if len(q) == 0 {
					continue
				}
				busy = true
				head := q[0]
				t.upQueue[l][i] = q[1:]
				if l == 0 {
					if collect != nil {
						collect(head)
					}
				} else {
					parent := i / 2
					t.upQueue[l-1][parent] = append(t.upQueue[l-1][parent], head)
				}
			}
		}

		if !busy {
			break
		}
		pulse++
	}
	t.stats.Pulses += pulse
}

// leafProcess applies a broadcast token at every leaf.
func (t *Tree) leafProcess(tok downToken) {
	switch tok.kind {
	case loadKind:
		if tok.idx >= 0 && tok.idx < t.leaves {
			t.stored[tok.idx] = tok.tuple
		}
	case markKind:
		for i, s := range t.stored {
			if s != nil && t.matches(s, tok.tuple) {
				t.flags[i] = true
			}
		}
	case flagsKind:
		for i, s := range t.stored {
			if s != nil {
				t.enqueue(upToken{leaf: i, flag: t.flags[i]})
			}
		}
	case probeKind:
		for i, s := range t.stored {
			if s != nil && t.matches(s, tok.tuple) {
				t.enqueue(upToken{leaf: i, flag: true, j: tok.idx})
			}
		}
	}
}

// matches compares the configured key columns of a stored tuple against a
// probe tuple (whole-tuple equality when keyCol is nil).
func (t *Tree) matches(stored, probe relation.Tuple) bool {
	if t.keyCol == nil {
		return stored.Equal(probe)
	}
	if len(t.keyCol) != len(probe) {
		return false
	}
	for k, c := range t.keyCol {
		if c < 0 || c >= len(stored) || stored[c] != probe[k] {
			return false
		}
	}
	return true
}

// enqueue places a leaf result on the leaf's up queue.
func (t *Tree) enqueue(u upToken) {
	t.upQueue[t.depth][u.leaf] = append(t.upQueue[t.depth][u.leaf], u)
}

// Load stores the tuples into the leaves (tuple i at leaf i), streaming
// them through the broadcast network one per pulse.
func (t *Tree) Load(tuples []relation.Tuple) error {
	if len(tuples) > t.leaves {
		return fmt.Errorf("treemachine: %d tuples exceed %d leaves", len(tuples), t.leaves)
	}
	t.stored = make([]relation.Tuple, t.leaves)
	t.flags = make([]bool, t.leaves)
	t.keyCol = nil
	stream := make([]downToken, len(tuples))
	for i, tu := range tuples {
		stream[i] = downToken{kind: loadKind, tuple: tu.Clone(), idx: i}
	}
	t.run(stream, nil)
	return nil
}

// readFlags broadcasts a flag-collection instruction and funnels every
// stored leaf's (index, flag) to the root.
func (t *Tree) readFlags(n int) []bool {
	out := make([]bool, n)
	t.run([]downToken{{kind: flagsKind}}, func(u upToken) {
		if u.leaf < n {
			out[u.leaf] = u.flag
		}
	})
	return out
}

// Intersect computes the membership bit of every loaded tuple in relation
// b: b's tuples are streamed through the broadcast network, each leaf ORs
// its equality comparison into its flag, and the flags are then read out.
func (t *Tree) Intersect(b []relation.Tuple, nLoaded int) ([]bool, error) {
	t.keyCol = nil
	stream := make([]downToken, len(b))
	for j, tu := range b {
		stream[j] = downToken{kind: markKind, tuple: tu.Clone(), idx: j}
	}
	t.run(stream, nil)
	return t.readFlags(nLoaded), nil
}

// JoinPairs probes the loaded relation with each key of b (projected onto
// bCols) and returns the matching (i, j) index pairs. aCols configures
// which stored columns form the key. Every match is a value result that
// must be funnelled to the root one per pulse per node — with high match
// factors this serialisation dominates, which is the tree machine's
// structural disadvantage on large joins.
func (t *Tree) JoinPairs(aCols []int, b []relation.Tuple, bCols []int) ([][2]int, error) {
	if len(aCols) == 0 || len(aCols) != len(bCols) {
		return nil, fmt.Errorf("treemachine: bad join column lists")
	}
	t.keyCol = aCols
	stream := make([]downToken, len(b))
	for j, tu := range b {
		stream[j] = downToken{kind: probeKind, tuple: tu.Project(bCols), idx: j}
	}
	var pairs [][2]int
	t.run(stream, func(u upToken) {
		pairs = append(pairs, [2]int{u.leaf, u.j})
	})
	t.keyCol = nil
	return pairs, nil
}
