// The executor: one tree of pull-based tuple iterators per plan, driven
// the same way whether or not the caller asked for streaming. Two kinds
// of node make up a tree:
//
//   - kernelIter, the one blocking operator: it takes its children's whole
//     relations, runs a kernel (internal/kernel) once, and streams the
//     result out. Without Options.Streaming every plan node is one — that is
//     the materializing executor. With it, only the operators that cannot
//     pipeline are (scans, which already hold their relation, and Divide).
//   - the pipelined hash iterators — select, project, dedup, union, and the
//     probe side of join / intersect / difference — which move one tuple at
//     a time between operators, the way §4's operator chaining moves tuples
//     between arrays every pulse, and never hold a full intermediate
//     relation. Their build sides and seen-sets are the only other
//     materialization points.
//
// Spans, ExecStats and cancellation live once, in the driver and the
// kernelIter; the pipelined iterators only count the tuples they retain.
package query

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"systolicdb/internal/join"
	"systolicdb/internal/kernel"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/perf"
	"systolicdb/internal/relation"
)

// TupleIterator is the executor's operator interface. Next returns the
// next result tuple, or false when the stream is exhausted or failed — the
// two are distinguished by Err, which callers must check after the final
// Next. Schema describes the width and domains of every tuple the iterator
// yields. Close releases operator-owned state (build tables, dedup sets,
// blocking results) and propagates to children; it is idempotent, and
// iterators must not be used after Close.
type TupleIterator interface {
	Next() (relation.Tuple, bool)
	Close()
	Err() error
	Schema() *relation.Schema
}

// iterBatch is how many pulls an iterator lets pass between context
// checks: frequent enough that a deadline interrupts a long scan
// mid-node, rare enough to stay off the per-tuple hot path.
const iterBatch = 256

// driver is what one plan execution shares across its iterator tree: the
// catalog and context, the kernel blocking nodes run on, where spans and
// stats are recorded, and the count of tuples currently held in
// executor-owned storage (materialized intermediates, build tables, dedup
// sets, the accumulating result) behind ExecStats.PeakTuples.
type driver struct {
	ctx       context.Context
	cat       Catalog
	reg       *obs.Registry
	backend   machine.Backend
	kern      kernel.Kernel
	streaming bool       // pipeline every operator that can; else every node blocks
	stats     *ExecStats // never nil: a throwaway when the caller wants none
	held      int
}

func newDriver(ctx context.Context, cat Catalog, o *Options, streaming bool) *driver {
	d := &driver{ctx: ctx, cat: cat, reg: o.registry(), backend: o.backend(), kern: o.kernel(),
		streaming: streaming, stats: &ExecStats{}}
	if o != nil && o.Stats != nil {
		d.stats = o.Stats
	}
	return d
}

// acquire charges n more retained tuples. PeakTuples is raised in place,
// which is the documented max-fold: the count starts at zero for this
// plan, so a caller aggregating several plans keeps the worst one.
func (d *driver) acquire(n int) {
	d.held += n
	if d.held > d.stats.PeakTuples {
		d.stats.PeakTuples = d.held
	}
}

func (d *driver) release(n int) { d.held -= n }

// breaker counts a plan node that held a complete intermediate result.
func (d *driver) breaker() { d.stats.MaterializedNodes++ }

// record emits the span of one blocking node and folds its cost into the
// plan-wide stats: host wall-clock time (inclusive of children, as spans
// are) and the node's own cost on the backend that ran it — simulated
// pulses plus their time under the conservative 1980 technology for the
// pulse simulator, word operations for the bitset backend. Every series
// carries the backend as a label so /metrics distinguishes the two engines.
func (d *driver) record(n Node, c kernel.Cost, start time.Time) {
	l := obs.Labels{"node": OpName(n), "backend": d.backend.String()}
	d.reg.Timer("query_node_host_seconds", l).Observe(time.Since(start))
	if d.backend == machine.BackendBitset {
		d.stats.WordOps += c.Units
		d.reg.Counter("query_node_word_ops_total", l).Add(int64(c.Units))
		return
	}
	d.stats.Pulses += c.Units
	d.reg.Counter("query_node_pulses_total", l).Add(int64(c.Units))
	d.reg.Timer("query_node_sim_seconds", l).Observe(perf.Conservative1980.PulseTime(c.Units))
}

// input takes an iterator's entire output as one relation: by reference
// when the iterator is a blocking node, which already holds it — so scans
// and breaker results are never copied — else by draining it into
// executor-owned storage, charged to the driver; owned is how many tuples
// that copy holds (0 for a reference).
func (d *driver) input(it TupleIterator) (rel *relation.Relation, owned int, err error) {
	if k, ok := it.(*kernelIter); ok {
		rel, err = k.whole()
		return rel, 0, err
	}
	rel, err = relation.NewRelation(it.Schema(), nil)
	if err != nil {
		return nil, 0, err
	}
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		if err := rel.Append(t); err != nil {
			return nil, 0, err
		}
		d.acquire(1)
	}
	if err := it.Err(); err != nil {
		return nil, 0, err
	}
	it.Close() // its build tables and seen-sets die with the stream
	return rel, rel.Cardinality(), nil
}

// tupleKey encodes a tuple as a map key. relation.Tuple's own key() is
// unexported; varint framing keeps multi-column values unambiguous.
func tupleKey(t relation.Tuple) string {
	b := make([]byte, 0, len(t)*binary.MaxVarintLen64)
	for _, e := range t {
		b = binary.AppendVarint(b, int64(e))
	}
	return string(b)
}

// iterCore is the shared half of every iterator: schema, terminal state,
// and the per-batch cancellation check.
type iterCore struct {
	d      *driver
	node   Node
	schema *relation.Schema
	err    error
	done   bool
	closed bool
	ticks  int
}

func (c *iterCore) Schema() *relation.Schema { return c.schema }
func (c *iterCore) Err() error               { return c.err }

// tick checks the context every iterBatch calls; iterators call it once
// per input row pulled (not per output row), so a long non-matching
// streak still observes cancellation.
func (c *iterCore) tick() error {
	c.ticks++
	if c.ticks%iterBatch != 0 {
		return nil
	}
	return c.cancelled()
}

// cancelled reports the context's error, naming the node that saw it.
func (c *iterCore) cancelled() error {
	if err := c.d.ctx.Err(); err != nil {
		return fmt.Errorf("query: plan cancelled at %s node: %w", OpName(c.node), err)
	}
	return nil
}

func (c *iterCore) fail(err error) (relation.Tuple, bool) {
	c.err = err
	c.done = true
	return nil, false
}

// finish ends the stream, adopting the child's terminal error if any.
func (c *iterCore) finish(children ...TupleIterator) (relation.Tuple, bool) {
	c.done = true
	for _, ch := range children {
		if c.err == nil {
			c.err = ch.Err()
		}
	}
	return nil, false
}

// kernelFn is the work of one blocking node: its children's whole
// relations in, the node's result and its cost on the driver's kernel out.
type kernelFn func(in []*relation.Relation) (*relation.Relation, kernel.Cost, error)

// kernelIter is the blocking operator. On first use it checks the context,
// takes each child's whole relation (driver.input), runs fn once, records
// the node's span and stats, and from then on streams the result out — or
// hands it over whole to a blocking parent. A Scan is the degenerate case:
// no children, and fn returns the catalog's relation.
type kernelIter struct {
	iterCore
	kids []TupleIterator
	fn   kernelFn
	ran  bool
	out  *relation.Relation
	pos  int
}

func (k *kernelIter) Next() (relation.Tuple, bool) {
	if k.done {
		return nil, false
	}
	if _, err := k.whole(); err != nil {
		return k.fail(err)
	}
	if err := k.tick(); err != nil {
		return k.fail(err)
	}
	if k.pos >= k.out.Cardinality() {
		k.done = true
		return nil, false
	}
	t := k.out.Tuple(k.pos)
	k.pos++
	return t, true
}

// whole runs the node if it has not run yet and returns its entire result.
func (k *kernelIter) whole() (*relation.Relation, error) {
	if !k.ran {
		k.ran = true
		k.err = k.run()
	}
	return k.out, k.err
}

func (k *kernelIter) run() error {
	if err := k.cancelled(); err != nil {
		return err
	}
	d := k.d
	start := time.Now()
	in := make([]*relation.Relation, len(k.kids))
	drained := 0
	for i, kid := range k.kids {
		rel, owned, err := d.input(kid)
		if err != nil {
			return err
		}
		in[i], drained = rel, drained+owned
	}
	out, cost, err := k.fn(in)
	if err != nil {
		return err
	}
	k.out, k.schema = out, out.Schema()
	// Charge this node's result, then let the inputs die: they were all
	// alive while the operator ran. A scan's relation is the catalog's, not
	// the executor's, so it is neither charged nor counted.
	if _, isScan := k.node.(Scan); !isScan {
		d.acquire(out.Cardinality())
		d.breaker()
	}
	d.release(drained)
	for _, kid := range k.kids {
		kid.Close()
	}
	d.record(k.node, cost, start)
	return nil
}

// filter is the blocking Select's kernelFn body: the host-side row filter
// (§9's disk-head selection has no array run, so it costs no kernel units).
func (k *kernelIter) filter(c *relation.Relation, q relation.Query) (*relation.Relation, kernel.Cost, error) {
	keep := make([]bool, c.Cardinality())
	for i := range keep {
		// A deadline must interrupt a long filter mid-node, not just
		// between nodes; check at batch granularity to stay cheap.
		if i%iterBatch == 0 {
			if err := k.cancelled(); err != nil {
				return nil, kernel.Cost{}, err
			}
		}
		keep[i] = q.Matches(c.Tuple(i))
	}
	sel, err := c.Select(keep, true)
	return sel, kernel.Cost{}, err
}

func (k *kernelIter) Close() {
	if !k.closed {
		k.closed = true
		if _, isScan := k.node.(Scan); !isScan && k.out != nil {
			k.d.release(k.out.Cardinality())
		}
		k.out = nil // released means collectable, not just uncounted
		for _, kid := range k.kids {
			kid.Close()
		}
	}
	k.done = true
}

// selectIter filters its child through a disk query, tuple at a time.
type selectIter struct {
	iterCore
	child TupleIterator
	query relation.Query
}

func (s *selectIter) Next() (relation.Tuple, bool) {
	if s.done {
		return nil, false
	}
	for {
		if err := s.tick(); err != nil {
			return s.fail(err)
		}
		t, ok := s.child.Next()
		if !ok {
			return s.finish(s.child)
		}
		if s.query.Matches(t) {
			return t, true
		}
	}
}

func (s *selectIter) Close() {
	if !s.closed {
		s.closed = true
		s.child.Close()
	}
	s.done = true
}

// dedupIter yields the first occurrence of each (optionally projected)
// tuple, the remove-duplicates array's keep-first semantics. With cols
// set it is the streaming Project (project-then-dedup, like
// dedup.Project).
type dedupIter struct {
	iterCore
	child TupleIterator
	cols  []int
	seen  map[string]struct{}
}

func (d *dedupIter) Next() (relation.Tuple, bool) {
	if d.done {
		return nil, false
	}
	for {
		if err := d.tick(); err != nil {
			return d.fail(err)
		}
		t, ok := d.child.Next()
		if !ok {
			return d.finish(d.child)
		}
		if d.cols != nil {
			t = t.Project(d.cols)
		}
		k := tupleKey(t)
		if _, dup := d.seen[k]; dup {
			continue
		}
		d.seen[k] = struct{}{}
		d.d.acquire(1) // the seen set retains one tuple key
		return t, true
	}
}

func (d *dedupIter) Close() {
	if !d.closed {
		d.closed = true
		d.d.release(len(d.seen))
		d.child.Close()
	}
	d.done = true
}

// unionIter streams dedup(concat(l, r)): all of l, then r, suppressing
// anything already emitted (dedup.Union's keep-first order).
type unionIter struct {
	iterCore
	l, r TupleIterator
	onR  bool
	seen map[string]struct{}
}

func (u *unionIter) Next() (relation.Tuple, bool) {
	if u.done {
		return nil, false
	}
	for {
		if err := u.tick(); err != nil {
			return u.fail(err)
		}
		src := u.l
		if u.onR {
			src = u.r
		}
		t, ok := src.Next()
		if !ok {
			if err := src.Err(); err != nil {
				return u.fail(err)
			}
			if u.onR {
				return u.finish()
			}
			u.onR = true
			continue
		}
		k := tupleKey(t)
		if _, dup := u.seen[k]; dup {
			continue
		}
		u.seen[k] = struct{}{}
		u.d.acquire(1)
		return t, true
	}
}

func (u *unionIter) Close() {
	if !u.closed {
		u.closed = true
		u.d.release(len(u.seen))
		u.l.Close()
		u.r.Close()
	}
	u.done = true
}

// membershipIter is the probe side of Intersect (want=true) and
// Difference (want=false): the build child is drained into a set — a
// pipeline breaker — and probe tuples stream through the membership
// test, preserving the probe side's duplicates exactly like
// intersect.Intersection / intersect.Difference.
type membershipIter struct {
	iterCore
	probe, build TupleIterator
	want         bool
	built        bool
	set          map[string]struct{}
}

func (m *membershipIter) Next() (relation.Tuple, bool) {
	if m.done {
		return nil, false
	}
	if !m.built {
		if err := m.buildSet(); err != nil {
			return m.fail(err)
		}
	}
	for {
		if err := m.tick(); err != nil {
			return m.fail(err)
		}
		t, ok := m.probe.Next()
		if !ok {
			return m.finish(m.probe)
		}
		if _, in := m.set[tupleKey(t)]; in == m.want {
			return t, true
		}
	}
}

func (m *membershipIter) buildSet() error {
	m.built = true
	m.set = make(map[string]struct{})
	for {
		t, ok := m.build.Next()
		if !ok {
			break
		}
		k := tupleKey(t)
		if _, dup := m.set[k]; !dup {
			m.set[k] = struct{}{}
			m.d.acquire(1)
		}
	}
	if err := m.build.Err(); err != nil {
		return err
	}
	m.build.Close()
	m.d.breaker()
	return nil
}

func (m *membershipIter) Close() {
	if !m.closed {
		m.closed = true
		m.d.release(len(m.set))
		m.probe.Close()
		m.build.Close()
	}
	m.done = true
}

// joinIter streams the probe (A) side of a join against a materialized
// build (B) side — the breaker. Equi-joins probe a hash table on B's
// join key; θ-joins fall back to a per-probe scan of B applying the
// comparison operators cell-for-cell like comparison.ReferenceT. Output rows
// are the probe tuple followed by B's kept columns (join.Layout's bKeep),
// in join.Materialize's row-major emission order.
type joinIter struct {
	iterCore
	probe, build TupleIterator
	spec         join.Spec // Ops may be nil: thetaMatch only runs when !equi
	equi         bool
	bKeep        []int
	built        bool
	bTuples      []relation.Tuple
	byKey        map[string][]int
	cur          relation.Tuple
	haveCur      bool
	matches      []int // pending B indexes for cur (equi)
	mi           int
	scanJ        int // next B index to test for cur (θ)
}

func (j *joinIter) Next() (relation.Tuple, bool) {
	if j.done {
		return nil, false
	}
	if !j.built {
		if err := j.buildTable(); err != nil {
			return j.fail(err)
		}
	}
	for {
		if j.haveCur {
			if j.equi {
				if j.mi < len(j.matches) {
					t := j.emit(j.bTuples[j.matches[j.mi]])
					j.mi++
					return t, true
				}
			} else {
				for j.scanJ < len(j.bTuples) {
					if err := j.tick(); err != nil {
						return j.fail(err)
					}
					bt := j.bTuples[j.scanJ]
					j.scanJ++
					if j.thetaMatch(bt) {
						return j.emit(bt), true
					}
				}
			}
			j.haveCur = false
		}
		if err := j.tick(); err != nil {
			return j.fail(err)
		}
		t, ok := j.probe.Next()
		if !ok {
			return j.finish(j.probe)
		}
		j.cur, j.haveCur = t, true
		if j.equi {
			j.matches = j.byKey[tupleKey(t.Project(j.spec.ACols))]
			j.mi = 0
		} else {
			j.scanJ = 0
		}
	}
}

func (j *joinIter) thetaMatch(bt relation.Tuple) bool {
	for k := range j.spec.ACols {
		if !j.spec.Ops[k].Apply(j.cur[j.spec.ACols[k]], bt[j.spec.BCols[k]]) {
			return false
		}
	}
	return true
}

func (j *joinIter) emit(bt relation.Tuple) relation.Tuple {
	out := make(relation.Tuple, 0, len(j.cur)+len(j.bKeep))
	out = append(out, j.cur...)
	for _, c := range j.bKeep {
		out = append(out, bt[c])
	}
	return out
}

func (j *joinIter) buildTable() error {
	j.built = true
	for {
		t, ok := j.build.Next()
		if !ok {
			break
		}
		j.bTuples = append(j.bTuples, t)
		j.d.acquire(1)
	}
	if err := j.build.Err(); err != nil {
		return err
	}
	j.build.Close()
	if j.equi {
		j.byKey = make(map[string][]int, len(j.bTuples))
		for i, t := range j.bTuples {
			k := tupleKey(t.Project(j.spec.BCols))
			j.byKey[k] = append(j.byKey[k], i)
		}
	}
	j.d.breaker()
	return nil
}

func (j *joinIter) Close() {
	if !j.closed {
		j.closed = true
		j.d.release(len(j.bTuples))
		j.bTuples, j.byKey = nil, nil
		j.probe.Close()
		j.build.Close()
	}
	j.done = true
}

func (d *driver) core(n Node, s *relation.Schema) iterCore {
	return iterCore{d: d, node: n, schema: s}
}

// blocking builds the kernelIter for a node.
func (d *driver) blocking(n Node, s *relation.Schema, kids []TupleIterator, fn kernelFn) *kernelIter {
	return &kernelIter{iterCore: d.core(n, s), kids: kids, fn: fn}
}

// binaryFn adapts a two-operand kernel operator to a kernelFn.
func binaryFn(f func(a, b *relation.Relation) (*relation.Relation, kernel.Cost, error)) kernelFn {
	return func(in []*relation.Relation) (*relation.Relation, kernel.Cost, error) { return f(in[0], in[1]) }
}

// open constructs the iterator tree for a plan, validating every node
// against its children's schemas before any tuple flows. Each operator is
// its pipelined iterator when the driver streams and the operator can
// pipeline, and a kernelIter over the driver's kernel otherwise.
func (d *driver) open(n Node) (TupleIterator, error) {
	switch op := n.(type) {
	case Scan:
		r, ok := d.cat[op.Name]
		if !ok {
			return nil, fmt.Errorf("query: unknown relation %q", op.Name)
		}
		return d.blocking(n, r.Schema(), nil, func([]*relation.Relation) (*relation.Relation, kernel.Cost, error) {
			return r, kernel.Cost{}, nil
		}), nil

	case Select:
		child, err := d.open(op.Child)
		if err != nil {
			return nil, err
		}
		if err := op.Query.Validate(child.Schema()); err != nil {
			child.Close()
			return nil, err
		}
		if d.streaming {
			return &selectIter{iterCore: d.core(n, child.Schema()), child: child, query: op.Query}, nil
		}
		k := d.blocking(n, child.Schema(), []TupleIterator{child}, nil)
		k.fn = func(in []*relation.Relation) (*relation.Relation, kernel.Cost, error) {
			return k.filter(in[0], op.Query)
		}
		return k, nil

	case Dedup:
		child, err := d.open(op.Child)
		if err != nil {
			return nil, err
		}
		if d.streaming {
			return &dedupIter{iterCore: d.core(n, child.Schema()), child: child,
				seen: make(map[string]struct{})}, nil
		}
		return d.blocking(n, child.Schema(), []TupleIterator{child}, func(in []*relation.Relation) (*relation.Relation, kernel.Cost, error) {
			return d.kern.Dedup(in[0])
		}), nil

	case Project:
		child, err := d.open(op.Child)
		if err != nil {
			return nil, err
		}
		s, err := child.Schema().ProjectSchema(op.Cols)
		if err != nil {
			child.Close()
			return nil, err
		}
		if d.streaming {
			return &dedupIter{iterCore: d.core(n, s), child: child, cols: op.Cols,
				seen: make(map[string]struct{})}, nil
		}
		return d.blocking(n, s, []TupleIterator{child}, func(in []*relation.Relation) (*relation.Relation, kernel.Cost, error) {
			return d.kern.Project(in[0], op.Cols)
		}), nil

	case Union:
		l, r, err := d.openPair(op.L, op.R, true)
		if err != nil {
			return nil, err
		}
		if d.streaming {
			return &unionIter{iterCore: d.core(n, l.Schema()), l: l, r: r,
				seen: make(map[string]struct{})}, nil
		}
		return d.blocking(n, l.Schema(), []TupleIterator{l, r}, binaryFn(d.kern.Union)), nil

	case Intersect:
		l, r, err := d.openPair(op.L, op.R, true)
		if err != nil {
			return nil, err
		}
		if d.streaming {
			return &membershipIter{iterCore: d.core(n, l.Schema()), probe: l, build: r, want: true}, nil
		}
		return d.blocking(n, l.Schema(), []TupleIterator{l, r}, binaryFn(d.kern.Intersect)), nil

	case Difference:
		l, r, err := d.openPair(op.L, op.R, true)
		if err != nil {
			return nil, err
		}
		if d.streaming {
			return &membershipIter{iterCore: d.core(n, l.Schema()), probe: l, build: r, want: false}, nil
		}
		return d.blocking(n, l.Schema(), []TupleIterator{l, r}, binaryFn(d.kern.Difference)), nil

	case Join:
		l, r, err := d.openPair(op.L, op.R, false)
		if err != nil {
			return nil, err
		}
		schema, bKeep, err := join.Layout(l.Schema(), r.Schema(), op.Spec)
		if err != nil {
			l.Close()
			r.Close()
			return nil, err
		}
		if d.streaming {
			return &joinIter{iterCore: d.core(n, schema), probe: l, build: r,
				spec: op.Spec, equi: op.Spec.IsEqui(), bKeep: bKeep}, nil
		}
		return d.blocking(n, schema, []TupleIterator{l, r}, func(in []*relation.Relation) (*relation.Relation, kernel.Cost, error) {
			return d.kern.Join(in[0], in[1], op.Spec)
		}), nil

	case Divide:
		// A full pipeline breaker in either mode: division's x-vector
		// semantics need the complete dividend and divisor.
		l, r, err := d.openPair(op.L, op.R, false)
		if err != nil {
			return nil, err
		}
		// The quotient schema is A projected onto AQuot; computed up front
		// so Schema() is valid before the division runs.
		s, err := l.Schema().ProjectSchema(op.AQuot)
		if err != nil {
			l.Close()
			r.Close()
			return nil, err
		}
		return d.blocking(n, s, []TupleIterator{l, r}, func(in []*relation.Relation) (*relation.Relation, kernel.Cost, error) {
			return d.kern.Divide(in[0], in[1], op.AQuot, op.ADiv, op.BCols)
		}), nil
	}
	return nil, fmt.Errorf("query: unsupported plan node %T", n)
}

// openPair opens both children, optionally enforcing union compatibility
// (§2.4), and closes whatever was opened on failure.
func (d *driver) openPair(ln, rn Node, compatible bool) (TupleIterator, TupleIterator, error) {
	l, err := d.open(ln)
	if err != nil {
		return nil, nil, err
	}
	r, err := d.open(rn)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	if compatible && !l.Schema().UnionCompatible(r.Schema()) {
		l.Close()
		r.Close()
		return nil, nil, fmt.Errorf("query: operands are not union-compatible")
	}
	return l, r, nil
}
