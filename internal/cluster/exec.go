package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"systolicdb/internal/cells"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
)

// ShardExec is one shard's execution surface as the coordinator sees it:
// run a sub-plan, and stage/unstage the temporary relations the shuffle
// and broadcast strategies ship around. Implementations are the HTTP shard
// client (production) and in-process catalogs (tests); either way the
// engine only ever speaks plan text and relations.
type ShardExec interface {
	// Query parses and executes plan text against the shard's catalog and
	// returns the materialized result.
	Query(ctx context.Context, plan string) (*relation.Relation, error)

	// PutTemp stages rel under name on the shard (transient: never
	// write-ahead logged, invisible to catalog listings).
	PutTemp(ctx context.Context, name string, rel *relation.Relation) error

	// DeleteTemp drops a staged temporary (best effort; the engine calls
	// it in cleanup paths and tolerates failure).
	DeleteTemp(ctx context.Context, name string) error
}

// ExecOptions tunes the distributed executor.
type ExecOptions struct {
	// Fanout bounds how many shards are contacted concurrently per
	// scatter. 0 selects min(shards, 8).
	Fanout int

	// BroadcastLimit is the equi-join strategy knob: a join side with at
	// most this many tuples is broadcast whole to every shard; a bigger
	// side is co-partitioned on the join key instead (both sides
	// re-shuffled through the coordinator, unless already keyed). 0
	// selects 4096. Theta-joins always broadcast — there is no key to
	// co-partition on.
	BroadcastLimit int

	// Backend runs the coordinator-local fallback operators (plans that do
	// not decompose) on this engine.
	Backend machine.Backend

	// Width, when non-nil, reports the column count of a base relation.
	// It enables the "keys already agree" shortcut: a scan joined or
	// divided on exactly its full column list is already co-partitioned
	// (PUT-time hashing covered the whole tuple), so no re-shuffle is
	// needed. Nil or a false return takes the conservative shuffle path.
	Width func(name string) (int, bool)

	// Metrics receives scatter latency, fan-out sizes, gathered rows and
	// strategy counters. Nil selects a private throwaway registry.
	Metrics *obs.Registry
}

func (o ExecOptions) withDefaults(shards int) ExecOptions {
	if o.Fanout <= 0 {
		o.Fanout = min(shards, 8)
	}
	if o.BroadcastLimit <= 0 {
		o.BroadcastLimit = 4096
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// Engine evaluates plans across a fixed set of shards: whole-plan scatter
// for decomposable operators, broadcast/shuffle strategies for joins and
// division, and a coordinator-local fallback for everything else.
type Engine struct {
	shards []ShardExec
	ring   *Ring
	opt    ExecOptions
	reg    *obs.Registry
	tmpSeq atomic.Uint64
}

// NewEngine builds an executor over the given shards. The ring must have
// been built over the same shard count that partitioned the base
// relations.
func NewEngine(shards []ShardExec, ring *Ring, opt ExecOptions) (*Engine, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: engine needs at least one shard")
	}
	if ring == nil || ring.Shards() != len(shards) {
		return nil, fmt.Errorf("cluster: ring/shard count mismatch")
	}
	o := opt.withDefaults(len(shards))
	return &Engine{shards: shards, ring: ring, opt: o, reg: o.Metrics}, nil
}

// Execute evaluates a plan across the cluster and returns the gathered
// result. The plan's scans refer to base relations partitioned across the
// shards by full-tuple hash on the engine's ring.
func (e *Engine) Execute(ctx context.Context, n query.Node) (*relation.Relation, error) {
	if n == nil {
		return nil, fmt.Errorf("cluster: nil plan")
	}
	return e.exec(ctx, n)
}

func (e *Engine) exec(ctx context.Context, n query.Node) (*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p := Classify(n); p.Scatterable() {
		return e.scatterSame(ctx, n, p)
	}
	// Peel shard-local wrappers (select/project/dedup) off a join or
	// division so they ride along in the scattered sub-plans instead of
	// forcing a full gather first.
	inner, w := peel(n)
	switch op := inner.(type) {
	case query.Join:
		return e.execJoin(ctx, op, w)
	case query.Divide:
		return e.execDivide(ctx, op, w)
	}
	return e.execLocal(ctx, n)
}

// wrapper is a chain of single-child operators peeled off the top of a
// plan, to be rebuilt around a rewritten inner node. projected reports
// that the chain contains a Project, whose images may collide across
// shards, demoting the gather to dedup-merge; dedupped reports a Dedup,
// which alone cannot collide (see Engine.gatherPart).
type wrapper struct {
	rebuild   func(query.Node) query.Node
	projected bool
	dedupped  bool
}

func identityWrapper() wrapper {
	return wrapper{rebuild: func(n query.Node) query.Node { return n }}
}

// peel walks down through Select/Project/Dedup chains (shard-local
// operators) and returns the first other node plus the chain to rebuild
// above it.
func peel(n query.Node) (query.Node, wrapper) {
	w := identityWrapper()
	for {
		switch op := n.(type) {
		case query.Select:
			prev := w.rebuild
			q := op.Query
			w.rebuild = func(c query.Node) query.Node { return prev(query.Select{Child: c, Query: q}) }
			n = op.Child
		case query.Project:
			prev := w.rebuild
			cols := op.Cols
			w.rebuild = func(c query.Node) query.Node { return prev(query.Project{Child: c, Cols: cols}) }
			w.projected = true
			n = op.Child
		case query.Dedup:
			prev := w.rebuild
			w.rebuild = func(c query.Node) query.Node { return prev(query.Dedup{Child: c}) }
			w.dedupped = true
			n = op.Child
		default:
			return n, w
		}
	}
}

// scatterSame ships one identical plan to every shard and gathers.
func (e *Engine) scatterSame(ctx context.Context, n query.Node, p Part) (*relation.Relation, error) {
	return e.scatter(ctx, func(int) query.Node { return n }, p, query.OpName(n))
}

// scatter ships mkNode(i) to shard i (bounded fan-out), concatenates the
// partial results in shard order, and removes cross-shard duplicates when
// the partition property demands it.
func (e *Engine) scatter(ctx context.Context, mkNode func(i int) query.Node, p Part, op string) (*relation.Relation, error) {
	stop := e.reg.Timer("cluster_scatter_seconds", obs.Labels{"op": op}).Start()
	defer stop()

	parts := make([]*relation.Relation, len(e.shards))
	err := e.fanout(ctx, len(e.shards), func(i int) error {
		text, err := query.Format(mkNode(i))
		if err != nil {
			return err
		}
		e.reg.Counter("cluster_subqueries_total", obs.Labels{"op": op}).Inc()
		rel, err := e.shards[i].Query(ctx, text)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		parts[i] = rel
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.merge(parts, p, op)
}

// merge reassembles the global result from per-shard partials: concat in
// shard order (multiset-exact for aligned/disjoint plans), plus duplicate
// removal at the gather point for overlap plans.
func (e *Engine) merge(parts []*relation.Relation, p Part, op string) (*relation.Relation, error) {
	out := parts[0]
	for _, part := range parts[1:] {
		var err error
		if out, err = out.Concat(part); err != nil {
			return nil, fmt.Errorf("cluster: gathering %s partials: %w", op, err)
		}
	}
	if p == PartOverlap {
		out = out.Dedup()
	}
	e.reg.Counter("cluster_gather_rows_total", obs.Labels{"op": op}).Add(int64(out.Cardinality()))
	return out, nil
}

// fanout runs f(0..n-1) with bounded parallelism, returning the first
// error (all started calls finish before return).
func (e *Engine) fanout(ctx context.Context, n int, f func(i int) error) error {
	e.reg.Gauge("cluster_fanout_shards", nil).Set(float64(n))
	sem := make(chan struct{}, e.opt.Fanout)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			if err := f(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// tempName returns a fresh reserved relation name for staged shuffle /
// broadcast state. The "__tmp_" prefix is what shards treat as ephemeral
// (no write-ahead logging, hidden from listings).
func (e *Engine) tempName(kind string) string {
	return fmt.Sprintf("__tmp_%s_%d", kind, e.tmpSeq.Add(1))
}

// putTempAll stages rel under name on every shard (broadcast).
func (e *Engine) putTempAll(ctx context.Context, name string, rel *relation.Relation) error {
	e.reg.Counter("cluster_broadcast_rows_total", nil).Add(int64(rel.Cardinality() * len(e.shards)))
	return e.fanout(ctx, len(e.shards), func(i int) error {
		return e.shards[i].PutTemp(ctx, name, rel)
	})
}

// putTempParts stages parts[i] under name on shard i (shuffle).
func (e *Engine) putTempParts(ctx context.Context, name string, parts []*relation.Relation) error {
	total := 0
	for _, p := range parts {
		total += p.Cardinality()
	}
	e.reg.Counter("cluster_shuffle_rows_total", nil).Add(int64(total))
	return e.fanout(ctx, len(e.shards), func(i int) error {
		return e.shards[i].PutTemp(ctx, name, parts[i])
	})
}

// dropTemp removes a staged temporary everywhere, best effort.
func (e *Engine) dropTemp(name string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.fanout(ctx, len(e.shards), func(i int) error {
		_ = e.shards[i].DeleteTemp(ctx, name)
		return nil
	})
}

// keyedScan reports whether n is a scan whose PUT-time partitioning
// already equals partitioning by cols: the scan's full column list, in
// order. Then hashing cols is hashing the whole tuple and no re-shuffle is
// needed — the §9 crossbar's "data is already at the right device" case.
func (e *Engine) keyedScan(n query.Node, cols []int) bool {
	scan, ok := n.(query.Scan)
	if !ok || e.opt.Width == nil {
		return false
	}
	w, ok := e.opt.Width(scan.Name)
	if !ok || w != len(cols) {
		return false
	}
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// shardResident resolves the probe side of a join/division to a per-shard
// plan node: a scatterable plan is referenced as-is (it already evaluates
// shard-locally), anything else is materialized through the cluster and
// re-partitioned onto the shards by the given key columns (nil = full
// tuple). It returns the node to embed in per-shard plans and the temp
// name to clean up ("" when nothing was staged).
func (e *Engine) shardResident(ctx context.Context, n query.Node, byCols []int, forceShuffle bool) (query.Node, string, error) {
	if !forceShuffle && Classify(n) == PartAligned && byCols == nil {
		return n, "", nil
	}
	if e.keyedScan(n, byCols) {
		return n, "", nil
	}
	rel, err := e.exec(ctx, n)
	if err != nil {
		return nil, "", err
	}
	parts, err := PartitionBy(rel, byCols, e.ring)
	if err != nil {
		return nil, "", err
	}
	name := e.tempName("part")
	if err := e.putTempParts(ctx, name, parts); err != nil {
		e.dropTemp(name)
		return nil, "", err
	}
	return query.Scan{Name: name}, name, nil
}

// execJoin distributes a join. The build side (R) is always materialized
// through the cluster first; small or theta-join build sides are broadcast
// to every shard, large equi-join build sides are co-partitioned with the
// probe side on the join key (re-shuffling whichever sides aren't already
// keyed). Gather is concat: each matched pair is produced by exactly one
// shard.
func (e *Engine) execJoin(ctx context.Context, op query.Join, w wrapper) (*relation.Relation, error) {
	equi := true
	for _, o := range op.Spec.Ops {
		if o != cells.EQ {
			equi = false
		}
	}

	// Fast path: both sides are scans already partitioned by their join
	// key — co-partitioned at PUT time, nothing moves.
	if equi && e.keyedScan(op.L, op.Spec.ACols) && e.keyedScan(op.R, op.Spec.BCols) {
		e.reg.Counter("cluster_join_strategy_total", obs.Labels{"strategy": "copartitioned"}).Inc()
		return e.scatter(ctx, func(int) query.Node {
			return w.rebuild(query.Join{L: op.L, R: op.R, Spec: op.Spec})
		}, e.gatherPart(w), "join")
	}

	rrel, err := e.exec(ctx, op.R)
	if err != nil {
		return nil, err
	}

	if equi && rrel.Cardinality() > e.opt.BroadcastLimit {
		return e.shuffleJoin(ctx, op, rrel, w)
	}
	return e.broadcastJoin(ctx, op, rrel, w)
}

// broadcastJoin ships the build side whole to every shard and probes the
// (shard-resident) left side against it — the degenerate co-partitioning
// where the build side's partition map is "everywhere". Correct for any
// operator mix, including θ-joins.
func (e *Engine) broadcastJoin(ctx context.Context, op query.Join, rrel *relation.Relation, w wrapper) (*relation.Relation, error) {
	e.reg.Counter("cluster_join_strategy_total", obs.Labels{"strategy": "broadcast"}).Inc()
	lNode, lTemp, err := e.shardResident(ctx, op.L, nil, false)
	if err != nil {
		return nil, err
	}
	if lTemp != "" {
		defer e.dropTemp(lTemp)
	}
	rName := e.tempName("bcast")
	if err := e.putTempAll(ctx, rName, rrel); err != nil {
		e.dropTemp(rName)
		return nil, err
	}
	defer e.dropTemp(rName)
	return e.scatter(ctx, func(int) query.Node {
		return w.rebuild(query.Join{L: lNode, R: query.Scan{Name: rName}, Spec: op.Spec})
	}, e.gatherPart(w), "join")
}

// shuffleJoin co-partitions both sides on the join key through the
// coordinator — the crossbar-as-network move: tuples that must meet are
// routed to the same device.
func (e *Engine) shuffleJoin(ctx context.Context, op query.Join, rrel *relation.Relation, w wrapper) (*relation.Relation, error) {
	e.reg.Counter("cluster_join_strategy_total", obs.Labels{"strategy": "shuffle"}).Inc()
	lNode, lTemp, err := e.shardResident(ctx, op.L, op.Spec.ACols, true)
	if err != nil {
		return nil, err
	}
	if lTemp != "" {
		defer e.dropTemp(lTemp)
	}
	rParts, err := PartitionBy(rrel, op.Spec.BCols, e.ring)
	if err != nil {
		return nil, err
	}
	rName := e.tempName("shuf")
	if err := e.putTempParts(ctx, rName, rParts); err != nil {
		e.dropTemp(rName)
		return nil, err
	}
	defer e.dropTemp(rName)
	return e.scatter(ctx, func(int) query.Node {
		return w.rebuild(query.Join{L: lNode, R: query.Scan{Name: rName}, Spec: op.Spec})
	}, e.gatherPart(w), "join")
}

// gatherPart decides the gather policy for a peeled wrapper over a
// distributed join/division. A Project in the chain can map distinct
// per-shard tuples onto one image, so the gather must dedup-merge
// (PartOverlap). A Dedup alone cannot create cross-shard duplicates:
// Select and Dedup pass full output tuples through unchanged, and every
// strategy partitions so that equal output tuples are produced on one
// shard — join outputs embed the whole probe tuple, whose value picks
// the shard (co-partitioned: full-tuple keyed scan; broadcast: aligned
// or full-tuple re-partition; shuffle: join-key hash, on which equal
// tuples agree); divisions shuffle the dividend on exactly the quotient
// columns the output consists of. Local per-shard Dedups (riding in the
// wrapper) remove within-shard duplicates, so the gather may concatenate
// verbatim — the skip is counted so the equivalence suite and /metrics
// can see it happening.
func (e *Engine) gatherPart(w wrapper) Part {
	if w.projected {
		return PartOverlap
	}
	if w.dedupped {
		e.reg.Counter("cluster_gather_dedup_skipped_total", nil).Inc()
	}
	return PartDisjoint
}

// execDivide distributes a division (§7): the divisor is gathered through
// the cluster and broadcast to every shard; the dividend is re-shuffled
// onto its quotient columns, so every tuple of one quotient group lands on
// one shard and the local "for all" check sees the whole group.
func (e *Engine) execDivide(ctx context.Context, op query.Divide, w wrapper) (*relation.Relation, error) {
	rrel, err := e.exec(ctx, op.R)
	if err != nil {
		return nil, err
	}
	lNode, lTemp, err := e.shardResident(ctx, op.L, op.AQuot, true)
	if err != nil {
		return nil, err
	}
	if lTemp != "" {
		defer e.dropTemp(lTemp)
	}
	rName := e.tempName("div")
	if err := e.putTempAll(ctx, rName, rrel); err != nil {
		e.dropTemp(rName)
		return nil, err
	}
	defer e.dropTemp(rName)
	return e.scatter(ctx, func(int) query.Node {
		return w.rebuild(query.Divide{
			L: lNode, R: query.Scan{Name: rName},
			AQuot: op.AQuot, ADiv: op.ADiv, BCols: op.BCols,
		})
	}, e.gatherPart(w), "divide")
}

// execLocal is the fallback for plans that do not decompose: children are
// still evaluated through the cluster, but the top operator runs on the
// coordinator's own engine.
func (e *Engine) execLocal(ctx context.Context, n query.Node) (*relation.Relation, error) {
	e.reg.Counter("cluster_local_fallback_total", obs.Labels{"op": query.OpName(n)}).Inc()
	switch op := n.(type) {
	case query.Intersect:
		return e.localPair(ctx, op.L, op.R, func(l, r query.Node) query.Node {
			return query.Intersect{L: l, R: r}
		})
	case query.Difference:
		return e.localPair(ctx, op.L, op.R, func(l, r query.Node) query.Node {
			return query.Difference{L: l, R: r}
		})
	case query.Union:
		return e.localPair(ctx, op.L, op.R, func(l, r query.Node) query.Node {
			return query.Union{L: l, R: r}
		})
	case query.Dedup:
		return e.localSingle(ctx, op.Child, func(c query.Node) query.Node {
			return query.Dedup{Child: c}
		})
	case query.Project:
		return e.localSingle(ctx, op.Child, func(c query.Node) query.Node {
			return query.Project{Child: c, Cols: op.Cols}
		})
	case query.Select:
		return e.localSingle(ctx, op.Child, func(c query.Node) query.Node {
			return query.Select{Child: c, Query: op.Query}
		})
	}
	return nil, fmt.Errorf("cluster: unsupported plan node %T", n)
}

func (e *Engine) localPair(ctx context.Context, l, r query.Node, mk func(l, r query.Node) query.Node) (*relation.Relation, error) {
	lrel, err := e.exec(ctx, l)
	if err != nil {
		return nil, err
	}
	rrel, err := e.exec(ctx, r)
	if err != nil {
		return nil, err
	}
	cat := query.Catalog{"__local_l": lrel, "__local_r": rrel}
	return query.ExecuteCtx(ctx, mk(query.Scan{Name: "__local_l"}, query.Scan{Name: "__local_r"}), cat,
		&query.Options{Metrics: e.reg, Backend: e.opt.Backend})
}

func (e *Engine) localSingle(ctx context.Context, child query.Node, mk func(c query.Node) query.Node) (*relation.Relation, error) {
	crel, err := e.exec(ctx, child)
	if err != nil {
		return nil, err
	}
	cat := query.Catalog{"__local_c": crel}
	return query.ExecuteCtx(ctx, mk(query.Scan{Name: "__local_c"}), cat,
		&query.Options{Metrics: e.reg, Backend: e.opt.Backend})
}
