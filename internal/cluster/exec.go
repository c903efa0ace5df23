package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
		return e.scatter(ctx, n, p, query.OpName(n))
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
// plan, outermost first, to be rebuilt around a rewritten inner node.
type wrapper []query.Node

// rebuild re-wraps inner in the peeled chain.
func (w wrapper) rebuild(inner query.Node) query.Node {
	for i := len(w) - 1; i >= 0; i-- {
		inner = query.WithChildren(w[i], inner)
	}
	return inner
}

// peel walks down through Select/Project/Dedup chains (shard-local
// operators) and returns the first other node plus the chain to rebuild
// above it.
func peel(n query.Node) (query.Node, wrapper) {
	var w wrapper
	for {
		switch n.(type) {
		case query.Select, query.Project, query.Dedup:
			w = append(w, n)
			n = query.Children(n)[0]
		default:
			return n, w
		}
	}
}

// scatter ships n to every shard (bounded fan-out), concatenates the
// partial results in shard order, and removes cross-shard duplicates when
// the partition property demands it. op is the metric label: the operator
// being distributed, which under a peeled wrapper is not n's own name.
func (e *Engine) scatter(ctx context.Context, n query.Node, p Part, op string) (*relation.Relation, error) {
	stop := e.reg.Timer("cluster_scatter_seconds", obs.Labels{"op": op}).Start()
	defer stop()

	text, err := query.Format(n)
	if err != nil {
		return nil, err
	}
	parts := make([]*relation.Relation, len(e.shards))
	err = e.fanout(ctx, len(e.shards), func(i int) error {
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

// stage puts rel on the shards under a fresh temporary name: whole on every
// shard when everywhere is set (broadcast), else partitioned on the ring by
// the key columns byCols (nil = full tuple; shuffle). A failed staging is
// cleaned up before returning.
func (e *Engine) stage(ctx context.Context, kind string, rel *relation.Relation, byCols []int, everywhere bool) (string, error) {
	part := func(int) *relation.Relation { return rel }
	if everywhere {
		e.reg.Counter("cluster_broadcast_rows_total", nil).Add(int64(rel.Cardinality() * len(e.shards)))
	} else {
		parts, err := PartitionBy(rel, byCols, e.ring)
		if err != nil {
			return "", err
		}
		part = func(i int) *relation.Relation { return parts[i] }
		e.reg.Counter("cluster_shuffle_rows_total", nil).Add(int64(rel.Cardinality()))
	}
	name := e.tempName(kind)
	err := e.fanout(ctx, len(e.shards), func(i int) error {
		return e.shards[i].PutTemp(ctx, name, part(i))
	})
	if err != nil {
		e.dropTemp(name)
		return "", err
	}
	return name, nil
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
// plan node. With no key (byCols nil) an aligned plan is referenced as-is —
// it already evaluates shard-locally; with one, so is a scan whose PUT-time
// partitioning is that key. Anything else is materialized through the
// cluster and re-partitioned onto the shards by the key columns (nil = full
// tuple). It returns the node to embed in per-shard plans and the temp name
// to clean up ("" when nothing was staged).
func (e *Engine) shardResident(ctx context.Context, n query.Node, byCols []int) (query.Node, string, error) {
	if byCols == nil && Classify(n) == PartAligned {
		return n, "", nil
	}
	if e.keyedScan(n, byCols) {
		return n, "", nil
	}
	rel, err := e.exec(ctx, n)
	if err != nil {
		return nil, "", err
	}
	name, err := e.stage(ctx, "part", rel, byCols, false)
	if err != nil {
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
	equi := op.Spec.IsEqui()
	strategy := func(name string) {
		e.reg.Counter("cluster_join_strategy_total", obs.Labels{"strategy": name}).Inc()
	}

	// Fast path: both sides are scans already partitioned by their join
	// key — co-partitioned at PUT time, nothing moves.
	if equi && e.keyedScan(op.L, op.Spec.ACols) && e.keyedScan(op.R, op.Spec.BCols) {
		strategy("copartitioned")
		return e.scatter(ctx, w.rebuild(op), e.gatherPart(w), "join")
	}

	rrel, err := e.exec(ctx, op.R)
	if err != nil {
		return nil, err
	}

	if equi && rrel.Cardinality() > e.opt.BroadcastLimit {
		// Co-partition both sides on the join key through the coordinator —
		// the crossbar-as-network move: tuples that must meet are routed to
		// the same device.
		strategy("shuffle")
		return e.staged(ctx, op, w, rrel, "shuf", op.Spec.ACols, op.Spec.BCols)
	}
	// Ship the build side whole to every shard and probe the (shard-
	// resident) left side against it — the degenerate co-partitioning where
	// the build side's partition map is "everywhere". Correct for any
	// operator mix, including θ-joins.
	strategy("broadcast")
	return e.staged(ctx, op, w, rrel, "bcast", nil, nil)
}

// staged is the one stage-and-scatter body behind every join and division
// strategy: make op's left operand shard-resident on lKey (shardResident),
// stage the already-gathered right operand rrel under a temporary —
// partitioned on rKey, or whole on every shard when rKey is nil — rebuild
// op over the two inside the peeled wrapper, scatter, and drop the
// temporaries.
func (e *Engine) staged(ctx context.Context, op query.Node, w wrapper, rrel *relation.Relation,
	kind string, lKey, rKey []int) (*relation.Relation, error) {

	lNode, lTemp, err := e.shardResident(ctx, query.Children(op)[0], lKey)
	if err != nil {
		return nil, err
	}
	if lTemp != "" {
		defer e.dropTemp(lTemp)
	}
	rName, err := e.stage(ctx, kind, rrel, rKey, rKey == nil)
	if err != nil {
		return nil, err
	}
	defer e.dropTemp(rName)
	sub := w.rebuild(query.WithChildren(op, lNode, query.Scan{Name: rName}))
	return e.scatter(ctx, sub, e.gatherPart(w), query.OpName(op))
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
	dedupped := false
	for _, n := range w {
		switch n.(type) {
		case query.Project:
			return PartOverlap
		case query.Dedup:
			dedupped = true
		}
	}
	if dedupped {
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
	return e.staged(ctx, op, w, rrel, "div", op.AQuot, nil)
}

// execLocal is the fallback for plans that do not decompose: the operands
// are still evaluated through the cluster, but the top operator runs on the
// coordinator's own engine, over the gathered operands.
func (e *Engine) execLocal(ctx context.Context, n query.Node) (*relation.Relation, error) {
	e.reg.Counter("cluster_local_fallback_total", obs.Labels{"op": query.OpName(n)}).Inc()
	kids := query.Children(n)
	cat := make(query.Catalog, len(kids))
	for i, kid := range kids {
		rel, err := e.exec(ctx, kid)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("__local_%d", i)
		cat[name], kids[i] = rel, query.Scan{Name: name}
	}
	return query.ExecuteCtx(ctx, query.WithChildren(n, kids...), cat,
		&query.Options{Metrics: e.reg, Backend: e.opt.Backend})
}
