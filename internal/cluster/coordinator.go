package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"systolicdb/internal/fault"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
)

// RelationsRelationName is the reserved catalog name the coordinator
// persists its relation directory under (name, width, rows): the width
// oracle behind the co-partitioned join fast path, durable across
// coordinator restarts.
const RelationsRelationName = "__cluster_relations"

// CoordinatorOptions configures NewCoordinator.
type CoordinatorOptions struct {
	// Fanout and BroadcastLimit tune the distributed executor (see
	// ExecOptions).
	Fanout         int
	BroadcastLimit int

	// Backend, when non-empty, overrides every shard's execution engine
	// per sub-query ("pulse" or "bitset").
	Backend string

	// LocalBackend runs coordinator-local fallback operators.
	LocalBackend machine.Backend

	// PromoteAfter is K: consecutive sub-query failures on one shard
	// before it is quarantined and its replica promoted. Default 3.
	PromoteAfter int

	// BreakerThreshold is the consecutive-failure count that opens a
	// shard's circuit breaker; once open, calls to that shard fail
	// immediately (no connection, no timeout spent) and still feed the
	// quarantine/promotion ladder. Default: PromoteAfter.
	BreakerThreshold int

	// BreakerCooldown is how long an open circuit denies calls before
	// letting one half-open probe through. Default 500ms.
	BreakerCooldown time.Duration

	// HedgeAfter, when positive, hedges read sub-queries: if a shard's
	// primary hasn't answered within this duration, the same sub-query is
	// raced against its replica and the first success wins. Zero disables
	// hedging.
	HedgeAfter time.Duration

	// Retry backs off between attempts on a sick shard. Zero values take
	// the fault package defaults (4 attempts, 1ms..50ms exponential).
	Retry fault.RetryPolicy

	// ClientTimeout bounds each HTTP call to a shard. Default 30s.
	ClientTimeout time.Duration

	// WrapTransport, when non-nil, wraps every shard client's HTTP
	// transport — the netchaos injection point.
	WrapTransport func(http.RoundTripper) http.RoundTripper

	// Parse decodes typed result tables into the coordinator's domain
	// pool. Required.
	Parse TableParser

	// Persist, when non-nil, durably stores a reserved relation (the
	// shard map, the relation directory) — the coordinator daemon wires
	// this to its own WAL-backed commit path.
	Persist func(name string, rel *relation.Relation) error

	// Metrics receives coordinator and executor metrics. Nil selects a
	// private registry.
	Metrics *obs.Registry
}

// Coordinator owns a cluster of shard daemons: it partitions relations at
// PUT time, scatters query plans through the distributed executor, and
// walks the failure ladder — retry with backoff, quarantine after K
// consecutive failures, replica promotion — when a shard goes dark.
type Coordinator struct {
	opt    CoordinatorOptions
	ring   *Ring
	reg    *obs.Registry
	slots  []*shardSlot
	engine *Engine

	// bootID + keySeq mint idempotency keys for writes whose client didn't
	// supply one: unique across coordinator restarts, stable across the
	// retries of one logical write.
	bootID string
	keySeq atomic.Uint64

	mu     sync.RWMutex // guards widths/rows
	widths map[string]int
	rows   map[string]int
}

// NewCoordinator builds a coordinator over the given shard specs. Shard
// order is ring position and must be stable across restarts.
func NewCoordinator(specs []ShardSpec, opt CoordinatorOptions) (*Coordinator, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	if opt.Parse == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a table parser")
	}
	// One daemon in two roles would hold two partitions under one name: the
	// second PUT overwrites the first, and every scatter reads it twice.
	seen := map[string]bool{}
	for _, spec := range specs {
		for _, addr := range []string{spec.Addr, spec.Replica} {
			if addr == "" {
				continue
			}
			base := httpBase(addr)
			if seen[base] {
				return nil, fmt.Errorf("cluster: shard address %s listed twice", base)
			}
			seen[base] = true
		}
	}
	if opt.PromoteAfter <= 0 {
		opt.PromoteAfter = 3
	}
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	ring, err := NewRing(len(specs))
	if err != nil {
		return nil, err
	}
	if opt.BreakerThreshold <= 0 {
		opt.BreakerThreshold = opt.PromoteAfter
	}
	c := &Coordinator{
		opt:    opt,
		ring:   ring,
		reg:    opt.Metrics,
		bootID: newBootID(),
		widths: map[string]int{},
		rows:   map[string]int{},
	}
	clientOpt := ClientOptions{
		Timeout:        opt.ClientTimeout,
		MaxIdlePerHost: max(opt.Fanout, len(specs)),
		Backend:        opt.Backend,
		Wrap:           opt.WrapTransport,
	}
	for i, spec := range specs {
		var replica *ShardClient
		if spec.Replica != "" {
			replica = NewShardClient(httpBase(spec.Replica), opt.Parse, clientOpt)
		}
		primary := NewShardClient(httpBase(spec.Addr), opt.Parse, clientOpt)
		c.slots = append(c.slots, newShardSlot(i, primary, replica, opt, c.reg, time.Now))
	}
	execs := make([]ShardExec, len(c.slots))
	for i, slot := range c.slots {
		execs[i] = &failoverShard{c: c, slot: slot}
	}
	c.engine, err = NewEngine(execs, ring, ExecOptions{
		Fanout:         opt.Fanout,
		BroadcastLimit: opt.BroadcastLimit,
		Backend:        opt.LocalBackend,
		Width:          c.widthOf,
		Metrics:        opt.Metrics,
	})
	if err != nil {
		return nil, err
	}
	c.persistState()
	return c, nil
}

// httpBase normalises a shard address to a base URL.
func httpBase(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// newBootID draws a random coordinator incarnation tag, so minted
// idempotency keys never collide across restarts.
func newBootID() string {
	var b [6]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Degrade to a time-based tag; uniqueness across restarts is a
		// best-effort property, collisions only risk a spurious dedup.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// nextKey mints an idempotency key for one logical write.
func (c *Coordinator) nextKey(name string) string {
	return fmt.Sprintf("%s-%d-%s", c.bootID, c.keySeq.Add(1), name)
}

// shardKey derives the per-shard idempotency key for one partition of a
// logical write. Each shard slot gets its own key (the partitions differ)
// but the SAME key goes to that slot's primary and replica, and survives
// every retry — so a torn ack retried through the ladder, or a record
// arriving over both the dual-write and WAL-shipping paths, commits
// exactly once per copy.
func shardKey(key string, shard int) string {
	return fmt.Sprintf("%s@s%d", key, shard)
}

func (c *Coordinator) widthOf(name string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w, ok := c.widths[name]
	return w, ok
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.slots) }

// failoverShard is the ShardExec the executor sees: every call walks the
// retry/quarantine/promotion ladder before giving up.
type failoverShard struct {
	c    *Coordinator
	slot *shardSlot
}

func (f *failoverShard) Query(ctx context.Context, plan string) (*relation.Relation, error) {
	primary := func(ctx context.Context) (*relation.Relation, error) {
		return withFailover(ctx, f.c, f.slot, func(cl *ShardClient) (*relation.Relation, error) {
			return cl.Query(ctx, plan)
		})
	}
	hedgeAfter := f.c.opt.HedgeAfter
	// Hedging only applies to plans over durable relations: __tmp_ shuffle
	// stages are staged on the primary alone, so a replica copy of such a
	// plan would answer from missing inputs.
	if hedgeAfter <= 0 || strings.Contains(plan, "__tmp_") {
		return primary(ctx)
	}
	f.slot.mu.RLock()
	replica := f.slot.replica
	f.slot.mu.RUnlock()
	if replica == nil {
		return primary(ctx)
	}
	return f.hedge(ctx, plan, primary, replica, hedgeAfter)
}

// hedge races the primary path (with its full failover ladder) against a
// late-started replica copy of the same read: if the primary hasn't
// answered within hedgeAfter — slow disk, lossy path, mid-promotion stall
// — the replica runs the identical sub-query and the first success wins.
// Reads only; writes stay on the strictly-ordered dual-write path.
func (f *failoverShard) hedge(ctx context.Context, plan string,
	primary func(context.Context) (*relation.Relation, error),
	replica *ShardClient, hedgeAfter time.Duration) (*relation.Relation, error) {
	type result struct {
		rel    *relation.Relation
		err    error
		hedged bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps the losing leg
	ch := make(chan result, 2)
	go func() {
		rel, err := primary(hctx)
		ch <- result{rel, err, false}
	}()
	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()
	launched := false
	var firstErr error
	for pending := 1; pending > 0; {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.hedged {
					f.c.reg.Counter("cluster_hedge_wins_total", obs.Labels{"shard": f.slot.name()}).Inc()
				}
				return r.rel, nil
			}
			// Keep the primary leg's error for reporting: it carries the
			// ladder's diagnosis (quarantine, attempts exhausted).
			if !r.hedged || firstErr == nil {
				firstErr = r.err
			}
		case <-timer.C:
			if !launched {
				launched = true
				pending++
				f.c.reg.Counter("cluster_hedged_requests_total", obs.Labels{"shard": f.slot.name()}).Inc()
				go func() {
					rel, err := replica.Query(hctx, plan)
					ch <- result{rel, err, true}
				}()
			}
		}
	}
	return nil, firstErr
}

func (f *failoverShard) PutTemp(ctx context.Context, name string, rel *relation.Relation) error {
	_, err := withFailover(ctx, f.c, f.slot, func(cl *ShardClient) (struct{}, error) {
		return struct{}{}, cl.PutTemp(ctx, name, rel)
	})
	return err
}

func (f *failoverShard) DeleteTemp(ctx context.Context, name string) error {
	_, err := withFailover(ctx, f.c, f.slot, func(cl *ShardClient) (struct{}, error) {
		return struct{}{}, cl.DeleteTemp(ctx, name)
	})
	return err
}

// errBreakerOpen is the immediate failure an open circuit substitutes for
// a network call. It is retryable by classification but carries no new
// evidence about the shard: the ladder advances on the half-open probes
// instead, so an open circuit under heavy load cannot snowball three noise
// failures into a quarantine.
var errBreakerOpen = fmt.Errorf("cluster: circuit breaker open")

// withFailover runs op against the slot's current primary, retrying
// retryable failures with backoff. When the slot's ladder quarantines the
// primary (K consecutive failures), the replica is promoted and the
// attempt budget starts over on the new primary. With no replica left,
// the quarantine stands and the call fails.
//
// An open circuit breaker short-circuits the network call entirely; a
// Retry-After hint from an overloaded shard stretches the backoff to at
// least what the shard asked for.
func withFailover[T any](ctx context.Context, c *Coordinator, slot *shardSlot, op func(*ShardClient) (T, error)) (T, error) {
	var zero T
	maxAttempts := c.opt.Retry.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 4
	}
	attempt := 0
	for {
		cl, rung, admitted := slot.admit()
		var v T
		var err error
		switch {
		case admitted:
			v, err = op(cl)
		case rung == slotTerminal:
			return zero, fmt.Errorf("cluster: %s is quarantined (no replica left)", slot.name())
		default:
			err = errBreakerOpen
			c.reg.Counter("cluster_breaker_denials_total", obs.Labels{"shard": slot.name()}).Inc()
		}
		if err == nil {
			slot.settle(cl, callOK)
			return v, nil
		}
		if ctx.Err() != nil || !RetryableShardError(err) {
			// The ladder is exiting without retrying, but an admitted call
			// still owes the slot its outcome: if it was the half-open
			// probe, skipping this would leave the probe in flight forever
			// and every future call to the shard would be denied. A probe
			// timing out against a partitioned shard is the common case
			// here. Its retryable failure charges the circuit (a failed
			// probe re-opens for another cooldown); a non-retryable error
			// means the shard answered and the query itself was bad, so
			// the probe is only released. Quarantine advances on the retry
			// ladder's evidence, not on exits from it.
			if admitted && RetryableShardError(err) {
				slot.settle(cl, callTimedOut)
			} else if admitted {
				slot.settle(cl, callAborted)
			}
			return zero, err
		}
		if !admitted {
			// A denial is the breaker doing its job, not the shard failing
			// again — only the probes change the evidence. A concurrent
			// promotion may have swapped the primary out from under the
			// denied call; restart the ladder against the new one.
			if slot.current() != cl {
				attempt = 0
				continue
			}
		} else {
			c.reg.Counter("cluster_shard_failures_total", obs.Labels{"shard": slot.name()}).Inc()
			switch slot.settle(cl, callFailed) {
			case slotPromote:
				c.persistState()
				fallthrough
			case slotNone: // the primary changed under the call, or the slot is terminal
				attempt = 0
				continue
			case slotStrand:
				return zero, fmt.Errorf("cluster: %s quarantined after repeated failures: %w", slot.name(), err)
			}
		}
		attempt++
		if attempt >= maxAttempts {
			return zero, fmt.Errorf("cluster: %s failed %d attempts: %w", slot.name(), attempt, err)
		}
		delay := c.opt.Retry.Delay(attempt)
		if hint, ok := RetryAfterHint(err); ok && hint > delay {
			delay = hint
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// Execute evaluates a plan across the cluster.
func (c *Coordinator) Execute(ctx context.Context, n query.Node) (*relation.Relation, error) {
	return c.engine.Execute(ctx, n)
}

// PutKeyed hash-partitions rel by full tuple across the shards. Each
// partition is written to the shard's primary AND its replica before the
// whole put is acknowledged — an acked write survives the loss of either
// copy, which is what lets promotion guarantee zero acked-write loss.
//
// key is the client's idempotency key ("" mints one): every shard copy of
// this logical write — primary, replica, each retry, even the WAL-shipped
// replay — carries the same per-shard key, so the write commits at most
// once per node no matter how many times the network makes the
// coordinator resend it.
func (c *Coordinator) PutKeyed(ctx context.Context, name, key string, rel *relation.Relation) error {
	if strings.HasPrefix(name, "__") {
		return fmt.Errorf("cluster: relation name %q is reserved", name)
	}
	if key == "" {
		key = c.nextKey(name)
	}
	parts, err := Partition(rel, c.ring)
	if err != nil {
		return err
	}
	err = c.engine.fanout(ctx, len(c.slots), func(i int) error {
		k := shardKey(key, i)
		return c.writeBoth(ctx, c.slots[i], func(cl *ShardClient) error {
			return cl.PutKeyed(ctx, name, k, parts[i])
		})
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.widths[name] = rel.Width()
	c.rows[name] = rel.Cardinality()
	c.mu.Unlock()
	c.persistState()
	return nil
}

// writeBoth applies one idempotent mutation to a slot's primary (with
// the failover ladder) and, when a replica is attached, to the replica
// as well. Both copies must succeed for the write to ack.
//
// After the primary acks, the slot is re-read under its lock and the
// answering client must still be the primary. If a concurrent promotion
// demoted it in between, the write landed only on the now-demoted
// ex-primary — acking there would violate zero acked-write loss, because
// the node serving reads from now on never saw it. The mutation is
// re-run against the new primary instead; the caller's idempotency key
// makes the duplicate landing on any node that did see it a no-op.
func (c *Coordinator) writeBoth(ctx context.Context, slot *shardSlot, op func(*ShardClient) error) error {
	for {
		var winner *ShardClient
		if _, err := withFailover(ctx, c, slot, func(cl *ShardClient) (struct{}, error) {
			winner = cl
			return struct{}{}, op(cl)
		}); err != nil {
			return err
		}
		slot.mu.RLock()
		stillPrimary := slot.primary == winner
		replica := slot.replica
		slot.mu.RUnlock()
		if !stillPrimary {
			continue
		}
		if replica == nil {
			return nil
		}
		if err := op(replica); err != nil {
			return fmt.Errorf("cluster: replica write for %s failed (write not acked): %w", slot.name(), err)
		}
		return nil
	}
}

// DeleteKeyed drops a relation from every shard (primaries and replicas),
// under an idempotency key as PutKeyed's.
func (c *Coordinator) DeleteKeyed(ctx context.Context, name, key string) (bool, error) {
	if key == "" {
		key = c.nextKey(name)
	}
	c.mu.RLock()
	_, existed := c.widths[name]
	c.mu.RUnlock()
	err := c.engine.fanout(ctx, len(c.slots), func(i int) error {
		k := shardKey(key, i)
		return c.writeBoth(ctx, c.slots[i], func(cl *ShardClient) error {
			return cl.DeleteKeyed(ctx, name, k)
		})
	})
	if err != nil {
		return existed, err
	}
	// The directory entry drops only once every shard confirmed the
	// delete: dropping it up front and failing the fanout would persist a
	// state where the relation still exists on shards but the width oracle
	// and Names() no longer know it.
	c.mu.Lock()
	delete(c.widths, name)
	delete(c.rows, name)
	c.mu.Unlock()
	c.persistState()
	return existed, nil
}

// Gather reassembles a whole partitioned relation (GET /relations/{name}
// on the coordinator).
func (c *Coordinator) Gather(ctx context.Context, name string) (*relation.Relation, error) {
	return c.Execute(ctx, query.Scan{Name: name})
}

// Names lists the cluster-resident relations (sorted).
func (c *Coordinator) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.widths))
	for n := range c.widths {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Rows returns the global row count recorded at PUT time.
func (c *Coordinator) Rows(name string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.rows[name]
	return r, ok
}

// ShardInfo is one shard's topology entry, as surfaced by /healthz.
type ShardInfo struct {
	ID          int    `json:"id"`
	Primary     string `json:"primary"`
	Replica     string `json:"replica,omitempty"`
	Promoted    bool   `json:"promoted,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	// Breaker is the shard's circuit state ("closed", "open", "half-open").
	Breaker string `json:"breaker,omitempty"`
}

// Topology reports the current shard map.
func (c *Coordinator) Topology() []ShardInfo {
	out := make([]ShardInfo, len(c.slots))
	for i, slot := range c.slots {
		slot.mu.RLock()
		rung := slot.ladder.State()
		info := ShardInfo{ID: slot.id, Primary: slot.primary.Addr(), Promoted: slot.promoted,
			Quarantined: rung == slotTerminal, Breaker: slotBreaker[rung]}
		if rung == slotTerminal && slot.fails < slot.opt.BreakerThreshold {
			info.Breaker = "closed" // stranded before its circuit took a threshold of failures
		}
		if slot.replica != nil {
			info.Replica = slot.replica.Addr()
		}
		slot.mu.RUnlock()
		out[i] = info
	}
	return out
}

// Degraded reports whether any shard is quarantined or running on a
// promoted replica.
func (c *Coordinator) Degraded() bool {
	for _, s := range c.Topology() {
		if s.Quarantined || s.Promoted {
			return true
		}
	}
	return false
}

// persistState durably records the shard map and the relation directory
// through the Persist hook (no-op without one). Failures are counted, not
// fatal: topology state is reconstructable from flags and PUT traffic.
func (c *Coordinator) persistState() {
	if c.opt.Persist == nil {
		return
	}
	if rel, err := MembershipRelation(c.Topology()); err == nil {
		if err := c.opt.Persist(MembershipRelationName, rel); err != nil {
			c.reg.Counter("cluster_persist_errors_total", nil).Inc()
		}
	}
	if rel, err := c.relationsRelation(); err == nil {
		if err := c.opt.Persist(RelationsRelationName, rel); err != nil {
			c.reg.Counter("cluster_persist_errors_total", nil).Inc()
		}
	}
}

// relationsRelation encodes the relation directory: (name dict, width
// int, rows int).
func (c *Coordinator) relationsRelation() (*relation.Relation, error) {
	schema, err := relation.NewSchema(
		relation.Column{Name: "name", Domain: relation.DictDomain("cluster.relname")},
		relation.Column{Name: "width", Domain: relation.IntDomain("cluster.width")},
		relation.Column{Name: "rows", Domain: relation.IntDomain("cluster.rows")},
	)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var tuples []relation.Tuple
	for name, w := range c.widths {
		e, err := schema.Col(0).Domain.EncodeString(name)
		if err != nil {
			return nil, err
		}
		tuples = append(tuples, relation.Tuple{e, relation.Element(w), relation.Element(c.rows[name])})
	}
	return relation.NewRelation(schema, tuples)
}

// ReconcileMembership replays a recovered shard map (the persisted
// MembershipRelationName relation) onto the flag-configured topology.
// When the persisted primary of a shard is the address configured as its
// replica, a promotion happened in a previous run: it is re-applied, so a
// coordinator restart does not resurrect a dead ex-primary.
//
// On boot, call RestoreDirectory BEFORE this: a reconcile that changes
// the topology re-persists the coordinator's whole state — including the
// relation directory — and would overwrite the not-yet-restored
// directory with an empty one.
func (c *Coordinator) ReconcileMembership(rel *relation.Relation) error {
	if rel == nil || rel.Width() != 4 {
		return fmt.Errorf("cluster: malformed membership relation")
	}
	type primaryRow struct {
		addr     string
		promoted bool
	}
	prim := map[int]primaryRow{}
	for i := 0; i < rel.Cardinality(); i++ {
		t := rel.Tuple(i)
		role, err := rel.Schema().Col(1).Domain.DecodeString(t[1])
		if err != nil {
			return err
		}
		if role != "primary" {
			continue
		}
		addr, err := rel.Schema().Col(2).Domain.DecodeString(t[2])
		if err != nil {
			return err
		}
		promoted, err := rel.Schema().Col(3).Domain.DecodeBool(t[3])
		if err != nil {
			return err
		}
		prim[int(t[0])] = primaryRow{addr: addr, promoted: promoted}
	}
	changed := false
	for _, slot := range c.slots {
		p, ok := prim[slot.id]
		if !ok {
			continue
		}
		slot.mu.Lock()
		switch {
		case slot.primary.Addr() == p.addr:
			// Flags agree with the persisted primary. If the operator also
			// configured a fresh replica, failover headroom is restored and
			// the old promotion is fully absorbed; with no replica, keep the
			// promoted mark so /healthz still reports the lost headroom.
			if p.promoted && !slot.promoted && slot.replica == nil {
				slot.promoted = true
				changed = true
			}
		case slot.replica != nil && slot.replica.Addr() == p.addr:
			slot.promote()
			changed = true
		}
		slot.mu.Unlock()
	}
	if changed {
		c.persistState()
	}
	return nil
}

// RestoreDirectory re-seeds the width/row directory from a recovered
// RelationsRelationName relation (decoded through whatever domains it was
// recovered with) — it restores the width oracle after a coordinator
// restart.
func (c *Coordinator) RestoreDirectory(rel *relation.Relation) error {
	if rel == nil || rel.Width() != 3 {
		return fmt.Errorf("cluster: malformed relation directory")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < rel.Cardinality(); i++ {
		t := rel.Tuple(i)
		name, err := rel.Schema().Col(0).Domain.DecodeString(t[0])
		if err != nil {
			return err
		}
		c.widths[name] = int(t[1])
		c.rows[name] = int(t[2])
	}
	return nil
}
