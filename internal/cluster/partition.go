// Package cluster generalises the §9 machine's crossbar switch to a
// network: relations are hash-partitioned across N shard daemons, a
// coordinator compiles each query.Plan into per-shard sub-plans, scatters
// them with bounded parallelism, and gathers/merges the partial results.
// The tiling algebra of internal/decompose is what makes this sound —
// intersection, difference, union, duplicate removal and selection all
// decompose over tile (here: shard) boundaries, equi-joins co-partition on
// the join key, and division re-shuffles the dividend onto the quotient
// key while the divisor is gathered to every shard.
//
// Failure handling reuses the PR 3 ladder at cluster granularity:
// per-sub-query retries with backoff, shard quarantine after K consecutive
// failures, and promotion of the shard's WAL-shipped follower, surfaced
// through /healthz as cluster topology.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"systolicdb/internal/chaos"
	"systolicdb/internal/relation"
)

// Ring is a consistent-hash ring mapping tuple hashes to shard indexes.
// Each shard owns Vnodes points on the ring, so shard counts that don't
// divide the hash space still balance, and (the classic consistent-hashing
// property) adding a shard moves only ~1/N of the keys.
//
// The ring is deterministic in the shard count alone: every coordinator —
// and every test — building a ring over N shards produces the same
// tuple→shard map.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// DefaultVnodes is the per-shard virtual-node count used by NewRing.
const DefaultVnodes = 64

// NewRing builds a ring over n shards with DefaultVnodes points each.
func NewRing(n int) (*Ring, error) {
	return NewRingVnodes(n, DefaultVnodes)
}

// NewRingVnodes builds a ring over n shards with v points per shard.
func NewRingVnodes(n, v int) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard, got %d", n)
	}
	if v <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one vnode per shard, got %d", v)
	}
	r := &Ring{shards: n, points: make([]ringPoint, 0, n*v)}
	for s := 0; s < n; s++ {
		for k := 0; k < v; k++ {
			// splitmix64 finalizer over (shard, vnode): structured inputs
			// like these cluster badly under byte-stream hashes, and a
			// clustered ring means a hot shard.
			r.points = append(r.points, ringPoint{hash: chaos.Mix64(uint64(s)<<32 | uint64(k)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard // deterministic on (unlikely) hash ties
	})
	return r, nil
}

// Shards returns the number of shards on the ring.
func (r *Ring) Shards() int { return r.shards }

// Locate maps a hash to its owning shard: the first ring point at or after
// the hash, wrapping at the top.
func (r *Ring) Locate(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return r.points[lo].shard
}

// HashKey hashes the projection of t onto cols (nil = all columns in
// order). Used by the shuffle paths: repartitioning a join side on its
// join key, or a dividend on its quotient columns.
func HashKey(t relation.Tuple, cols []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	write := func(e relation.Element) {
		v := uint64(e)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	if cols == nil {
		for _, e := range t {
			write(e)
		}
	} else {
		for _, c := range cols {
			write(t[c])
		}
	}
	return h.Sum64()
}

// Partition splits rel into one relation per shard by full-tuple hash.
// Every returned relation shares rel's schema; empty partitions are
// present (zero tuples), so indexes align with shard indexes.
func Partition(rel *relation.Relation, r *Ring) ([]*relation.Relation, error) {
	return PartitionBy(rel, nil, r)
}

// PartitionBy splits rel across the ring hashing only cols (nil = all
// columns): the repartitioning primitive behind co-partitioned joins and
// quotient-keyed division.
func PartitionBy(rel *relation.Relation, cols []int, r *Ring) ([]*relation.Relation, error) {
	if rel == nil {
		return nil, fmt.Errorf("cluster: nil relation")
	}
	for _, c := range cols {
		if c < 0 || c >= rel.Width() {
			return nil, fmt.Errorf("cluster: partition column %d out of range for width %d", c, rel.Width())
		}
	}
	parts := make([][]relation.Tuple, r.Shards())
	for i := 0; i < rel.Cardinality(); i++ {
		t := rel.Tuple(i)
		s := r.Locate(HashKey(t, cols))
		parts[s] = append(parts[s], t.Clone())
	}
	out := make([]*relation.Relation, r.Shards())
	for s, tuples := range parts {
		pr, err := relation.NewRelation(rel.Schema(), tuples)
		if err != nil {
			return nil, fmt.Errorf("cluster: building partition %d: %w", s, err)
		}
		out[s] = pr
	}
	return out, nil
}
