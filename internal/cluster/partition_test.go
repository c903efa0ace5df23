package cluster

import (
	"testing"

	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	r1, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := workload.Uniform(1, 4000, 2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for i := 0; i < rel.Cardinality(); i++ {
		s := r1.Locate(HashKey(rel.Tuple(i), nil))
		if s2 := r2.Locate(HashKey(rel.Tuple(i), nil)); s2 != s {
			t.Fatalf("rings over same shard count disagree: %d vs %d", s, s2)
		}
		counts[s]++
	}
	// 4000 tuples over 4 shards: vnode placement is hash-luck, but each
	// shard should hold a sane fraction, not be starved or hot.
	for s, c := range counts {
		if c < 400 || c > 2200 {
			t.Fatalf("shard %d holds %d of 4000 tuples — ring badly unbalanced: %v", s, c, counts)
		}
	}
}

func TestRingLocateMatchesLinearScan(t *testing.T) {
	r, err := NewRingVnodes(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	linear := func(h uint64) int {
		for _, p := range r.points {
			if p.hash >= h {
				return p.shard
			}
		}
		return r.points[0].shard
	}
	for _, h := range []uint64{0, 1, 1 << 32, ^uint64(0), r.points[0].hash, r.points[len(r.points)-1].hash, r.points[len(r.points)-1].hash + 1} {
		if got, want := r.Locate(h), linear(h); got != want {
			t.Fatalf("Locate(%d) = %d, linear scan says %d", h, got, want)
		}
	}
}

func TestRingStabilityAcrossGrowth(t *testing.T) {
	// Consistent hashing: growing 4 → 5 shards should move only a
	// minority of keys, not reshuffle everything (a modulo scheme moves
	// ~80% here).
	r4, _ := NewRing(4)
	r5, _ := NewRing(5)
	rel, err := workload.Uniform(7, 5000, 2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < rel.Cardinality(); i++ {
		if r4.Locate(HashKey(rel.Tuple(i), nil)) != r5.Locate(HashKey(rel.Tuple(i), nil)) {
			moved++
		}
	}
	if frac := float64(moved) / 5000; frac > 0.5 {
		t.Fatalf("growth 4→5 moved %.0f%% of keys — not consistent hashing", frac*100)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Fatal("NewRing(0) should fail")
	}
	if _, err := NewRingVnodes(2, 0); err == nil {
		t.Fatal("NewRingVnodes(2, 0) should fail")
	}
}

func TestPartitionReassembles(t *testing.T) {
	rel, err := workload.WithDuplicates(3, 500, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 5, 8} {
		ring, err := NewRing(shards)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := Partition(rel, ring)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != shards {
			t.Fatalf("%d shards produced %d partitions", shards, len(parts))
		}
		whole := parts[0]
		for _, p := range parts[1:] {
			if whole, err = whole.Concat(p); err != nil {
				t.Fatal(err)
			}
		}
		// Multiset equality: no tuple lost, duplicated, or invented —
		// including the duplicates WithDuplicates planted.
		if !whole.EqualAsMultiset(rel) {
			t.Fatalf("%d-way partition does not reassemble to the original", shards)
		}
	}
}

func TestPartitionColocatesEqualTuples(t *testing.T) {
	rel, err := workload.WithDuplicates(11, 400, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Partition(rel, ring)
	if err != nil {
		t.Fatal(err)
	}
	home := map[string]int{}
	for s, p := range parts {
		for i := 0; i < p.Cardinality(); i++ {
			k := p.Tuple(i).String()
			if prev, seen := home[k]; seen && prev != s {
				t.Fatalf("tuple %s lives on both shard %d and shard %d", k, prev, s)
			}
			home[k] = s
		}
	}
}

func TestPartitionByColocatesKeys(t *testing.T) {
	a, _, err := workload.JoinPair(5, 300, 300, 3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartitionBy(a, []int{0}, ring)
	if err != nil {
		t.Fatal(err)
	}
	home := map[relation.Element]int{}
	for s, p := range parts {
		for i := 0; i < p.Cardinality(); i++ {
			k := p.Tuple(i)[0]
			if prev, seen := home[k]; seen && prev != s {
				t.Fatalf("join key %d split across shards %d and %d", k, prev, s)
			}
			home[k] = s
		}
	}
}

func TestPartitionByValidation(t *testing.T) {
	rel, err := workload.Uniform(1, 10, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := NewRing(2)
	if _, err := PartitionBy(rel, []int{2}, ring); err == nil {
		t.Fatal("out-of-range partition column should fail")
	}
	if _, err := PartitionBy(nil, nil, ring); err == nil {
		t.Fatal("nil relation should fail")
	}
}
