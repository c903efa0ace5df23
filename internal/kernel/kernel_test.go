package kernel

import (
	"testing"

	"systolicdb/internal/cells"
	"systolicdb/internal/decompose"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

// TestAdaptersAgree runs every operator of the table on all three adapters
// over the same inputs — Tiled on a device smaller than the operands, so it
// really decomposes — and requires the same relation from each, a positive
// cost in the adapter's unit, and a per-tile split that sums to the total.
func TestAdaptersAgree(t *testing.T) {
	a, b, err := workload.OverlapPair(21, 20, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := workload.WithDuplicates(22, 20, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	da, db, err := workload.DivisionCase(23, 12, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	type run = func(Kernel) (*relation.Relation, Cost, error)
	ops := map[string]run{
		"intersect":  func(k Kernel) (*relation.Relation, Cost, error) { return k.Intersect(a, b) },
		"difference": func(k Kernel) (*relation.Relation, Cost, error) { return k.Difference(a, b) },
		"union":      func(k Kernel) (*relation.Relation, Cost, error) { return k.Union(a, b) },
		"dedup":      func(k Kernel) (*relation.Relation, Cost, error) { return k.Dedup(dup) },
		"project":    func(k Kernel) (*relation.Relation, Cost, error) { return k.Project(dup, []int{1}) },
		"join": func(k Kernel) (*relation.Relation, Cost, error) {
			return k.Join(a, b, join.Spec{ACols: []int{0}, BCols: []int{0}})
		},
		"theta": func(k Kernel) (*relation.Relation, Cost, error) {
			return k.Join(a, b, join.Spec{ACols: []int{1}, BCols: []int{1}, Ops: []cells.Op{cells.LT}})
		},
		"divide": func(k Kernel) (*relation.Relation, Cost, error) {
			return k.Divide(da, db, []int{0}, []int{1}, []int{0})
		},
	}
	tiled := Tiled{Tiler: decompose.Tiler{Size: decompose.ArraySize{MaxA: 8, MaxB: 8}}}
	for name, op := range ops {
		want, _, err := op(Pulse{})
		if err != nil {
			t.Fatalf("%s on Pulse: %v", name, err)
		}
		for _, k := range []Kernel{Pulse{}, tiled, Bitset{}} {
			got, cost, err := op(k)
			if err != nil {
				t.Fatalf("%s on %T: %v", name, k, err)
			}
			if !got.EqualAsMultiset(want) {
				t.Errorf("%s on %T differs from Pulse:\n%s\nwant:\n%s", name, k, got, want)
			}
			sum := 0
			for _, u := range cost.PerTile {
				sum += u
			}
			// Tiled.Divide also charges the distinct-x dedup run, which is
			// not one of the division tiles.
			if cost.Units <= 0 || cost.Tiles != len(cost.PerTile) || (sum != cost.Units && name != "divide") {
				t.Errorf("%s on %T: inconsistent cost %+v", name, k, cost)
			}
		}
		if _, cost, _ := op(tiled); cost.Tiles < 2 {
			t.Errorf("%s on Tiled ran %d tile(s); the 8x8 device should have decomposed it", name, cost.Tiles)
		}
	}
}
