package main

import (
	"fmt"

	"systolicdb/internal/baseline"
	"systolicdb/internal/bitlevel"
	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/decompose"
	"systolicdb/internal/dedup"
	"systolicdb/internal/division"
	"systolicdb/internal/intersect"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

func init() {
	register("E1", "linear comparison array: equality in m pulses (Fig 3-1/3-2)", runE1)
	register("E2", "2-D comparison array pipelines all |A||B| comparisons (Fig 3-3/3-4)", runE2)
	register("E3", "intersection array (Fig 4-1)", runE3)
	register("E4", "difference via inverted accumulator output (§4.3)", runE4)
	register("E5", "remove-duplicates array keeps first occurrences (§5)", runE5)
	register("E6", "union and projection on the remove-duplicates array (§5)", runE6)
	register("E7", "join array, incl. degenerate |A||B| case (Fig 6-1, §6.2)", runE7)
	register("E8", "multi-column and θ-joins (§6.3)", runE8)
	register("E9", "division array on the paper's Fig 7-1 example (§7)", runE9)
	register("E10", "word-level vs bit-level arrays agree (§8)", runE10)
	register("E11", "decomposition onto a fixed-size array (§8)", runE11)
}

func runE1() error {
	for _, m := range []int{1, 4, 16, 64} {
		a := make(relation.Tuple, m)
		for k := range a {
			a[k] = relation.Element(k * 3)
		}
		eq, st, err := comparison.CompareTuples(a, a.Clone())
		if err != nil {
			return err
		}
		b := a.Clone()
		b[m-1]++
		neq, _, err := comparison.CompareTuples(a, b)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("m=%-3d pulses (paper: exactly m)", m), "%d  equal=%v unequal-detected=%v", st.Pulses, eq, !neq)
		if st.Pulses != m || !eq || neq {
			return fmt.Errorf("E1 failed at m=%d", m)
		}
	}
	return nil
}

func runE2() error {
	// The paper's figure uses 3x3 relations; sweep shapes and verify the
	// linear-pulse pipelining claim plus exact T correctness.
	for _, shape := range [][3]int{{3, 3, 3}, {8, 8, 4}, {16, 4, 2}, {4, 16, 2}} {
		nA, nB, m := shape[0], shape[1], shape[2]
		a, err := workload.Uniform(int64(nA), nA, m, 3)
		if err != nil {
			return err
		}
		b, err := workload.Uniform(int64(nB+100), nB, m, 3)
		if err != nil {
			return err
		}
		res, err := comparison.Run2D(a.Tuples(), b.Tuples(), nil, nil, nil)
		if err != nil {
			return err
		}
		want := comparison.ReferenceT(a.Tuples(), b.Tuples(), nil, nil)
		ok := res.T.Equal(want)
		row(fmt.Sprintf("|A|=%d |B|=%d m=%d", nA, nB, m),
			"pulses=%d (linear bound 2·max+min+m-3=%d) T-correct=%v",
			res.Stats.Pulses, res.Sched.TotalPulses(), ok)
		if !ok {
			return fmt.Errorf("E2: T mismatch")
		}
	}
	return nil
}

func runE3() error {
	for _, overlap := range []float64{0, 0.25, 0.5, 0.75, 1} {
		a, b, err := workload.OverlapPair(7, 40, 3, overlap)
		if err != nil {
			return err
		}
		res, err := intersect.Intersection(a, b)
		if err != nil {
			return err
		}
		want := int(overlap*40 + 0.5)
		row(fmt.Sprintf("overlap=%.2f -> |A∩B| (expected %d)", overlap, want),
			"%d  pulses=%d util=%.2f", res.Rel.Cardinality(), res.Stats.Pulses, res.Stats.Utilization())
		if res.Rel.Cardinality() != want {
			return fmt.Errorf("E3: wrong intersection size")
		}
	}
	return nil
}

func runE4() error {
	a, b, err := workload.OverlapPair(8, 40, 3, 0.3)
	if err != nil {
		return err
	}
	inter, err := intersect.Intersection(a, b)
	if err != nil {
		return err
	}
	diff, err := intersect.Difference(a, b)
	if err != nil {
		return err
	}
	row("|A∩B| + |A-B| == |A| (partition property)", "%d + %d == %d",
		inter.Rel.Cardinality(), diff.Rel.Cardinality(), a.Cardinality())
	both, err := inter.Rel.Concat(diff.Rel)
	if err != nil {
		return err
	}
	check("difference = A minus intersection", both.EqualAsMultiset(a))
	if !both.EqualAsMultiset(a) {
		return fmt.Errorf("E4: partition violated")
	}
	return nil
}

func runE5() error {
	for _, rate := range []float64{0, 0.3, 0.6, 0.9} {
		a, err := workload.WithDuplicates(9, 40, 2, rate)
		if err != nil {
			return err
		}
		res, err := dedup.RemoveDuplicates(a)
		if err != nil {
			return err
		}
		hostWant := a.Dedup()
		ok := res.Rel.EqualAsMultiset(hostWant) && !res.Rel.HasDuplicates()
		row(fmt.Sprintf("dupRate=%.1f: %d -> %d tuples", rate, a.Cardinality(), res.Rel.Cardinality()),
			"matches-host=%v pulses=%d", ok, res.Stats.Pulses)
		if !ok {
			return fmt.Errorf("E5: dedup mismatch")
		}
	}
	return nil
}

func runE6() error {
	a, b, err := workload.OverlapPair(10, 30, 2, 0.4)
	if err != nil {
		return err
	}
	u, err := dedup.Union(a, b)
	if err != nil {
		return err
	}
	wantU, err := baseline.UnionHash(a, b)
	if err != nil {
		return err
	}
	row("union via remove-duplicates(A+B)", "|A∪B|=%d (want %d) pulses=%d",
		u.Rel.Cardinality(), wantU.Cardinality(), u.Stats.Pulses)
	if !u.Rel.EqualAsSet(wantU) {
		return fmt.Errorf("E6: union mismatch")
	}

	wide, err := workload.Uniform(11, 30, 3, 3)
	if err != nil {
		return err
	}
	p, err := dedup.Project(wide, []int{0, 1})
	if err != nil {
		return err
	}
	wantP, err := baseline.Project(wide, []int{0, 1})
	if err != nil {
		return err
	}
	row("projection + dedup array", "|π(A)|=%d (want %d)", p.Rel.Cardinality(), wantP.Cardinality())
	if !p.Rel.EqualAsSet(wantP) {
		return fmt.Errorf("E6: projection mismatch")
	}
	return nil
}

func runE7() error {
	for _, mf := range []float64{0, 1, 4} {
		a, b, err := workload.JoinPair(12, 24, 24, 2, mf)
		if err != nil {
			return err
		}
		res, err := join.Equi(a, b, 0, 0)
		if err != nil {
			return err
		}
		pairs, err := baseline.JoinPairsHash(a, b, baseline.JoinSpec{ACols: []int{0}, BCols: []int{0}})
		if err != nil {
			return err
		}
		row(fmt.Sprintf("matchFactor=%.0f: TRUE t_ij", mf), "%d (baseline %d) pulses=%d",
			res.Pairs, len(pairs), res.Stats.Pulses)
		if res.Pairs != len(pairs) {
			return fmt.Errorf("E7: pair count mismatch")
		}
	}
	// Degenerate all-match: |C| = |A||B| (§6.2).
	a, b, err := workload.JoinPair(13, 12, 12, 2, 12)
	if err != nil {
		return err
	}
	res, err := join.Equi(a, b, 0, 0)
	if err != nil {
		return err
	}
	row("degenerate all-match: |C| == |A||B|", "%d == %d", res.Pairs, a.Cardinality()*b.Cardinality())
	if res.Pairs != a.Cardinality()*b.Cardinality() {
		return fmt.Errorf("E7: degenerate case wrong")
	}

	// Skew independence: the array's latency is a pure function of
	// |A|, |B| and the key width — Zipf-skewed keys change the output
	// size but not the pulse count (a hardware guarantee).
	za, zb, err := workload.ZipfJoinPair(16, 24, 24, 2, 2.0, 24)
	if err != nil {
		return err
	}
	skewed, err := join.Equi(za, zb, 0, 0)
	if err != nil {
		return err
	}
	ua, ub, err := workload.JoinPair(17, 24, 24, 2, 1)
	if err != nil {
		return err
	}
	uniform, err := join.Equi(ua, ub, 0, 0)
	if err != nil {
		return err
	}
	row("Zipf-skewed vs uniform keys: pairs", "%d vs %d", skewed.Pairs, uniform.Pairs)
	row("Zipf-skewed vs uniform keys: pulses (must be equal)", "%d vs %d",
		skewed.Stats.Pulses, uniform.Stats.Pulses)
	check("array latency is data-independent", skewed.Stats.Pulses == uniform.Stats.Pulses)
	if skewed.Stats.Pulses != uniform.Stats.Pulses {
		return fmt.Errorf("E7: latency varied with data skew")
	}
	return nil
}

func runE8() error {
	// Small shared domain so multi-column keys genuinely collide.
	a, err := workload.Uniform(14, 20, 3, 3)
	if err != nil {
		return err
	}
	b, err := workload.Uniform(15, 20, 3, 3)
	if err != nil {
		return err
	}
	multi, err := join.Join(a, b, join.Spec{ACols: []int{0, 1}, BCols: []int{0, 1}})
	if err != nil {
		return err
	}
	wantMulti, err := baseline.JoinPairsNested(a, b, baseline.JoinSpec{ACols: []int{0, 1}, BCols: []int{0, 1}})
	if err != nil {
		return err
	}
	row("multi-column join pairs", "%d (baseline %d)", multi.Pairs, len(wantMulti))
	if multi.Pairs != len(wantMulti) {
		return fmt.Errorf("E8: multi-column mismatch")
	}

	for _, op := range []cells.Op{cells.LT, cells.LE, cells.GT, cells.GE, cells.NE} {
		res, err := join.Theta(a, b, 0, 0, op)
		if err != nil {
			return err
		}
		want, err := baseline.JoinPairsNested(a, b, baseline.JoinSpec{ACols: []int{0}, BCols: []int{0}, Ops: []cells.Op{op}})
		if err != nil {
			return err
		}
		row(fmt.Sprintf("θ-join %s pairs", op), "%d (baseline %d)", res.Pairs, len(want))
		if res.Pairs != len(want) {
			return fmt.Errorf("E8: θ-join %s mismatch", op)
		}
	}
	return nil
}

func runE9() error {
	// The paper's Figure 7-1 worked example.
	xDom := relation.DictDomain("names")
	yDom := relation.DictDomain("letters")
	enc := func(d *relation.Domain, s string) relation.Element {
		e, err := d.EncodeString(s)
		if err != nil {
			panic(err)
		}
		return e
	}
	aSchema := relation.MustSchema(
		relation.Column{Name: "A1", Domain: xDom},
		relation.Column{Name: "A2", Domain: yDom})
	var aT []relation.Tuple
	for _, p := range [][2]string{
		{"i", "a"}, {"i", "b"}, {"j", "a"}, {"i", "c"}, {"j", "b"},
		{"k", "a"}, {"i", "d"}, {"k", "b"}, {"k", "c"}, {"k", "d"},
	} {
		aT = append(aT, relation.Tuple{enc(xDom, p[0]), enc(yDom, p[1])})
	}
	a := relation.MustRelation(aSchema, aT)
	b := relation.MustRelation(
		relation.MustSchema(relation.Column{Name: "B1", Domain: yDom}),
		[]relation.Tuple{{enc(yDom, "a")}, {enc(yDom, "b")}, {enc(yDom, "c")}, {enc(yDom, "d")}})
	res, err := division.DivideBinary(a, b)
	if err != nil {
		return err
	}
	var got []string
	for i := 0; i < res.Rel.Cardinality(); i++ {
		s, err := xDom.DecodeString(res.Rel.Tuple(i)[0])
		if err != nil {
			return err
		}
		got = append(got, s)
	}
	row("quotient of the Fig 7-1 example (paper: {i, k})", "%v  pulses=%d (+%d dedup)",
		got, res.Stats.Pulses, res.Dedup.Pulses)
	if len(got) != 2 || got[0] != "i" || got[1] != "k" {
		return fmt.Errorf("E9: quotient mismatch")
	}

	// Random divisions against the grouping baseline, on both the
	// restricted array (composite interning for the general case) and
	// the hardware multi-column array (§7's "extension ... as in the
	// join", with frame-coherent divisor groups).
	for _, cov := range []float64{0, 0.5, 1} {
		da, db, err := workload.DivisionCase(15, 10, 4, cov)
		if err != nil {
			return err
		}
		arr, err := division.DivideBinary(da, db)
		if err != nil {
			return err
		}
		hw, err := division.DivideHW(da, db, []int{0}, []int{1}, []int{0})
		if err != nil {
			return err
		}
		want, err := baseline.Divide(da, db, []int{0}, []int{1}, []int{0})
		if err != nil {
			return err
		}
		ok := arr.Rel.EqualAsSet(want) && hw.Rel.EqualAsSet(want)
		row(fmt.Sprintf("coverage=%.1f: |quotient|", cov), "%d (baseline %d, hw-array agrees=%v)",
			arr.Rel.Cardinality(), want.Cardinality(), ok)
		if !ok {
			return fmt.Errorf("E9: random division mismatch")
		}
	}
	return nil
}

func runE10() error {
	a, err := workload.Uniform(16, 10, 2, 16)
	if err != nil {
		return err
	}
	b, err := workload.Uniform(17, 10, 2, 16)
	if err != nil {
		return err
	}
	word, err := comparison.Run2D(a.Tuples(), b.Tuples(), nil, nil, nil)
	if err != nil {
		return err
	}
	for _, width := range []int{4, 8, 16} {
		bit, err := bitlevel.Run2D(a.Tuples(), b.Tuples(), width, nil)
		if err != nil {
			return err
		}
		ok := word.T.Equal(bit.T)
		row(fmt.Sprintf("width=%d bits: T(word) == T(bit)", width),
			"%v  word-pulses=%d bit-pulses=%d", ok, word.Stats.Pulses, bit.Stats.Pulses)
		if !ok {
			return fmt.Errorf("E10: bit-level mismatch at width %d", width)
		}
	}
	return nil
}

func runE11() error {
	a, err := workload.Uniform(18, 50, 2, 4)
	if err != nil {
		return err
	}
	b, err := workload.Uniform(19, 50, 2, 4)
	if err != nil {
		return err
	}
	mono, err := comparison.Run2D(a.Tuples(), b.Tuples(), nil, nil, nil)
	if err != nil {
		return err
	}
	for _, cap := range []int{50, 25, 10, 7} {
		size := decompose.ArraySize{MaxA: cap, MaxB: cap}
		tiled, st, err := decompose.TiledT(a.Tuples(), b.Tuples(), nil, size)
		if err != nil {
			return err
		}
		ok := tiled.Equal(mono.T)
		row(fmt.Sprintf("array cap %2d: tiles (formula %d)", cap, size.Tiles(50, 50)),
			"%d  pulses=%d identical-to-monolithic=%v", st.Tiles, st.Pulses, ok)
		if !ok || st.Tiles != size.Tiles(50, 50) {
			return fmt.Errorf("E11: decomposition wrong at cap %d", cap)
		}
	}
	return nil
}
