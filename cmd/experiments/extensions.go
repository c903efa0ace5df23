package main

import (
	"fmt"
	"strings"

	"math/rand"
	"time"

	"systolicdb/internal/cells"
	"systolicdb/internal/decompose"
	"systolicdb/internal/hex"
	"systolicdb/internal/join"
	"systolicdb/internal/lptdisk"
	"systolicdb/internal/machine"
	"systolicdb/internal/patternmatch"
	"systolicdb/internal/perf"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
	"systolicdb/internal/workload"
)

func init() {
	register("E18", "logic-per-track disk: selection in one revolution (§9, ref [8])", runE18)
	register("E19", "pattern-match chip: scaled-down comparison array (§8, ref [3])", runE19)
	register("E20", "hexagonally connected array: band-matrix multiply (§2.1, ref [5])", runE20)
	register("E21", "device-scaling ablation: makespan vs number of systolic devices (§9)", runE21)
	register("E22", "intra-operator parallelism: one big op's tiles across devices (§9)", runE22)
	register("E23", "VLSI density projection: one to two orders of magnitude (§1)", runE23)
	register("E24", "plan optimizer: selections sink to the disk heads (§9)", runE24)
}

// runE24 measures the machine-level payoff of the plan optimizer. The
// naive plan wraps a defensive dedup around a union of two disk-side
// selections; the optimizer knows the union array already removes
// duplicates (§5) and deletes the extra pass. (Selection sinking itself is
// demonstrated structurally: the rewritten form of select-over-union is
// printed and must compile to disk-side filters.)
func runE24() error {
	a, err := workload.Uniform(77, 1000, 2, 100)
	if err != nil {
		return err
	}
	b, err := workload.Uniform(78, 1000, 2, 100)
	if err != nil {
		return err
	}
	cat := query.Catalog{"A": a, "B": b}

	// Structural half: select-over-union sinks to the scans.
	sunk, err := query.Optimize(query.Select{
		Child: query.Union{L: query.Scan{Name: "A"}, R: query.Scan{Name: "B"}},
		Query: relation.Query{{Col: 0, Op: cells.LT, Value: 10}},
	}, cat)
	if err != nil {
		return err
	}
	row("select(union(A,B)) rewrites to", "%s", query.Render(sunk))
	if _, ok := sunk.(query.Union); !ok {
		return fmt.Errorf("E24: selection did not sink through the union")
	}

	// Makespan half: the redundant-dedup elimination.
	plan := query.Dedup{Child: query.Union{
		L: query.Select{Child: query.Scan{Name: "A"}, Query: relation.Query{{Col: 0, Op: cells.LT, Value: 100}}},
		R: query.Select{Child: query.Scan{Name: "B"}, Query: relation.Query{{Col: 0, Op: cells.LT, Value: 100}}},
	}}

	run := func(p query.Node) (time.Duration, int, error) {
		tasks, out, err := query.Compile(p, cat)
		if err != nil {
			return 0, 0, err
		}
		m, err := machine.Default1980(64)
		if err != nil {
			return 0, 0, err
		}
		res, err := m.Run(tasks)
		if err != nil {
			return 0, 0, err
		}
		return res.Makespan, res.Relations[out].Cardinality(), nil
	}

	naiveSpan, naiveCard, err := run(plan)
	if err != nil {
		return err
	}
	opt, err := query.Optimize(plan, cat)
	if err != nil {
		return err
	}
	optSpan, optCard, err := run(opt)
	if err != nil {
		return err
	}
	row("unoptimized plan", "%s", query.Render(plan))
	row("optimized plan", "%s", query.Render(opt))
	row("unoptimized makespan", "%v (|result|=%d)", naiveSpan, naiveCard)
	row("optimized makespan", "%v (|result|=%d)", optSpan, optCard)
	row("speedup", "%.1fx", float64(naiveSpan)/float64(optSpan))
	check("results identical", naiveCard == optCard)
	check("optimizer speeds up the transaction", optSpan < naiveSpan)
	if optSpan >= naiveSpan || naiveCard != optCard {
		return fmt.Errorf("E24: optimization failed to help or changed results")
	}
	return nil
}

// runE23 evaluates the §1 projection: scaling chip density by 10x and 100x
// scales the device's parallelism and shrinks the §8 intersection time
// proportionally (comparison time held constant — a conservative model).
func runE23() error {
	w := perf.Typical1980
	base := perf.Conservative1980
	prevTime := base.IntersectionTime(w)
	row("LSI 1980 baseline", "%d comparators/chip, intersection %v",
		base.ComparatorsPerChip(), prevTime)
	for _, density := range []float64{10, 100} {
		tech := base.Scaled(density)
		tm := tech.IntersectionTime(w)
		row(fmt.Sprintf("VLSI at %3gx density", density), "%d comparators/chip, intersection %v",
			tech.ComparatorsPerChip(), tm)
		wantRatio := density
		ratio := float64(base.IntersectionTime(w)) / float64(tm)
		if ratio < wantRatio*0.9 || ratio > wantRatio*1.1 {
			return fmt.Errorf("E23: %gx density gave %.1fx speedup", density, ratio)
		}
	}
	check("100x density brings 10^4x10^4 intersection under 1ms", base.Scaled(100).IntersectionTime(w) < time.Millisecond)
	return nil
}

func runE18() error {
	for _, n := range []int{100, 1000, 10000} {
		r, err := workload.Uniform(40, n, 2, 100)
		if err != nil {
			return err
		}
		d, err := lptdisk.New(32, perf.Disk1980)
		if err != nil {
			return err
		}
		if err := d.Store(r); err != nil {
			return err
		}
		sel, st, err := d.Select(relation.Query{{Col: 0, Op: cells.LT, Value: 50}})
		if err != nil {
			return err
		}
		row(fmt.Sprintf("n=%5d: selection time (must be 1 revolution)", n),
			"%v  matched=%d/%d", st.Time, sel.Cardinality(), n)
		if st.Revolutions != 1 || st.Time != perf.Disk1980.RevolutionTime() {
			return fmt.Errorf("E18: selection took %d revolutions", st.Revolutions)
		}
	}

	// End-to-end through the plan compiler: a selection over a scan
	// becomes a single disk pass, never touching a systolic device.
	r, err := workload.Uniform(41, 200, 2, 10)
	if err != nil {
		return err
	}
	cat := query.Catalog{"R": r}
	plan := query.Select{Child: query.Scan{Name: "R"},
		Query: relation.Query{{Col: 1, Op: cells.GE, Value: 5}}}
	host, err := query.Execute(plan, cat)
	if err != nil {
		return err
	}
	tasks, _, err := query.Compile(plan, cat)
	if err != nil {
		return err
	}
	row("plan `select(scan(R))` compiles to", "%d task(s), all at the disk", len(tasks))
	check("host filter and track-head filter agree", func() bool {
		want := 0
		for i := 0; i < r.Cardinality(); i++ {
			if r.Tuple(i)[1] >= 5 {
				want++
			}
		}
		return host.Cardinality() == want
	}())
	if len(tasks) != 1 {
		return fmt.Errorf("E18: selection-over-scan compiled to %d tasks", len(tasks))
	}
	return nil
}

func runE19() error {
	// The fabricated chip's capability: streaming pattern match with
	// wildcards at one alignment per pulse.
	text := strings.Repeat("systolic arrays pulse data like the heart pumps blood; ", 4)
	for _, pat := range []string{"systolic", "pu?se", "heart", "zzz"} {
		pos, st, err := patternmatch.MatchString(pat, text)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("pattern %-10q matches", pat), "%d at %v (pulses=%d, cells=%d)",
			len(pos), head(pos, 4), st.Pulses, st.Cells)
	}

	// Throughput claim: pulses = alignments + pipeline fill (2L), i.e.
	// one alignment per pulse at steady state.
	pat := "abc"
	short, long := strings.Repeat("x", 100), strings.Repeat("x", 200)
	_, stShort, err := patternmatch.MatchString(pat, short)
	if err != nil {
		return err
	}
	_, stLong, err := patternmatch.MatchString(pat, long)
	if err != nil {
		return err
	}
	row("pulse growth for 100 extra characters", "%d (1/pulse steady-state throughput)",
		stLong.Pulses-stShort.Pulses)
	check("throughput is one alignment per pulse", stLong.Pulses-stShort.Pulses == 100)
	return nil
}

func head(xs []int, n int) []int {
	if len(xs) <= n {
		return xs
	}
	return xs[:n]
}

func runE20() error {
	// Dense correctness check against the reference product.
	rngSeed := int64(62)
	n := 6
	a := randomMatrix(rngSeed, n, false)
	b := randomMatrix(rngSeed+1, n, false)
	c, st, err := hex.Multiply(a, b)
	if err != nil {
		return err
	}
	ok := matEqual(c, hex.Reference(a, b))
	row(fmt.Sprintf("dense %dx%d product correct", n, n), "%v  pulses=%d MACs=%d util=%.3f",
		ok, st.Pulses, st.MACs, st.Utilization())
	if !ok {
		return fmt.Errorf("E20: dense product wrong")
	}

	// The [5] band-matrix claim: work scales with the band, not n³.
	nb := 12
	band := randomMatrix(rngSeed+2, nb, true)
	cb, stb, err := hex.Multiply(band, band)
	if err != nil {
		return err
	}
	okb := matEqual(cb, hex.Reference(band, band))
	row(fmt.Sprintf("tridiagonal %dx%d product correct", nb, nb), "%v  MACs=%d (dense would need %d)",
		okb, stb.MACs, nb*nb*nb)
	check("band multiply does far fewer MACs than dense", stb.MACs < nb*nb*nb/3)
	if !okb {
		return fmt.Errorf("E20: band product wrong")
	}
	return nil
}

func randomMatrix(seed int64, n int, band bool) [][]relation.Element {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]relation.Element, n)
	for i := range m {
		m[i] = make([]relation.Element, n)
		for j := range m[i] {
			if band && absInt(i-j) > 1 {
				continue
			}
			m[i][j] = relation.Element(rng.Int63n(9) - 4)
		}
	}
	return m
}

func matEqual(a, b [][]relation.Element) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// runE21 quantifies §9's "several operations may be run concurrently": the
// same four-join transaction on machines with 1, 2 and 4 join devices.
func runE21() error {
	// Four independent, compute-heavy join branches: each join decomposes
	// into 16 tiles on the 64-tuple device, so array time dominates disk
	// time and the device count is the binding resource.
	var tasks []machine.Task
	spec := &join.Spec{ACols: []int{0}, BCols: []int{0}}
	for b := 0; b < 4; b++ {
		a, bb, err := workload.JoinPair(int64(70+b), 200, 200, 2, 1)
		if err != nil {
			return err
		}
		an := fmt.Sprintf("A%d", b)
		bn := fmt.Sprintf("B%d", b)
		tasks = append(tasks,
			machine.Task{Op: machine.OpLoad, Base: a, Output: an},
			machine.Task{Op: machine.OpLoad, Base: bb, Output: bn},
			machine.Task{Op: machine.OpJoin, Inputs: []string{an, bn}, Join: spec,
				Output: fmt.Sprintf("J%d", b)},
		)
	}

	size := decompose.ArraySize{MaxA: 64, MaxB: 64}
	var prev, first float64
	for _, nDev := range []int{1, 2, 4} {
		devs := make([]machine.DeviceConfig, nDev)
		for d := range devs {
			devs[d] = machine.DeviceConfig{Name: fmt.Sprintf("join%d", d), Kind: machine.DevJoin, Size: size}
		}
		m, err := machine.New(machine.Config{
			Memories: 8,
			Devices:  devs,
			Tech:     perf.Conservative1980,
			Disk:     perf.Disk1980,
		})
		if err != nil {
			return err
		}
		// Fresh task IDs per run (machine mutates task IDs).
		run := make([]machine.Task, len(tasks))
		copy(run, tasks)
		for i := range run {
			run[i].ID = ""
		}
		res, err := m.Run(run)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("%d join device(s): makespan / concurrency", nDev),
			"%v / %.2fx", res.Makespan, res.Concurrency())
		cur := float64(res.Makespan)
		if prev != 0 && cur > prev {
			return fmt.Errorf("E21: makespan increased when adding devices")
		}
		if first == 0 {
			first = cur
		}
		prev = cur
	}
	check("second device cuts makespan by >25%", prev < 0.75*first)
	row("saturation", "further devices approach the disk-load floor")
	if prev >= 0.75*first {
		return fmt.Errorf("E21: device scaling did not materialise")
	}
	return nil
}

// runE22 demonstrates §9's sub-relation combination: a single large
// intersection is decomposed (§8) and its tiles are scheduled across all
// intersect devices concurrently, with the partial results combined in
// memory.
func runE22() error {
	a, b, err := workload.OverlapPair(75, 128, 2, 0.5)
	if err != nil {
		return err
	}
	size := decompose.ArraySize{MaxA: 16, MaxB: 16} // 64 tiles
	mk := func(nDev int, tileParallel bool) (*machine.Machine, error) {
		devs := make([]machine.DeviceConfig, nDev)
		for d := range devs {
			devs[d] = machine.DeviceConfig{Name: fmt.Sprintf("i%d", d), Kind: machine.DevIntersect, Size: size}
		}
		return machine.New(machine.Config{
			Memories: 4, Devices: devs,
			Tech: perf.Conservative1980, Disk: perf.Disk1980,
			TileParallel: tileParallel,
		})
	}
	tasks := func() []machine.Task {
		return []machine.Task{
			{Op: machine.OpLoad, Base: a, Output: "A"},
			{Op: machine.OpLoad, Base: b, Output: "B"},
			{Op: machine.OpIntersect, Inputs: []string{"A", "B"}, Output: "C"},
		}
	}
	var serialSpan float64
	for _, cfg := range []struct {
		nDev     int
		parallel bool
		label    string
	}{
		{1, false, "1 device, sequential tiles"},
		{4, false, "4 devices, op pinned to one"},
		{4, true, "4 devices, tiles spread (TileParallel)"},
	} {
		m, err := mk(cfg.nDev, cfg.parallel)
		if err != nil {
			return err
		}
		res, err := m.Run(tasks())
		if err != nil {
			return err
		}
		if err := res.Validate(); err != nil {
			return err
		}
		row(cfg.label, "makespan %v (|C|=%d)", res.Makespan, res.Relations["C"].Cardinality())
		if serialSpan == 0 {
			serialSpan = float64(res.Makespan)
		}
		if cfg.parallel {
			speedup := serialSpan / float64(res.Makespan)
			row("intra-op speedup over single device", "%.2fx", speedup)
			check("tile spreading speeds up the single op >2x", speedup > 2)
			if speedup <= 2 {
				return fmt.Errorf("E22: tile parallelism ineffective")
			}
		}
	}
	return nil
}
