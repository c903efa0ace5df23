// Command systolicdb runs a single relational operation on the systolic
// array simulator and prints the result relation plus simulation
// statistics.
//
// Relations are generated with the deterministic workload generators, so
// runs are reproducible from the command line alone:
//
//	systolicdb -op intersect -n 20 -m 2 -overlap 0.5
//	systolicdb -op dedup -n 30 -m 2 -dup 0.6
//	systolicdb -op join -n 16 -m 3 -match 2
//	systolicdb -op theta-join -n 10 -m 2 -theta ">"
//	systolicdb -op divide -n 8 -divisor 4 -coverage 0.5
//	systolicdb -op union -n 12 -m 2 -overlap 0.3
//	systolicdb -op project -n 20 -m 3
//	systolicdb -op difference -n 20 -m 2 -overlap 0.5
//	systolicdb -op select -n 50 -m 2                  # logic-per-track disk (§9)
//	systolicdb -op match -pattern "pu?se" -text "..." # pattern-match chip (§8)
//
// -op query can also run over relations loaded from table files instead of
// the generated workload, using the same loader as the systolicdbd daemon:
//
//	systolicdb -op query -rel emp=emp.tbl -rel dept=dept.tbl \
//	    -q "project(join(scan(emp), scan(dept), 1=0), 0)"
//
// -op fsck validates a systolicdbd -data-dir offline: every write-ahead
// log frame's CRC, every record's syntax, every relation's decodability
// and logged checksum, and snapshot integrity, with per-file CRC
// coverage in the report. Exit status 0 means the directory would
// recover cleanly. Adding -repair quarantines hard-corrupt files into
// the corrupt/ subdirectory (lossy: their records are abandoned in
// quarantine) so the daemon boots again.
//
//	systolicdb -op fsck -data-dir /var/lib/systolicdb
//	systolicdb -op fsck -data-dir /var/lib/systolicdb -repair
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"systolicdb/internal/bitset"
	"systolicdb/internal/cells"
	"systolicdb/internal/fault"
	"systolicdb/internal/join"
	"systolicdb/internal/lptdisk"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/patternmatch"
	"systolicdb/internal/perf"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
	"systolicdb/internal/server"
	"systolicdb/internal/systolic"
	"systolicdb/internal/workload"
)

// validOps lists every supported -op mode; the usage string and the
// unknown-operation error both derive from it so they cannot drift apart.
const validOps = "intersect | difference | union | dedup | project | join | theta-join | divide | select | match | query | fsck"

func main() {
	var (
		op         = flag.String("op", "intersect", "operation: "+validOps)
		backendFl  = flag.String("backend", "pulse", "execution backend: pulse (cycle-faithful simulator) | bitset (word-parallel)")
		n          = flag.Int("n", 16, "tuples per relation")
		m          = flag.Int("m", 2, "elements per tuple")
		seed       = flag.Int64("seed", 1, "workload seed")
		overlap    = flag.Float64("overlap", 0.5, "intersection/union overlap fraction")
		dup        = flag.Float64("dup", 0.5, "duplication rate for dedup")
		match      = flag.Float64("match", 1, "join match factor")
		theta      = flag.String("theta", ">", "θ-join operator: = != < <= > >=")
		divisor    = flag.Int("divisor", 4, "divisor size for divide")
		coverage   = flag.Float64("coverage", 0.5, "divisor coverage for divide")
		pattern    = flag.String("pattern", "systolic", "pattern for -op match ('?' is a wildcard)")
		text       = flag.String("text", "systolic arrays pump data as the heart pumps blood", "text for -op match")
		q          = flag.String("q", "", "plan for -op query, e.g. \"project(join(scan(A), scan(B), 0=0), 0)\"")
		dataDir    = flag.String("data-dir", "", "for -op fsck: the systolicdbd data directory to validate")
		repair     = flag.Bool("repair", false, "for -op fsck: quarantine hard-corrupt files into corrupt/ so the directory recovers (lossy)")
		onMach     = flag.Bool("machine", false, "run -op query on the §9 crossbar machine and print the schedule")
		quiet      = flag.Bool("quiet", false, "suppress relation dumps, print stats only")
		metrics    = flag.Bool("metrics", false, "emit the run's metrics registry (text and JSON) after the result")
		faultSpec  = flag.String("fault", "", "inject faults into machine devices; "+fault.SpecHelp())
		verifySpec = flag.String("verify", "", "per-tile verification for machine runs: none | checksum | dual (default checksum when -fault is set)")
		retries    = flag.Int("retries", 0, "max attempts per tile on machine runs (0 = policy default)")
		quarAfter  = flag.Int("quarantine-after", 0, "consecutive failures before a device is quarantined (0 = default)")
		rels       server.RelSpecs
	)
	flag.Var(&rels, "rel", "for -op query: load a base relation, name=file.tbl (repeatable; replaces the generated A/B pair)")
	flag.Parse()

	backend, err := machine.ParseBackend(*backendFl)
	var fc *machine.FaultConfig
	if err == nil {
		fc, err = machine.ParseFaultConfig(*faultSpec, *verifySpec, *retries, *quarAfter)
	}
	if err == nil && fc != nil && *op != "query" {
		err = fmt.Errorf("-fault/-verify/-retries apply to machine execution: use -op query (with -machine)")
	}
	if err == nil && fc != nil && backend == machine.BackendBitset {
		err = fmt.Errorf("-fault applies to the pulse backend: the bitset backend has no simulated cells to corrupt")
	}
	if err == nil {
		switch *op {
		case "match":
			err = runMatch(*pattern, *text)
		case "fsck":
			err = runFsck(os.Stdout, *dataDir, *repair)
		case "query":
			err = runQuery(*q, *n, *m, *seed, *match, rels, fc, backend, *onMach, *quiet, *metrics)
		default:
			err = run(*op, backend, *n, *m, *seed, *overlap, *dup, *match, *theta, *divisor, *coverage, *quiet)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "systolicdb:", err)
		os.Exit(1)
	}
	if *metrics {
		if err := dumpMetrics(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "systolicdb:", err)
			os.Exit(1)
		}
	}
}

// dumpMetrics writes the process-wide metrics registry as a text exposition
// followed by a JSON document, giving every CLI run a machine-readable cost
// profile.
func dumpMetrics(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "\n=== metrics (text) ==="); err != nil {
		return err
	}
	if err := obs.Default.WriteText(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "=== metrics (json) ==="); err != nil {
		return err
	}
	return obs.Default.WriteJSON(w)
}

func printStats(st systolic.Stats) {
	fmt.Printf("pulses:       %d\n", st.Pulses)
	fmt.Printf("processors:   %d\n", st.Cells)
	fmt.Printf("utilization:  %.3f\n", st.Utilization())
	fmt.Printf("modeled time: %v (conservative 1980 NMOS, %v per pulse)\n",
		perf.Conservative1980.PulseTime(st.Pulses), perf.Conservative1980.ComparisonTime)
}

func dump(label string, r *relation.Relation, quiet bool) {
	if quiet {
		fmt.Printf("%s: %d tuples\n", label, r.Cardinality())
		return
	}
	fmt.Printf("%s (%d tuples):\n%s\n", label, r.Cardinality(), r)
}

// parseTheta maps the -theta flag to a comparison-cell operator.
func parseTheta(theta string) (cells.Op, error) {
	switch theta {
	case "=":
		return cells.EQ, nil
	case "!=":
		return cells.NE, nil
	case "<":
		return cells.LT, nil
	case "<=":
		return cells.LE, nil
	case ">":
		return cells.GT, nil
	case ">=":
		return cells.GE, nil
	}
	return 0, fmt.Errorf("unknown θ operator %q", theta)
}

// run runs one plain operation over a deterministic generated workload: a
// one-node plan over the generated relations, through the same executor as
// -op query. The two backends are directly comparable from the command
// line: identical flags, identical inputs, identical result rows — only the
// cost unit differs (pulses or word ops).
func run(op string, backend machine.Backend, n, m int, seed int64, overlap, dup, match float64, theta string, divisorN int, coverage float64, quiet bool) error {
	var (
		a, b   *relation.Relation // b stays nil for the one-operand operations
		plan   query.Node
		label  = "result"
		aName  = "A"
		bName  = "B"
		err    error
		sa, sb = query.Scan{Name: "A"}, query.Scan{Name: "B"}
	)
	switch op {
	case "intersect", "difference", "union":
		a, b, err = workload.OverlapPair(seed, n, m, overlap)
		switch op {
		case "intersect":
			plan = query.Intersect{L: sa, R: sb}
		case "difference":
			plan = query.Difference{L: sa, R: sb}
		default:
			label = "A ∪ B"
			plan = query.Union{L: sa, R: sb}
		}

	case "dedup":
		a, err = workload.WithDuplicates(seed, n, m, dup)
		label = "dedup(A)"
		plan = query.Dedup{Child: sa}

	case "project":
		a, err = workload.Uniform(seed, n, m, 4)
		cols := []int{0}
		if m > 1 {
			cols = []int{0, 1}
		}
		label = fmt.Sprintf("π%v(A)", cols)
		plan = query.Project{Child: sa, Cols: cols}

	case "join", "theta-join":
		spec := join.Spec{ACols: []int{0}, BCols: []int{0}}
		label = "A ⋈ B"
		if op == "theta-join" {
			thetaOp, err := parseTheta(theta)
			if err != nil {
				return err
			}
			spec.Ops = []cells.Op{thetaOp}
			label = fmt.Sprintf("A ⋈[%s] B", theta)
		}
		a, b, err = workload.JoinPair(seed, n, n, m, match)
		plan = query.Join{L: sa, R: sb, Spec: spec}

	case "divide":
		a, b, err = workload.DivisionCase(seed, n, divisorN, coverage)
		aName, bName, label = "A (dividend)", "B (divisor)", "A ÷ B"
		plan = query.Divide{L: sa, R: sb, AQuot: []int{0}, ADiv: []int{1}, BCols: []int{0}}

	case "select":
		if backend == machine.BackendBitset {
			return fmt.Errorf("-backend bitset does not apply to -op select: it runs on dedicated hardware (no word-parallel analogue)")
		}
		return runSelect(n, m, seed, quiet)

	default:
		return fmt.Errorf("unknown operation %q (valid: %s)", op, validOps)
	}
	if err != nil {
		return err
	}
	var st query.ExecStats
	res, err := query.ExecuteCtx(context.Background(), plan, query.Catalog{"A": a, "B": b},
		&query.Options{Stats: &st, Backend: backend})
	if err != nil {
		return err
	}
	dump(aName, a, quiet)
	if b != nil {
		dump(bName, b, quiet)
	}
	dump(label, res, quiet)
	if op == "join" {
		// One result row per TRUE t_ij of the match matrix.
		fmt.Printf("matches: %d of %d candidate pairs\n", res.Cardinality(), a.Cardinality()*b.Cardinality())
	}
	if backend == machine.BackendBitset {
		fmt.Printf("word ops:     %d (up to %d T-matrix lanes per word op)\n", st.WordOps, bitset.Lanes)
		return nil
	}
	fmt.Printf("pulses:       %d\n", st.Pulses)
	fmt.Printf("modeled time: %v (conservative 1980 NMOS, %v per pulse)\n",
		perf.Conservative1980.PulseTime(st.Pulses), perf.Conservative1980.ComparisonTime)
	return nil
}

// runSelect is -op select: a constant-comparison selection evaluated by
// the heads of a logic-per-track disk (§9), not by a systolic array.
func runSelect(n, m int, seed int64, quiet bool) error {
	a, err := workload.Uniform(seed, n, m, 10)
	if err != nil {
		return err
	}
	d, err := lptdisk.New(32, perf.Disk1980)
	if err != nil {
		return err
	}
	if err := d.Store(a); err != nil {
		return err
	}
	res, st, err := d.Select(relation.Query{{Col: 0, Op: cells.LT, Value: 5}})
	if err != nil {
		return err
	}
	dump("A", a, quiet)
	dump("σ[c0 < 5](A)", res, quiet)
	fmt.Printf("logic-per-track scan: %d tracks, %d revolution(s), %v\n",
		st.TracksScanned, st.Revolutions, st.Time)
	return nil
}

// runQuery parses and runs a plan. The catalog is either the relations
// named by -rel flags (loaded from table files with the daemon's loader, so
// dictionary/date columns stay union-compatible across files) or, with no
// -rel flags, a generated pair: A and B are join-workload relations of n
// tuples and m columns. With metrics enabled and no -machine flag, the plan
// is additionally compiled and run on the default §9 machine (result
// discarded) so the emitted cost profile covers device busy time and tile
// scheduling as well as the host executor's per-node spans.
func runQuery(src string, n, m int, seed int64, match float64, rels server.RelSpecs,
	fc *machine.FaultConfig, backend machine.Backend, onMachine, quiet, metrics bool) error {
	if src == "" {
		return fmt.Errorf("-op query needs -q \"<plan>\" (e.g. \"intersect(scan(A), scan(B))\")")
	}
	if fc != nil && !onMachine && !metrics {
		return fmt.Errorf("-fault needs -machine (or -metrics): the host executor has no cells to corrupt")
	}
	plan, err := query.Parse(src)
	if err != nil {
		return err
	}
	cat, err := queryCatalog(rels, n, m, seed, match)
	if err != nil {
		return err
	}
	fmt.Printf("plan:      %s\n", query.Render(plan))
	plan, err = query.Optimize(plan, cat)
	if err != nil {
		return err
	}
	fmt.Printf("optimized: %s\n", query.Render(plan))
	if !onMachine {
		var st query.ExecStats
		res, err := query.ExecuteCtx(context.Background(), plan, cat,
			&query.Options{Stats: &st, Backend: backend})
		if err != nil {
			return err
		}
		dumpResult(res, len(rels) > 0, quiet)
		if backend == machine.BackendBitset {
			fmt.Printf("word ops:  %d\n", st.WordOps)
		} else {
			fmt.Printf("pulses:    %d\n", st.Pulses)
		}
		if metrics {
			if _, err := runOnMachine(plan, cat, fc, backend, quiet, false); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := runOnMachine(plan, cat, fc, backend, quiet, true)
	if err != nil {
		return err
	}
	fmt.Println()
	return res.RenderGantt(os.Stdout, 72)
}

// dumpResult prints a query result. File-loaded relations carry decodable
// domains (dictionaries, dates), so their results render as a decoded table
// rather than the raw §2.3 integer encoding.
func dumpResult(r *relation.Relation, decoded, quiet bool) {
	if quiet || !decoded {
		dump("result", r, quiet)
		return
	}
	fmt.Printf("result (%d tuples):\n", r.Cardinality())
	if err := relation.FormatTable(os.Stdout, r); err != nil {
		fmt.Printf("  <%v>\n", err)
	}
}

// queryCatalog builds the catalog for -op query: table files when -rel
// flags were given, the generated A/B join pair otherwise.
func queryCatalog(rels server.RelSpecs, n, m int, seed int64, match float64) (query.Catalog, error) {
	if len(rels) > 0 {
		c := server.NewCatalog()
		if err := rels.LoadInto(c); err != nil {
			return nil, err
		}
		for _, name := range c.Names() {
			r, _ := c.Get(name)
			fmt.Printf("loaded %s: %d tuples, %d columns\n", name, r.Cardinality(), r.Width())
		}
		return c.Snapshot(), nil
	}
	a, b, err := workload.JoinPair(seed, n, n, m, match)
	if err != nil {
		return nil, err
	}
	return query.Catalog{"A": a, "B": b}, nil
}

// runOnMachine compiles the plan onto the default 1980 machine (with
// fault-tolerant execution when fc is non-nil) and runs the transaction,
// optionally dumping the result relation. Devices that turn bad mid-run are
// reported so the operator sees the degradation the schedule absorbed.
func runOnMachine(plan query.Node, cat query.Catalog, fc *machine.FaultConfig,
	backend machine.Backend, quiet, show bool) (*machine.Result, error) {
	tasks, out, err := query.Compile(plan, cat)
	if err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig1980(64, fc)
	cfg.Backend = backend
	mach, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := mach.Run(tasks)
	if err != nil {
		return nil, err
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	if h := mach.Health(); h != nil {
		if quar := h.QuarantinedNames(); len(quar) > 0 {
			fmt.Printf("quarantined devices: %v\n", quar)
		}
	}
	if show {
		dump("result", res.Relations[out], quiet)
	}
	return res, nil
}

func runMatch(pattern, text string) error {
	pos, st, err := patternmatch.MatchString(pattern, text)
	if err != nil {
		return err
	}
	fmt.Printf("pattern %q in %q\n", pattern, text)
	fmt.Printf("matches at: %v\n", pos)
	printStats(st)
	return nil
}
