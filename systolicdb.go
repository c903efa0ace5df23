// Package systolicdb is a faithful software reproduction of the systolic
// (VLSI) arrays for relational database operations of H. T. Kung and Philip
// L. Lehman (CMU-CS-80-114, SIGMOD 1980).
//
// Every relational operation is executed by a cycle-accurate simulation of
// the corresponding systolic processor array from the paper:
//
//   - Intersect / Difference — the intersection array of §4 (a 2-D
//     comparison array plus a linear accumulation array);
//   - RemoveDuplicates / Union / Project — the remove-duplicates array of
//     §5 (the same hardware with triangle-masked initial inputs);
//   - Join (equi, multi-column, θ) — the join array of §6;
//   - Divide — the dividend/divisor array pair of §7;
//   - Compare — the linear tuple-comparison array of §3.1.
//
// Results carry simulation statistics (pulses, processor activations,
// utilization) and a modelled wall-clock time under the paper's §8 NMOS
// technology parameters. Fixed-size physical arrays with §8 problem
// decomposition are available through Device; the §9 integrated machine
// (crossbar switch, memories, disk, several systolic devices) is available
// through Machine and the query plan compiler.
//
// Relations follow the paper's data model (§2): tuples of integer-encoded
// elements, with Domain providing the reversible encodings for strings,
// booleans and dates, and union-compatibility enforced where the paper
// requires it.
package systolicdb

import (
	"time"

	"systolicdb/internal/cells"
	"systolicdb/internal/comparison"
	"systolicdb/internal/decompose"
	"systolicdb/internal/dedup"
	"systolicdb/internal/division"
	"systolicdb/internal/intersect"
	"systolicdb/internal/join"
	"systolicdb/internal/machine"
	"systolicdb/internal/patternmatch"
	"systolicdb/internal/perf"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
	"systolicdb/internal/systolic"
)

// Data-model types (paper §2).
type (
	// Element is a single integer-encoded value (§2.3).
	Element = relation.Element
	// Tuple is an ordered sequence of elements.
	Tuple = relation.Tuple
	// Schema describes the columns of a relation.
	Schema = relation.Schema
	// Column is one attribute: a name and an underlying domain.
	Column = relation.Column
	// Domain is an underlying domain with a reversible integer encoding.
	Domain = relation.Domain
	// Relation is a multi-relation: an ordered list of tuples, duplicates
	// permitted (§2.5).
	Relation = relation.Relation
)

// Domain constructors.
var (
	// IntDomain returns a domain of integers encoded as themselves.
	IntDomain = relation.IntDomain
	// DictDomain returns a domain that interns strings.
	DictDomain = relation.DictDomain
	// BoolDomain returns a domain encoding booleans as 0/1.
	BoolDomain = relation.BoolDomain
	// DateDomain returns a domain encoding dates as days since epoch.
	DateDomain = relation.DateDomain
)

// NewSchema builds a schema from columns; see relation.NewSchema.
func NewSchema(cols ...Column) (*Schema, error) { return relation.NewSchema(cols...) }

// NewRelation builds a relation over a schema; see relation.NewRelation.
func NewRelation(s *Schema, tuples []Tuple) (*Relation, error) {
	return relation.NewRelation(s, tuples)
}

// Op is a θ-join comparison operator (§6.3.2).
type Op = cells.Op

// θ-join operators.
const (
	EQ = cells.EQ
	NE = cells.NE
	LT = cells.LT
	LE = cells.LE
	GT = cells.GT
	GE = cells.GE
)

// JoinSpec selects the join columns and per-column operators (§6.3).
type JoinSpec = join.Spec

// Stats summarises a systolic simulation run.
type Stats struct {
	// Pulses is the number of synchronous array pulses executed.
	Pulses int
	// Cells is the number of processors in the array.
	Cells int
	// CellSteps is Pulses x Cells.
	CellSteps int
	// ActiveSteps counts cell-pulses with work present.
	ActiveSteps int
	// Utilization is ActiveSteps / CellSteps (§8 discusses why the
	// two-moving-streams arrays sit near 1/2).
	Utilization float64
	// ModeledTime is the run's wall-clock time under the paper's
	// conservative 1980 NMOS technology (§8): one pulse per comparison
	// interval.
	ModeledTime time.Duration
	// Tiles counts §8 decomposition passes (1 when the problem fit the
	// array; 0 for degenerate empty runs).
	Tiles int
}

func newStats(s systolic.Stats) Stats {
	return Stats{
		Pulses:      s.Pulses,
		Cells:       s.Cells,
		CellSteps:   s.CellSteps,
		ActiveSteps: s.ActiveSteps,
		Utilization: s.Utilization(),
		ModeledTime: perf.Conservative1980.PulseTime(s.Pulses),
		Tiles:       min(1, s.Pulses),
	}
}

func newTiledStats(s decompose.Stats) Stats {
	out := Stats{
		Pulses:      s.Pulses,
		CellSteps:   s.CellSteps,
		ActiveSteps: s.ActiveSteps,
		ModeledTime: perf.Conservative1980.PulseTime(s.Pulses),
		Tiles:       s.Tiles,
	}
	if s.CellSteps > 0 {
		out.Utilization = float64(s.ActiveSteps) / float64(s.CellSteps)
	}
	return out
}

// Result is the outcome of a relational operation: the output relation and
// the simulation statistics of the array run that produced it.
type Result struct {
	Relation *Relation
	Stats    Stats
}

// Compare tests two tuples for equality on the linear comparison array of
// §3.1 (m processors, m pulses).
func Compare(a, b Tuple) (bool, Stats, error) {
	eq, st, err := comparison.CompareTuples(a, b)
	return eq, newStats(st), err
}

// Intersect computes A ∩ B on the intersection array (§4). The relations
// must be union-compatible.
func Intersect(a, b *Relation) (*Result, error) {
	res, err := intersect.Intersection(a, b)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: res.Rel, Stats: newStats(res.Stats)}, nil
}

// Difference computes A - B on the intersection array with the inverted
// output of §4.3.
func Difference(a, b *Relation) (*Result, error) {
	res, err := intersect.Difference(a, b)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: res.Rel, Stats: newStats(res.Stats)}, nil
}

// RemoveDuplicates turns a multi-relation into a relation on the
// remove-duplicates array (§5), keeping the first occurrence of each tuple.
func RemoveDuplicates(a *Relation) (*Result, error) {
	res, err := dedup.RemoveDuplicates(a)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: res.Rel, Stats: newStats(res.Stats)}, nil
}

// Union computes A ∪ B as remove-duplicates(A + B) (§5).
func Union(a, b *Relation) (*Result, error) {
	res, err := dedup.Union(a, b)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: res.Rel, Stats: newStats(res.Stats)}, nil
}

// Project projects A onto the given column indices and removes duplicates
// on the remove-duplicates array (§5).
func Project(a *Relation, cols []int) (*Result, error) {
	res, err := dedup.Project(a, cols)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: res.Rel, Stats: newStats(res.Stats)}, nil
}

// ProjectNames is Project with columns selected by name.
func ProjectNames(a *Relation, names []string) (*Result, error) {
	res, err := dedup.ProjectNames(a, names)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: res.Rel, Stats: newStats(res.Stats)}, nil
}

// Join computes the join of A and B under spec on the join array (§6).
// Equi-joins omit the redundant join columns of B; θ-joins keep both sides'
// columns.
func Join(a, b *Relation, spec JoinSpec) (*Result, error) {
	res, err := join.Join(a, b, spec)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: res.Rel, Stats: newStats(res.Stats)}, nil
}

// EquiJoin is the single-column equi-join of §6.1.
func EquiJoin(a, b *Relation, aCol, bCol int) (*Result, error) {
	return Join(a, b, JoinSpec{ACols: []int{aCol}, BCols: []int{bCol}})
}

// ThetaJoin is the single-column θ-join of §6.3.2.
func ThetaJoin(a, b *Relation, aCol, bCol int, op Op) (*Result, error) {
	return Join(a, b, JoinSpec{ACols: []int{aCol}, BCols: []int{bCol}, Ops: []Op{op}})
}

// Divide computes A ÷ B over column groups on the division array (§7):
// aQuot are the quotient columns of A, aDiv the divided columns, bCols the
// corresponding divisor columns. Multi-column groups are reduced to the
// restricted binary/unary array by composite interning; see DivideHW for
// the multi-column hardware array.
func Divide(a, b *Relation, aQuot, aDiv, bCols []int) (*Result, error) {
	res, err := division.Divide(a, b, aQuot, aDiv, bCols)
	if err != nil {
		return nil, err
	}
	st := res.Stats
	st.Pulses += res.Dedup.Pulses // include the x-identification pass
	return &Result{Relation: res.Rel, Stats: newStats(st)}, nil
}

// DivideHW computes A ÷ B on the multi-column hardware division array —
// §7's "extension from this to the general case is straightforward (as in
// the preceding section on the join)" realised with one processor column
// per group column and frame-coherent divisor groups. Results equal Divide;
// the dataflow is the hardware the sentence implies.
func DivideHW(a, b *Relation, aQuot, aDiv, bCols []int) (*Result, error) {
	res, err := division.DivideHW(a, b, aQuot, aDiv, bCols)
	if err != nil {
		return nil, err
	}
	st := res.Stats
	st.Pulses += res.Dedup.Pulses
	return &Result{Relation: res.Rel, Stats: newStats(st)}, nil
}

// Device is a fixed-size physical systolic array. Problems that do not fit
// are decomposed into tiles per §8 and executed pass by pass; results are
// identical to the unbounded arrays.
type Device struct {
	tiler decompose.Tiler
}

// NewDevice builds a device that accepts at most maxA tuples of A and maxB
// tuples of B per pass.
func NewDevice(maxA, maxB int) (*Device, error) {
	size := decompose.ArraySize{MaxA: maxA, MaxB: maxB}
	if _, _, err := decompose.TiledT(nil, nil, nil, size); err != nil {
		return nil, err
	}
	return &Device{tiler: decompose.Tiler{Size: size}}, nil
}

// Tiles returns the number of passes an nA x nB problem needs on this
// device.
func (d *Device) Tiles(nA, nB int) int { return d.tiler.Size.Tiles(nA, nB) }

// Intersect computes A ∩ B with decomposition.
func (d *Device) Intersect(a, b *Relation) (*Result, error) {
	rel, st, err := d.tiler.Intersection(a, b)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: rel, Stats: newTiledStats(st)}, nil
}

// Difference computes A - B with decomposition.
func (d *Device) Difference(a, b *Relation) (*Result, error) {
	rel, st, err := d.tiler.Difference(a, b)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: rel, Stats: newTiledStats(st)}, nil
}

// RemoveDuplicates removes duplicates with decomposition.
func (d *Device) RemoveDuplicates(a *Relation) (*Result, error) {
	rel, st, err := d.tiler.RemoveDuplicates(a)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: rel, Stats: newTiledStats(st)}, nil
}

// Join computes a join with decomposition.
func (d *Device) Join(a, b *Relation, spec JoinSpec) (*Result, error) {
	if err := spec.Validate(a, b); err != nil {
		return nil, err
	}
	t, st, err := d.tiler.T(join.Keys(a, spec.ACols), join.Keys(b, spec.BCols), spec.Ops, nil)
	if err != nil {
		return nil, err
	}
	rel, _, err := join.Materialize(a, b, spec, t)
	if err != nil {
		return nil, err
	}
	return &Result{Relation: rel, Stats: newTiledStats(st)}, nil
}

// Machine-level API (§9). The types are aliases of the internal machine and
// query packages, reachable only through this package.
type (
	// Machine is the §9 integrated systolic database system.
	Machine = machine.Machine
	// MachineConfig configures memories, devices, technology and disk.
	MachineConfig = machine.Config
	// MachineDevice describes one systolic device on the crossbar.
	MachineDevice = machine.DeviceConfig
	// Task is one step of a machine transaction.
	Task = machine.Task
	// TransactionResult is the outcome of running a transaction.
	TransactionResult = machine.Result

	// PlanNode is a relational-algebra plan node.
	PlanNode = query.Node
	// Catalog maps base-relation names to relations.
	Catalog = query.Catalog

	// DiskPredicate is one comparison a logic-per-track disk head can
	// evaluate on the fly (§9, reference [8]).
	DiskPredicate = relation.Predicate
	// DiskQuery is a conjunction of disk-head predicates.
	DiskQuery = relation.Query
)

// Plan node constructors (aliases of the query package's node types).
type (
	// ScanPlan reads a named base relation.
	ScanPlan = query.Scan
	// IntersectPlan is L ∩ R.
	IntersectPlan = query.Intersect
	// DifferencePlan is L - R.
	DifferencePlan = query.Difference
	// UnionPlan is L ∪ R.
	UnionPlan = query.Union
	// DedupPlan removes duplicates.
	DedupPlan = query.Dedup
	// ProjectPlan projects onto columns.
	ProjectPlan = query.Project
	// JoinPlan joins under a spec.
	JoinPlan = query.Join
	// DividePlan divides over column groups.
	DividePlan = query.Divide
	// SelectPlan filters through a logic-per-track disk query (§9); on
	// the machine its child must be a ScanPlan, because the selection
	// happens at the disk heads during the load.
	SelectPlan = query.Select
)

// NewMachine1980 builds a Figure 9-1-shaped machine (three memories; one
// intersection, join and division device of the given per-pass capacity)
// with the paper's conservative 1980 technology and disk.
func NewMachine1980(arraySize int) (*Machine, error) {
	return machine.Default1980(arraySize)
}

// NewMachine builds a machine from an explicit configuration.
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// ExecutePlan evaluates a plan on the host, one systolic array at a time.
func ExecutePlan(n PlanNode, cat Catalog) (*Relation, error) { return query.Execute(n, cat) }

// CompilePlan lowers a plan to a machine transaction; the returned name
// identifies the final output relation in the transaction result.
func CompilePlan(n PlanNode, cat Catalog) ([]Task, string, error) { return query.Compile(n, cat) }

// OptimizePlan rewrites a plan into an equivalent one better suited to the
// machine: selections sink toward scans (becoming logic-per-track disk
// filters), adjacent projections compose, and redundant duplicate-removal
// passes disappear. Results are provably unchanged (see the rule list on
// query.Optimize).
func OptimizePlan(n PlanNode, cat Catalog) (PlanNode, error) { return query.Optimize(n, cat) }

// ParsePlan parses the textual plan algebra used by cmd/systolicdb, e.g.
// "project(join(scan(A), scan(B), 0=0), 0)".
func ParsePlan(src string) (PlanNode, error) { return query.Parse(src) }

// MatchPattern runs the Foster-Kung pattern-match chip (§8: "a scaled-down
// version of the comparison array") on byte strings; '?' in the pattern
// matches any character. It returns the matching start positions and the
// array's simulation statistics.
func MatchPattern(pattern, text string) ([]int, Stats, error) {
	pos, st, err := patternmatch.MatchString(pattern, text)
	return pos, newStats(st), err
}
