// Package query provides a small relational-algebra plan representation,
// a host executor that evaluates plans directly on the systolic array
// drivers, and a compiler that lowers plans onto the §9 machine as
// transactions (lists of machine.Task).
//
// The paper's §9 scenario — "to process all of the operations required in a
// single transaction or a set of transactions, an integrated system
// containing several systolic arrays is needed" — is exactly what
// Compile + machine.Run model; the host executor is the single-array,
// operation-at-a-time view used everywhere else in the repository.
package query

import (
	"context"
	"fmt"

	"systolicdb/internal/fault"
	"systolicdb/internal/join"
	"systolicdb/internal/kernel"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/relation"
)

// Node is a relational-algebra plan node.
type Node interface {
	// label returns a short operator name for plan rendering.
	label() string
	children() []Node
	// withChildren returns a copy of the node over kids (as many as
	// children() returns), keeping columns, spec and predicates.
	withChildren(kids []Node) Node
}

// Scan reads a named base relation from the catalog.
type Scan struct{ Name string }

// Intersect is C = L ∩ R.
type Intersect struct{ L, R Node }

// Difference is C = L - R.
type Difference struct{ L, R Node }

// Union is C = L ∪ R.
type Union struct{ L, R Node }

// Dedup removes duplicate tuples from its child.
type Dedup struct{ Child Node }

// Project projects the child onto Cols and removes duplicates.
type Project struct {
	Child Node
	Cols  []int
}

// Join joins L and R under Spec.
type Join struct {
	L, R Node
	Spec join.Spec
}

// Divide divides L by R over the given column groups.
type Divide struct {
	L, R               Node
	AQuot, ADiv, BCols []int
}

// Select filters its child through a logic-per-track disk query (§9's
// "simple queries [that] never have to be processed outside the disks").
// Machine compilation requires the child to be a Scan, because the
// selection physically happens at the disk heads during the load; the host
// executor accepts any child.
type Select struct {
	Child Node
	Query relation.Query
}

func (s Scan) label() string          { return fmt.Sprintf("scan(%s)", s.Name) }
func (Select) label() string          { return "select" }
func (n Select) children() []Node     { return []Node{n.Child} }
func (Intersect) label() string       { return "intersect" }
func (Difference) label() string      { return "difference" }
func (Union) label() string           { return "union" }
func (Dedup) label() string           { return "dedup" }
func (p Project) label() string       { return fmt.Sprintf("project%v", p.Cols) }
func (Join) label() string            { return "join" }
func (Divide) label() string          { return "divide" }
func (Scan) children() []Node         { return nil }
func (n Intersect) children() []Node  { return []Node{n.L, n.R} }
func (n Difference) children() []Node { return []Node{n.L, n.R} }
func (n Union) children() []Node      { return []Node{n.L, n.R} }
func (n Dedup) children() []Node      { return []Node{n.Child} }
func (n Project) children() []Node    { return []Node{n.Child} }
func (n Join) children() []Node       { return []Node{n.L, n.R} }
func (n Divide) children() []Node     { return []Node{n.L, n.R} }

func (n Scan) withChildren([]Node) Node         { return n }
func (n Select) withChildren(k []Node) Node     { n.Child = k[0]; return n }
func (n Dedup) withChildren(k []Node) Node      { n.Child = k[0]; return n }
func (n Project) withChildren(k []Node) Node    { n.Child = k[0]; return n }
func (n Intersect) withChildren(k []Node) Node  { n.L, n.R = k[0], k[1]; return n }
func (n Difference) withChildren(k []Node) Node { n.L, n.R = k[0], k[1]; return n }
func (n Union) withChildren(k []Node) Node      { n.L, n.R = k[0], k[1]; return n }
func (n Join) withChildren(k []Node) Node       { n.L, n.R = k[0], k[1]; return n }
func (n Divide) withChildren(k []Node) Node     { n.L, n.R = k[0], k[1]; return n }

// Children returns n's operand plans in order (none for a Scan). With
// WithChildren it is the one description of plan shape: a walker that does
// not care which operator it is looking at — the optimizer's descent, the
// cluster coordinator's peel-and-rebuild — needs nothing else.
func Children(n Node) []Node { return n.children() }

// WithChildren returns a copy of n over the given operands, which must be as
// many as Children(n); everything else about n (projection columns, join
// spec, predicates) is kept. WithChildren(n, Children(n)...) is n.
func WithChildren(n Node, kids ...Node) Node { return n.withChildren(kids) }

// Catalog maps base-relation names to relations.
//
// Execute, Optimize and Compile treat the catalog — both the map and every
// relation reachable from it — as strictly read-only. That makes a Catalog
// value safe to share between any number of concurrent Execute/Compile
// calls, which is what the network server relies on: it hands each request
// a point-in-time snapshot of its catalog, and publishes updates by
// swapping in a freshly built map (copy-on-write) rather than mutating a
// map that in-flight queries may be reading. Callers must follow the same
// rule: never add, remove or replace entries of a catalog that a running
// query might hold, and never mutate a relation after putting it in one.
type Catalog map[string]*relation.Relation

// ExecStats accumulates whole-plan totals across every node of one
// Execute call.
type ExecStats struct {
	Pulses  int // simulated array pulses summed over all plan nodes (pulse backend)
	WordOps int // uint64 word operations summed over all plan nodes (bitset backend)

	// PeakTuples is the high-water mark of tuples held in executor-owned
	// storage at any instant: intermediate relations on the materializing
	// path; build tables, dedup sets and the accumulating result on the
	// streaming path. It is the number the streaming executor exists to
	// shrink. Folded with max, not added, so aggregating several plans
	// reports the worst plan.
	PeakTuples int

	// MaterializedNodes counts plan nodes that held a complete
	// intermediate result: every non-Scan node under the materializing
	// executor, only the pipeline breakers (join build sides, membership
	// sets, Divide) under the streaming one.
	MaterializedNodes int
}

// Options configures ExecuteCtx and CompileOpts.
type Options struct {
	// Metrics selects the registry per-node spans and compile counters are
	// recorded into. Nil selects obs.Default (mirroring
	// machine.Config.Metrics), so callers that need isolation — the network
	// server, concurrent tests — can pass a private registry.
	Metrics *obs.Registry

	// Stats, when non-nil, is filled with plan-wide totals (added to, so a
	// caller can aggregate several plans into one ExecStats).
	Stats *ExecStats

	// Backend selects the kernel the host executor's blocking operators
	// run on: the pulse simulator (the zero value) or the word-parallel
	// bitset engine. Per-node spans carry the backend as a metric label, so
	// /metrics distinguishes the two.
	Backend machine.Backend

	// Streaming lets every operator that can pipeline do so (see
	// iterator.go): select, project, dedup, union and the probe sides of
	// intersect, difference and join move one tuple at a time through host
	// hash tables, whatever the Backend; only Divide still blocks, on the
	// Backend's kernel. Results are tuple-identical to the materializing
	// run; the memory profile differs, and pipelined nodes record no
	// per-node span (they read no clock). Ignored by Compile and the
	// machine path.
	Streaming bool
}

// registry resolves the effective metrics registry; usable on a nil
// receiver.
func (o *Options) registry() *obs.Registry {
	if o != nil && o.Metrics != nil {
		return o.Metrics
	}
	return obs.Default
}

// backend resolves the effective execution backend; usable on a nil
// receiver.
func (o *Options) backend() machine.Backend {
	if o != nil {
		return o.Backend
	}
	return machine.BackendPulse
}

// kernel resolves the whole-relation kernel of the effective backend;
// usable on a nil receiver.
func (o *Options) kernel() kernel.Kernel {
	if o.backend() == machine.BackendBitset {
		return kernel.Bitset{}
	}
	return kernel.Pulse{}
}

// OpName returns the stable operator name used as the node label on
// metrics (label() is unsuitable for the two nodes that embed a scan name
// or a column list in it, which would make the metric cardinality depend
// on the query text).
func OpName(n Node) string {
	switch n.(type) {
	case Scan:
		return "scan"
	case Project:
		return "project"
	}
	return n.label()
}

// Execute evaluates a plan on the host, running every operator on its
// systolic array (one operation at a time, no machine-level scheduling).
// Each plan node is recorded as a span in obs.Default (see driver.record).
func Execute(n Node, cat Catalog) (*relation.Relation, error) {
	return ExecuteCtx(context.Background(), n, cat, nil)
}

// ExecuteCtx is Execute with cancellation and per-caller options. Both
// modes run the same iterator tree (iterator.go); without Options.Streaming
// every node is a blocking one, which checks the context on entry (and the
// select filter per batch), so a cancelled or timed-out request stops
// between operators rather than running the whole plan. The partial work
// already done is still reflected in the metrics registry and in
// Options.Stats.
func ExecuteCtx(ctx context.Context, n Node, cat Catalog, o *Options) (*relation.Relation, error) {
	if n == nil {
		return nil, fmt.Errorf("query: nil plan node")
	}
	d := newDriver(ctx, cat, o, o != nil && o.Streaming)
	it, err := d.open(n)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	rel, _, err := d.input(it)
	return rel, err
}

// ExecuteOnMachine compiles the plan into a transaction and runs it on the
// §9 machine m. When fallback is true and the machine gives up with a
// fault-recoverable error — retries exhausted, or every device of a kind
// quarantined with no host resource allowed — the plan is re-executed on
// the pristine host arrays instead; fellBack reports that the degraded
// path produced the result (res is nil in that case). If even the host
// path fails, the returned error still wraps the machine's recoverable
// error, so callers can map "nothing left to try" to a retryable condition
// (the network server answers 503).
func ExecuteOnMachine(ctx context.Context, n Node, cat Catalog, o *Options,
	m *machine.Machine, fallback bool) (rel *relation.Relation, res *machine.Result, fellBack bool, err error) {

	tasks, out, err := CompileOpts(n, cat, o)
	if err != nil {
		return nil, nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, false, err
	}
	res, err = m.Run(tasks)
	if err != nil {
		if !fallback || !fault.Recoverable(err) {
			return nil, nil, false, err
		}
		// Degradation ladder, machine rung exhausted: answer from the
		// host executor rather than failing the query.
		o.registry().Counter("query_machine_fallback_total", nil).Inc()
		rel, hostErr := ExecuteCtx(ctx, n, cat, o)
		if hostErr != nil {
			return nil, nil, true, fmt.Errorf("query: host fallback failed (%v) after machine gave up: %w", hostErr, err)
		}
		return rel, nil, true, nil
	}
	rel, ok := res.Relations[out]
	if !ok {
		return nil, nil, false, fmt.Errorf("query: machine run lost output %q", out)
	}
	return rel, res, false, nil
}

// Compile lowers a plan to a machine transaction. Every Scan becomes an
// OpLoad of the catalog relation; every operator becomes one task; the
// returned output name identifies the final result in machine.Result.
// Compilation cost and task counts are recorded into obs.Default.
func Compile(n Node, cat Catalog) (tasks []machine.Task, output string, err error) {
	return CompileOpts(n, cat, nil)
}

// CompileOpts is Compile recording into the registry selected by o (see
// Options.Metrics); a nil o behaves exactly like Compile.
func CompileOpts(n Node, cat Catalog, o *Options) (tasks []machine.Task, output string, err error) {
	reg := o.registry()
	stop := reg.Timer("query_compile_host_seconds", nil).Start()
	defer stop()
	c := &compiler{cat: cat, loaded: make(map[string]string)}
	output, err = c.lower(n)
	if err != nil {
		return nil, "", err
	}
	reg.Counter("query_compile_total", nil).Inc()
	reg.Counter("query_compile_tasks_total", nil).Add(int64(len(c.tasks)))
	return c.tasks, output, nil
}

type compiler struct {
	cat    Catalog
	tasks  []machine.Task
	loaded map[string]string // base relation -> output name of its load task
	n      int
}

func (c *compiler) fresh(prefix string) string {
	c.n++
	return fmt.Sprintf("%s_%d", prefix, c.n)
}

func (c *compiler) add(t machine.Task) string {
	t.ID = fmt.Sprintf("t%d", len(c.tasks))
	c.tasks = append(c.tasks, t)
	return t.Output
}

func (c *compiler) lower(n Node) (string, error) {
	switch op := n.(type) {
	case Scan:
		if name, ok := c.loaded[op.Name]; ok {
			return name, nil
		}
		r, ok := c.cat[op.Name]
		if !ok {
			return "", fmt.Errorf("query: unknown relation %q", op.Name)
		}
		out := c.add(machine.Task{Op: machine.OpLoad, Base: r, Output: op.Name})
		c.loaded[op.Name] = out
		return out, nil
	case Intersect:
		return c.binary(machine.OpIntersect, "inter", op.L, op.R, nil, nil)
	case Difference:
		return c.binary(machine.OpDifference, "diff", op.L, op.R, nil, nil)
	case Union:
		return c.binary(machine.OpUnion, "union", op.L, op.R, nil, nil)
	case Dedup:
		in, err := c.lower(op.Child)
		if err != nil {
			return "", err
		}
		return c.add(machine.Task{Op: machine.OpDedup, Inputs: []string{in}, Output: c.fresh("dedup")}), nil
	case Project:
		in, err := c.lower(op.Child)
		if err != nil {
			return "", err
		}
		return c.add(machine.Task{Op: machine.OpProject, Inputs: []string{in},
			Cols: op.Cols, Output: c.fresh("proj")}), nil
	case Join:
		spec := op.Spec
		return c.binary(machine.OpJoin, "join", op.L, op.R, &spec, nil)
	case Divide:
		return c.binary(machine.OpDivide, "quot", op.L, op.R, nil,
			&machine.DivideSpec{AQuot: op.AQuot, ADiv: op.ADiv, BCols: op.BCols})
	case Select:
		scan, ok := op.Child.(Scan)
		if !ok {
			return "", fmt.Errorf("query: machine selection happens at the disk heads; Select's child must be a Scan, not %T", op.Child)
		}
		r, have := c.cat[scan.Name]
		if !have {
			return "", fmt.Errorf("query: unknown relation %q", scan.Name)
		}
		// Selection-at-load is never memoised: two different Selects
		// over the same base relation are two different disk passes.
		return c.add(machine.Task{Op: machine.OpLoad, Base: r, Select: op.Query,
			Output: c.fresh("sel_" + scan.Name)}), nil
	}
	return "", fmt.Errorf("query: unsupported plan node %T", n)
}

func (c *compiler) binary(op machine.OpKind, prefix string, l, r Node, js *join.Spec, ds *machine.DivideSpec) (string, error) {
	li, err := c.lower(l)
	if err != nil {
		return "", err
	}
	ri, err := c.lower(r)
	if err != nil {
		return "", err
	}
	return c.add(machine.Task{Op: op, Inputs: []string{li, ri},
		Join: js, Divide: ds, Output: c.fresh(prefix)}), nil
}

// Render returns a one-line textual form of the plan for logging.
func Render(n Node) string {
	if n == nil {
		return "<nil>"
	}
	kids := n.children()
	if len(kids) == 0 {
		return n.label()
	}
	s := n.label() + "("
	for i, k := range kids {
		if i > 0 {
			s += ", "
		}
		s += Render(k)
	}
	return s + ")"
}
