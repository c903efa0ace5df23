// Package machine implements the integrated systolic database system of
// Kung & Lehman (1980) §9 (Figure 9-1): disks, memory modules, and several
// systolic devices joined by a crossbar switch.
//
// "Typically, the system works as follows. Initially, the relevant
// relations are read from disks into memories. Then the crossbar switch is
// configured so that the relevant memories are connected to the systolic
// array that will perform the first operation of the transaction in
// question. The data is pipelined from the memories through the switch and
// through the processor array. The output of the array is pipelined back
// into another memory. This is repeated for each relational operation in
// the transaction. Due to the crossbar structure, several operations may be
// run concurrently."
//
// The machine is a resource-constrained scheduling simulation on top of the
// real array simulators: each task's *result* is computed by the systolic
// array drivers (tiled to the device's capacity, per §8), its *duration* is
// the simulated pulse count converted to wall-clock time by the §8
// technology model, and the schedule respects device, disk and memory-
// module occupancy. Relations larger than a device are decomposed
// automatically — "Relations may have to be decomposed to fit the (fixed)
// sizes of systolic arrays" (§9).
package machine

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"systolicdb/internal/decompose"
	"systolicdb/internal/fault"
	"systolicdb/internal/join"
	"systolicdb/internal/kernel"
	"systolicdb/internal/obs"
	"systolicdb/internal/perf"
	"systolicdb/internal/relation"
)

// OpKind identifies a transaction step.
type OpKind int

// Transaction operation kinds.
const (
	OpLoad       OpKind = iota // disk -> memory
	OpIntersect                // intersection array
	OpDifference               // intersection array + inverter
	OpDedup                    // remove-duplicates array
	OpUnion                    // concat + remove-duplicates array
	OpProject                  // column select + remove-duplicates array
	OpJoin                     // join array
	OpDivide                   // division array
	OpStore                    // memory -> disk
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpIntersect:
		return "intersect"
	case OpDifference:
		return "difference"
	case OpDedup:
		return "dedup"
	case OpUnion:
		return "union"
	case OpProject:
		return "project"
	case OpJoin:
		return "join"
	case OpDivide:
		return "divide"
	case OpStore:
		return "store"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// DeviceKind identifies the systolic array type a device implements. The
// intersection-family operations (intersect, difference, dedup, union,
// project) all run on the same hardware — the paper's §4.3 observation that
// "the main hardware — the comparison array — is sufficiently general that
// it need not be changed at all."
type DeviceKind int

// Device kinds, matching the boxes of Figure 9-1.
const (
	DevIntersect DeviceKind = iota
	DevJoin
	DevDivide
)

func (k DeviceKind) String() string {
	switch k {
	case DevIntersect:
		return "intersect-array"
	case DevJoin:
		return "join-array"
	case DevDivide:
		return "division-array"
	}
	return fmt.Sprintf("device(%d)", int(k))
}

// deviceFor maps an operation to the device kind that executes it.
func deviceFor(op OpKind) (DeviceKind, bool) {
	switch op {
	case OpIntersect, OpDifference, OpDedup, OpUnion, OpProject:
		return DevIntersect, true
	case OpJoin:
		return DevJoin, true
	case OpDivide:
		return DevDivide, true
	}
	return 0, false
}

// DeviceConfig describes one systolic device attached to the crossbar.
type DeviceConfig struct {
	Name string
	Kind DeviceKind
	Size decompose.ArraySize // tuple capacity of one pass (§8 decomposition unit)

	// Fault injects faults into every grid this device runs (nil = a
	// healthy device; overrides Config.Fault.Plan for this device).
	// Setting it without Config.Fault enables the fault layer with
	// default verification and retry.
	Fault *fault.Plan
}

// FaultConfig enables fault-tolerant execution: per-tile verification,
// retry with backoff, device quarantine, and (unless disabled) a
// pristine-host last resort. A nil FaultConfig on Config.Fault selects the
// historical behaviour: every array run is trusted.
type FaultConfig struct {
	// Plan injects faults into every device without a plan of its own
	// (DeviceConfig.Fault overrides per device). Nil means no injection;
	// verification and retry still apply.
	Plan *fault.Plan

	// Verify selects the per-tile result check (default VerifyNone:
	// only the drivers' structural self-checks).
	Verify fault.VerifyMode

	// Retry bounds the per-tile retry loop (zero value = defaults).
	Retry fault.RetryPolicy

	// QuarantineAfter is how many consecutive failures quarantine a
	// device (<= 0 selects the default, 3). Ignored when Health is set.
	QuarantineAfter int

	// Health optionally shares quarantine state across machines — the
	// network server passes one per process so a device that went bad in
	// one request stays quarantined for the next and /healthz can report
	// the degradation.
	Health *fault.Health

	// DisableHostFallback forbids the pristine-host last resort: when
	// retries exhaust or every device is quarantined, the run fails with
	// a fault.Recoverable error instead (the query layer may still fall
	// back to its own host executor).
	DisableHostFallback bool

	// Sleep replaces time.Sleep in the retry backoff (tests pass a
	// no-op to keep fault runs fast).
	Sleep func(time.Duration)
}

// Config describes the machine.
type Config struct {
	Memories     int // memory modules on the crossbar
	Devices      []DeviceConfig
	Tech         perf.Technology // pulse -> time conversion
	Disk         perf.Disk       // load/store timing
	ElementBytes int             // bytes per stored element (default 8)

	// TileParallel enables intra-operator parallelism: when an operation
	// decomposes into tiles (§8) and several devices of the right kind
	// exist, the tiles are scheduled across all of them concurrently and
	// the partial results combined in memory — §9's "Results from
	// subrelations must be stored outside the systolic arrays before
	// they are finally combined." When false (the default) a whole
	// operation runs its tiles sequentially on one device.
	TileParallel bool

	// Metrics selects the registry transaction-level metrics (per-device
	// busy/idle time, memory-module contention, per-task queue wait) are
	// recorded into. Nil selects obs.Default.
	Metrics *obs.Registry

	// Fault enables fault-tolerant execution: injection (per the plans),
	// per-tile verification, retry, quarantine and host fallback. Nil
	// disables the layer — unless some DeviceConfig carries its own fault
	// plan, which enables it with default settings. The layer applies to
	// the pulse backend only: BackendBitset has no simulated cells to
	// corrupt, so fault injection is a no-op there.
	Fault *FaultConfig

	// Backend selects the execution engine (see Backend). The zero value
	// is BackendPulse, the cycle-faithful simulator; any other value must
	// be a known backend or New rejects the configuration.
	Backend Backend
}

// DivideSpec carries the column groups of a division task.
type DivideSpec struct {
	AQuot, ADiv, BCols []int
}

// Task is one step of a transaction. Inputs name relations produced by
// earlier tasks (or loaded from disk); Output names the produced relation.
type Task struct {
	ID     string
	Op     OpKind
	Inputs []string
	Output string

	Base   *relation.Relation // OpLoad: the relation on disk
	Select relation.Query     // OpLoad: optional logic-per-track selection (§9)
	Cols   []int              // OpProject: columns to keep
	Join   *join.Spec         // OpJoin
	Divide *DivideSpec        // OpDivide
}

// Event records one scheduled execution interval.
type Event struct {
	Task     string
	Op       OpKind
	Resource string // device or "disk"
	Memory   int    // memory module holding the output (-1 for stores)
	Start    time.Duration
	End      time.Duration
	Pulses   int
	Tiles    int
}

// Result is the outcome of running a transaction.
type Result struct {
	Relations map[string]*relation.Relation
	Events    []Event
	Makespan  time.Duration // end of the last event
	BusyTime  time.Duration // sum of event durations; BusyTime > Makespan means overlap

	// Resources lists every schedulable resource of the machine that ran
	// the transaction ("disk" plus each configured device name). Validate
	// uses it to reject events booked on resources the machine does not
	// have.
	Resources []string
}

// Concurrency returns BusyTime / Makespan — the §9 pipelining/concurrency
// payoff (1.0 = fully serial).
func (r *Result) Concurrency() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.BusyTime) / float64(r.Makespan)
}

// Machine is a configured §9 system.
type Machine struct {
	cfg          Config
	execs        map[DeviceKind]*fault.Executor
	health       *fault.Health
	hostFallback bool
}

// New validates the configuration and builds a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Memories <= 0 {
		return nil, fmt.Errorf("machine: need at least one memory module")
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("machine: need at least one systolic device")
	}
	seen := make(map[string]bool)
	for _, d := range cfg.Devices {
		if d.Name == "" {
			return nil, fmt.Errorf("machine: device with empty name")
		}
		if d.Name == "disk" || d.Name == "host" {
			return nil, fmt.Errorf("machine: device name %q is reserved", d.Name)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("machine: duplicate device name %q", d.Name)
		}
		seen[d.Name] = true
		if d.Size.MaxA <= 0 || d.Size.MaxB <= 0 {
			return nil, fmt.Errorf("machine: device %q has non-positive capacity", d.Name)
		}
	}
	if err := cfg.Tech.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Backend.valid() {
		return nil, fmt.Errorf("machine: unknown backend %v", cfg.Backend)
	}
	if cfg.ElementBytes <= 0 {
		cfg.ElementBytes = 8
	}
	m := &Machine{cfg: cfg}
	if err := m.initFault(); err != nil {
		return nil, err
	}
	return m, nil
}

// initFault builds the fault-tolerant execution layer when the
// configuration asks for it: Config.Fault set, or any device carrying its
// own fault plan.
func (m *Machine) initFault() error {
	fc := m.cfg.Fault
	if fc == nil {
		for _, d := range m.cfg.Devices {
			if d.Fault != nil {
				fc = &FaultConfig{}
				break
			}
		}
	}
	if fc == nil {
		return nil
	}
	m.health = fc.Health
	if m.health == nil {
		m.health = fault.NewHealth(fc.QuarantineAfter)
	}
	m.hostFallback = !fc.DisableHostFallback
	byKind := make(map[DeviceKind][]fault.Device)
	for _, d := range m.cfg.Devices {
		plan := d.Fault
		if plan == nil {
			plan = fc.Plan
		}
		byKind[d.Kind] = append(byKind[d.Kind], fault.Device{Name: d.Name, Plan: plan})
	}
	m.execs = make(map[DeviceKind]*fault.Executor)
	for kind, devs := range byKind {
		e, err := fault.NewExecutor(devs, fc.Verify, fc.Retry, m.health)
		if err != nil {
			return fmt.Errorf("machine: %v: %w", kind, err)
		}
		e.HostFallback = m.hostFallback
		e.Metrics = m.cfg.Metrics
		e.Sleep = fc.Sleep
		m.execs[kind] = e
	}
	return nil
}

// Health exposes the machine's quarantine tracker (nil when the fault
// layer is disabled). The network server reads it for /healthz, and
// operators Revive devices through it.
func (m *Machine) Health() *fault.Health { return m.health }

// runner returns the fault runner for a device kind; nil runs tiles
// directly on pristine cells (the fault layer disabled).
func (m *Machine) runner(kind DeviceKind) fault.Runner {
	if e, ok := m.execs[kind]; ok {
		return e
	}
	return nil
}

// quarantined reports whether the scheduler must route around a device.
func (m *Machine) quarantined(name string) bool {
	return m.health != nil && m.health.Quarantined(name)
}

// DefaultConfig1980 returns the configuration of the Figure 9-1 machine —
// three memory modules and one device of each kind, with the paper's
// conservative technology and disk — so callers can adjust fields (e.g.
// Backend, Metrics) before building with New.
func DefaultConfig1980(arraySize int, fc *FaultConfig) Config {
	if arraySize <= 0 {
		arraySize = 256
	}
	size := decompose.ArraySize{MaxA: arraySize, MaxB: arraySize}
	return Config{
		Memories: 3,
		Devices: []DeviceConfig{
			{Name: "intersect0", Kind: DevIntersect, Size: size},
			{Name: "join0", Kind: DevJoin, Size: size},
			{Name: "divide0", Kind: DevDivide, Size: size},
		},
		Tech:  perf.Conservative1980,
		Disk:  perf.Disk1980,
		Fault: fc,
	}
}

// Default1980 returns a machine shaped like Figure 9-1: three memory
// modules and one device of each kind, with the paper's conservative
// technology and disk.
func Default1980(arraySize int) (*Machine, error) {
	return New(DefaultConfig1980(arraySize, nil))
}

// ParseFaultConfig turns the CLI fault flags shared by systolicdb,
// systolicdbd and experiments into a FaultConfig. An empty spec with no
// verify mode returns (nil, nil): fault-tolerant execution stays off. A
// verify mode alone enables verification and retry without injection.
func ParseFaultConfig(spec, verify string, retries, quarantineAfter int) (*FaultConfig, error) {
	if spec == "" && verify == "" && retries == 0 && quarantineAfter == 0 {
		return nil, nil
	}
	fc := &FaultConfig{QuarantineAfter: quarantineAfter}
	if spec != "" {
		p, err := fault.ParsePlan(spec)
		if err != nil {
			return nil, fmt.Errorf("-fault: %w (%s)", err, fault.SpecHelp())
		}
		fc.Plan = p
	}
	if verify == "" && spec != "" {
		verify = "checksum" // injecting without checking would be silent corruption
	}
	vm, err := fault.ParseVerifyMode(verify)
	if err != nil {
		return nil, fmt.Errorf("-verify: %w", err)
	}
	fc.Verify = vm
	if retries > 0 {
		fc.Retry.MaxAttempts = retries
	}
	return fc, nil
}

// relationBytes models the stored size of a relation for disk transfers.
func (m *Machine) relationBytes(r *relation.Relation) float64 {
	return float64(r.Cardinality() * r.Width() * m.cfg.ElementBytes)
}

// opResult is the functional outcome plus simulated cost of one task.
type opResult struct {
	rel        *relation.Relation
	pulses     int
	tiles      int
	tilePulses []int // per-tile pulse counts for tile-parallel scheduling
}

// kernel selects the back end one task runs on: the word-parallel engine,
// or the pulse arrays tiled to the device's capacity. When the fault layer
// is enabled every tile goes through the kind's executor, which injects,
// verifies, retries and quarantines per the configuration.
func (m *Machine) kernel(op OpKind, size decompose.ArraySize) kernel.Kernel {
	if m.cfg.Backend == BackendBitset {
		return kernel.Bitset{}
	}
	tiler := decompose.Tiler{Size: size}
	if kind, ok := deviceFor(op); ok {
		tiler.Runner = m.runner(kind)
	}
	return kernel.Tiled{Tiler: tiler}
}

// execute computes a task's result and simulated cost on a device of the
// given size.
func (m *Machine) execute(t Task, size decompose.ArraySize, rels map[string]*relation.Relation) (opResult, error) {
	need := 2
	if t.Op == OpDedup || t.Op == OpProject {
		need = 1
	}
	if len(t.Inputs) < need {
		return opResult{}, fmt.Errorf("machine: task %q needs input %d", t.ID, len(t.Inputs))
	}
	in := make([]*relation.Relation, 2) // in[1] stays nil for the unary operators
	for i, name := range t.Inputs[:need] {
		r, ok := rels[name]
		if !ok {
			return opResult{}, fmt.Errorf("machine: task %q input %q not materialised", t.ID, name)
		}
		in[i] = r
	}
	var (
		k    = m.kernel(t.Op, size)
		rel  *relation.Relation
		cost kernel.Cost
		err  error
	)
	switch t.Op {
	case OpIntersect:
		rel, cost, err = k.Intersect(in[0], in[1])
	case OpDifference:
		rel, cost, err = k.Difference(in[0], in[1])
	case OpUnion:
		rel, cost, err = k.Union(in[0], in[1])
	case OpDedup:
		rel, cost, err = k.Dedup(in[0])
	case OpProject:
		rel, cost, err = k.Project(in[0], t.Cols)
	case OpJoin:
		if t.Join == nil {
			return opResult{}, fmt.Errorf("machine: task %q has no join spec", t.ID)
		}
		rel, cost, err = k.Join(in[0], in[1], *t.Join)
	case OpDivide:
		if t.Divide == nil {
			return opResult{}, fmt.Errorf("machine: task %q has no divide spec", t.ID)
		}
		rel, cost, err = k.Divide(in[0], in[1], t.Divide.AQuot, t.Divide.ADiv, t.Divide.BCols)
	default:
		return opResult{}, fmt.Errorf("machine: task %q: op %v does not run on a device", t.ID, t.Op)
	}
	if err != nil {
		return opResult{}, err
	}
	return opResult{rel: rel, pulses: cost.Units, tiles: cost.Tiles, tilePulses: cost.PerTile}, nil
}

// Run executes a transaction: a list of tasks forming a DAG through their
// input/output names. Tasks are list-scheduled greedily in dependency
// order; each waits for its inputs, a free device of the right kind, and a
// free memory module for its output.
func (m *Machine) Run(tasks []Task) (*Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("machine: empty transaction")
	}
	// Validate outputs unique and IDs present.
	produced := make(map[string]bool)
	ids := make(map[string]bool)
	for i := range tasks {
		t := &tasks[i]
		if t.ID == "" {
			t.ID = fmt.Sprintf("task%d", i)
		}
		if ids[t.ID] {
			return nil, fmt.Errorf("machine: duplicate task id %q", t.ID)
		}
		ids[t.ID] = true
		if t.Op != OpStore {
			if t.Output == "" {
				return nil, fmt.Errorf("machine: task %q has no output name", t.ID)
			}
			if produced[t.Output] {
				return nil, fmt.Errorf("machine: relation %q produced twice", t.Output)
			}
			produced[t.Output] = true
		}
	}

	rels := make(map[string]*relation.Relation)
	readyAt := make(map[string]time.Duration)
	devFree := make(map[string]time.Duration)
	memFree := make([]time.Duration, m.cfg.Memories)
	var diskFree time.Duration
	nextMem := 0

	res := &Result{Relations: rels, Resources: m.resources()}
	done := make(map[string]bool)

	// Contention bookkeeping for the metrics flush: how long each event
	// queued behind busy resources, and how long each output memory module
	// alone delayed a start.
	type waitRec struct {
		op        OpKind
		queueWait time.Duration
		memModule int // -1 when no memory wait occurred
		memWait   time.Duration
	}
	var waits []waitRec

	remaining := len(tasks)
	for remaining > 0 {
		progressed := false
		for i := range tasks {
			t := &tasks[i]
			if done[t.ID] {
				continue
			}
			// All inputs materialised?
			ok := true
			var inputsReady time.Duration
			for _, in := range t.Inputs {
				if _, have := rels[in]; !have {
					ok = false
					break
				}
				if readyAt[in] > inputsReady {
					inputsReady = readyAt[in]
				}
			}
			if !ok {
				continue
			}

			var evs []Event
			var ev Event
			switch t.Op {
			case OpLoad:
				if t.Base == nil {
					return nil, fmt.Errorf("machine: load task %q has no base relation", t.ID)
				}
				base := maxDur(inputsReady, diskFree)
				start := maxDur(base, memFree[nextMem])
				w := waitRec{op: t.Op, queueWait: start - inputsReady, memModule: -1}
				if start > base {
					w.memModule, w.memWait = nextMem, start-base
				}
				waits = append(waits, w)
				loaded := t.Base
				dur := m.cfg.Disk.TimeToRead(m.relationBytes(t.Base))
				if t.Select != nil {
					// §9: "Disks with 'logic-per-track' capabilities can
					// of course be incorporated into the system, so that
					// some simple queries never have to be processed
					// outside the disks." Every track head filters its own
					// track in parallel, so the selection costs exactly one
					// revolution whatever the relation's size, and the
					// matches come off in stored order.
					if err := t.Select.Validate(t.Base.Schema()); err != nil {
						return nil, fmt.Errorf("machine: load task %q: %w", t.ID, err)
					}
					keep := make([]bool, t.Base.Cardinality())
					for i := range keep {
						keep[i] = t.Select.Matches(t.Base.Tuple(i))
					}
					sel, err := t.Base.Select(keep, true)
					if err != nil {
						return nil, fmt.Errorf("machine: load task %q: %w", t.ID, err)
					}
					loaded = sel
					dur = m.cfg.Disk.RevolutionTime()
					decompose.RecordPrefilter(t.Base.Cardinality(), sel.Cardinality())
				}
				end := start + dur
				diskFree = end
				memFree[nextMem] = end
				rels[t.Output] = loaded
				readyAt[t.Output] = end
				ev = Event{Task: t.ID, Op: t.Op, Resource: "disk", Memory: nextMem, Start: start, End: end}
				nextMem = (nextMem + 1) % m.cfg.Memories

			case OpStore:
				if len(t.Inputs) != 1 {
					return nil, fmt.Errorf("machine: store task %q needs exactly one input", t.ID)
				}
				r := rels[t.Inputs[0]]
				start := maxDur(inputsReady, diskFree)
				end := start + m.cfg.Disk.TimeToRead(m.relationBytes(r))
				diskFree = end
				waits = append(waits, waitRec{op: t.Op, queueWait: start - inputsReady, memModule: -1})
				ev = Event{Task: t.ID, Op: t.Op, Resource: "disk", Memory: -1, Start: start, End: end}

			default:
				kind, isDev := deviceFor(t.Op)
				if !isDev {
					return nil, fmt.Errorf("machine: task %q: unsupported op %v", t.ID, t.Op)
				}
				// Pick the healthy device of the right kind that can
				// start earliest. Quarantined devices stay configured but
				// the scheduler routes around them.
				best := -1
				var bestStart time.Duration
				configured := false
				var anySize decompose.ArraySize
				for d := range m.cfg.Devices {
					if m.cfg.Devices[d].Kind != kind {
						continue
					}
					if !configured {
						configured = true
						anySize = m.cfg.Devices[d].Size
					}
					if m.quarantined(m.cfg.Devices[d].Name) {
						continue
					}
					s := maxDur(inputsReady, devFree[m.cfg.Devices[d].Name])
					if best < 0 || s < bestStart {
						best, bestStart = d, s
					}
				}
				if !configured {
					return nil, fmt.Errorf("machine: no %v device for task %q", kind, t.ID)
				}
				var devName string
				var devSize decompose.ArraySize
				if best >= 0 {
					devName = m.cfg.Devices[best].Name
					devSize = m.cfg.Devices[best].Size
				} else {
					// Every device of the kind is quarantined: degrade to
					// the host resource (pristine cells, same tiling) when
					// allowed, else fail recoverably so the query layer can
					// take its own fallback.
					if !m.hostFallback {
						return nil, fmt.Errorf("machine: task %q: %w (all %v devices quarantined)",
							t.ID, fault.ErrNoHealthyDevice, kind)
					}
					devName = "host"
					devSize = anySize
					bestStart = maxDur(inputsReady, devFree["host"])
				}
				out, err := m.execute(*t, devSize, rels)
				if err != nil {
					return nil, err
				}
				if m.cfg.TileParallel && len(out.tilePulses) > 1 {
					// §9 intra-operator parallelism: spread the §8
					// tiles across every device of the right kind; the
					// partial results combine in the output memory.
					evs, err = m.scheduleTiles(t, kind, out, inputsReady, devFree, memFree, nextMem)
					if err != nil {
						return nil, err
					}
					if memFree[nextMem] > inputsReady {
						waits = append(waits, waitRec{op: t.Op, queueWait: memFree[nextMem] - inputsReady,
							memModule: nextMem, memWait: memFree[nextMem] - inputsReady})
					}
					var opEnd time.Duration
					for _, e := range evs {
						if e.End > opEnd {
							opEnd = e.End
						}
					}
					memFree[nextMem] = opEnd
					rels[t.Output] = out.rel
					readyAt[t.Output] = opEnd
					nextMem = (nextMem + 1) % m.cfg.Memories
					break
				}
				start := maxDur(bestStart, memFree[nextMem])
				w := waitRec{op: t.Op, queueWait: start - inputsReady, memModule: -1}
				if start > bestStart {
					w.memModule, w.memWait = nextMem, start-bestStart
				}
				waits = append(waits, w)
				end := start + m.cfg.Tech.PulseTime(out.pulses)
				devFree[devName] = end
				memFree[nextMem] = end
				rels[t.Output] = out.rel
				readyAt[t.Output] = end
				ev = Event{Task: t.ID, Op: t.Op, Resource: devName, Memory: nextMem,
					Start: start, End: end, Pulses: out.pulses, Tiles: out.tiles}
				nextMem = (nextMem + 1) % m.cfg.Memories
			}

			if evs == nil {
				evs = []Event{ev}
			}
			for _, e := range evs {
				res.Events = append(res.Events, e)
				res.BusyTime += e.End - e.Start
				if e.End > res.Makespan {
					res.Makespan = e.End
				}
			}
			done[t.ID] = true
			remaining--
			progressed = true
		}
		if !progressed {
			var missing []string
			for i := range tasks {
				if !done[tasks[i].ID] {
					missing = append(missing, tasks[i].ID)
				}
			}
			sort.Strings(missing)
			return nil, fmt.Errorf("machine: transaction deadlocked; unrunnable tasks: %v (missing inputs or cycle)", missing)
		}
	}
	sort.Slice(res.Events, func(i, j int) bool { return res.Events[i].Start < res.Events[j].Start })

	// Flush the transaction's cost profile into the metrics registry.
	reg := m.registry()
	reg.Counter("machine_transactions_total", nil).Inc()
	reg.Counter("machine_backend_transactions_total",
		obs.Labels{"backend": m.cfg.Backend.String()}).Inc()
	reg.Gauge("machine_makespan_seconds", nil).Set(res.Makespan.Seconds())
	reg.Gauge("machine_busy_seconds", nil).Set(res.BusyTime.Seconds())
	reg.Gauge("machine_concurrency", nil).Set(res.Concurrency())
	busy := make(map[string]time.Duration)
	for _, ev := range res.Events {
		reg.Counter("machine_events_total", obs.Labels{"op": ev.Op.String()}).Inc()
		busy[ev.Resource] += ev.End - ev.Start
	}
	for _, name := range res.Resources {
		l := obs.Labels{"device": name}
		reg.Histogram("machine_device_busy_seconds", l, nil).Observe(busy[name].Seconds())
		reg.Histogram("machine_device_idle_seconds", l, nil).Observe((res.Makespan - busy[name]).Seconds())
	}
	for _, w := range waits {
		reg.Histogram("machine_task_queue_wait_seconds", obs.Labels{"op": w.op.String()}, nil).
			Observe(w.queueWait.Seconds())
		if w.memModule >= 0 {
			reg.Histogram("machine_memory_wait_seconds",
				obs.Labels{"module": strconv.Itoa(w.memModule)}, nil).Observe(w.memWait.Seconds())
		}
	}
	return res, nil
}

// registry returns the metrics registry configured for this machine
// (obs.Default unless Config.Metrics overrides it).
func (m *Machine) registry() *obs.Registry {
	if m.cfg.Metrics != nil {
		return m.cfg.Metrics
	}
	return obs.Default
}

// resources returns every schedulable resource name: the disk, the host
// (when the fault layer may degrade onto it) and all configured devices.
func (m *Machine) resources() []string {
	out := []string{"disk"}
	if m.hostFallback {
		out = append(out, "host")
	}
	for _, d := range m.cfg.Devices {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// scheduleTiles distributes an operation's decomposition tiles across every
// device of the given kind, longest tiles first (LPT list scheduling), and
// returns one event per tile. The output memory module gates the start (the
// partial results combine there) and the caller marks it busy until the
// last tile finishes. A configuration with no device of the required kind
// is an error: tiles must never be booked on a nonexistent resource.
func (m *Machine) scheduleTiles(t *Task, kind DeviceKind, out opResult, inputsReady time.Duration,
	devFree map[string]time.Duration, memFree []time.Duration, mem int) ([]Event, error) {

	earliest := maxDur(inputsReady, memFree[mem])
	tiles := append([]int(nil), out.tilePulses...)
	sort.Sort(sort.Reverse(sort.IntSlice(tiles)))

	var evs []Event
	for idx, pulses := range tiles {
		best := ""
		var bestStart time.Duration
		configured := false
		for d := range m.cfg.Devices {
			if m.cfg.Devices[d].Kind != kind {
				continue
			}
			configured = true
			name := m.cfg.Devices[d].Name
			if m.quarantined(name) {
				continue
			}
			s := maxDur(earliest, devFree[name])
			if best == "" || s < bestStart {
				best, bestStart = name, s
			}
		}
		if best == "" {
			if !configured {
				return nil, fmt.Errorf("machine: no %v device configured for task %q (tile %d)", kind, t.ID, idx)
			}
			if !m.hostFallback {
				return nil, fmt.Errorf("machine: task %q tile %d: %w (all %v devices quarantined)",
					t.ID, idx, fault.ErrNoHealthyDevice, kind)
			}
			best, bestStart = "host", maxDur(earliest, devFree["host"])
		}
		end := bestStart + m.cfg.Tech.PulseTime(pulses)
		devFree[best] = end
		evs = append(evs, Event{
			Task:     fmt.Sprintf("%s.tile%d", t.ID, idx),
			Op:       t.Op,
			Resource: best,
			Memory:   mem,
			Start:    bestStart,
			End:      end,
			Pulses:   pulses,
			Tiles:    1,
		})
	}
	return evs, nil
}

func maxDur(ds ...time.Duration) time.Duration {
	var out time.Duration
	for _, d := range ds {
		if d > out {
			out = d
		}
	}
	return out
}
