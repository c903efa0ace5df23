// Package fault is the robustness layer for the systolic array simulator:
// configurable fault injection into any cell grid, cheap result
// verification for grid runs, and the retry/quarantine machinery the §9
// machine uses to keep answering queries when a device goes bad.
//
// Kung & Lehman's arrays get their speed from thousands of identical, tiny
// cells (§2's "simple identical cells" argument) — exactly the regime where
// a transient hardware fault (a flipped flag bit, a dropped pulse, a
// misrouted token) silently corrupts one t_ij and therefore one tuple of an
// intersection or join result. The paper's §9 machine assumes every array
// run succeeds; this package models the runs that don't.
//
// The layer has three parts, used together or separately:
//
//   - Injection: a Plan describes faults (mode, rate, targeting, seed); an
//     Injector built from it wraps a grid's cell builder so the wrapped
//     cells corrupt their outputs per the plan. Injection is fully
//     deterministic given the seed, but each new grid build (each retry
//     attempt) perturbs the pattern the way real transient faults would.
//
//   - Detection: a Checksum summarises a run's emitted result tokens; a
//     Verdict compares it against a host-computed reference checksum
//     (VerifyChecksum), a second independent run (VerifyDual), or only the
//     driver's built-in completeness/position self-checks (VerifyNone).
//
//   - Recovery: an Executor runs tile attempts against a set of devices,
//     retrying unverified tiles with capped exponential backoff plus
//     deterministic jitter, quarantining a device after K consecutive
//     failures (tracked in a Health shared across executors), and finally
//     falling back to a pristine host run when every device is bad.
package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"systolicdb/internal/chaos"
	"systolicdb/internal/systolic"
)

// Mode is a fault model: what a bad cell does to its outputs.
type Mode int

// Fault modes.
const (
	// Flip inverts every boolean the cell emits during a faulty pulse —
	// the classic transient bit-flip on a result line.
	Flip Mode = iota
	// Drop erases all of the cell's outputs for the pulse, modelling a
	// dropped clock pulse or a dead output latch.
	Drop
	// StuckAt forces every emitted boolean to Plan.StuckVal, modelling a
	// stuck output line.
	StuckAt
	// Misroute rotates the four output ports (N→E→S→W→N), sending each
	// token out of the wrong side of the cell.
	Misroute
	// Flaky is the pulse-level flaky-device model: the decision is made
	// per pulse for the whole grid, and during a flaky pulse every
	// wrapped cell drops its outputs — a glitching clock distribution
	// rather than a single bad cell.
	Flaky
)

// modeNames spells each mode, indexed by it.
var modeNames = [...]string{Flip: "flip", Drop: "drop", StuckAt: "stuck", Misroute: "misroute", Flaky: "flaky"}

func (m Mode) valid() bool { return m >= 0 && int(m) < len(modeNames) }

func (m Mode) String() string {
	if m.valid() {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode resolves a mode name.
func ParseMode(s string) (Mode, error) {
	if i := slices.Index(modeNames[:], s); i >= 0 {
		return Mode(i), nil
	}
	return 0, fmt.Errorf("fault: unknown mode %q (valid: %s)", s, strings.Join(modeNames[:], ", "))
}

// Plan describes a fault-injection campaign against one grid (or one
// device's grids). The zero value is invalid; build plans with ParsePlan or
// fill the fields and call Validate.
type Plan struct {
	Mode Mode
	// Rate is the per-cell-per-pulse firing probability in [0, 1] (for
	// Flaky: per-pulse for the whole grid). A Rate of 0 with Pulse >= 0
	// fires deterministically at exactly that pulse.
	Rate float64
	// Seed makes the campaign reproducible. Two injectors built from the
	// same plan corrupt the same cells at the same pulses.
	Seed int64
	// Row and Col restrict the faulty cells; -1 means any (Flaky ignores
	// both: it targets pulses, not cells).
	Row, Col int
	// Pulse restricts injection to one pulse; -1 means any pulse.
	Pulse int
	// StuckVal is the value a StuckAt line is stuck at.
	StuckVal bool
}

// options is the format of the option list after "mode:", declared once:
// ParsePlan, Validate, String and SpecHelp all read this table, in this
// (canonical) order.
func (p *Plan) options() chaos.Grammar {
	return chaos.Grammar{Layer: "fault", Fields: []chaos.Field{
		chaos.Prob("rate", &p.Rate),
		chaos.Seed(&p.Seed),
		{Key: "cell", Usage: "RxC",
			Parse: func(val string) (err error) {
				r, c, ok := strings.Cut(val, "x")
				if !ok {
					return fmt.Errorf("want <row>x<col>")
				}
				if p.Row, err = strconv.Atoi(r); err == nil {
					p.Col, err = strconv.Atoi(c)
				}
				return err
			},
			Check: func() error {
				if p.Row < -1 || p.Col < -1 {
					return fmt.Errorf("target (%d, %d) invalid (use -1 for any)", p.Row, p.Col)
				}
				return nil
			},
			Render: func() []string {
				return chaos.If(p.Row >= 0 || p.Col >= 0, fmt.Sprintf("%dx%d", p.Row, p.Col))
			},
		},
		{Key: "pulse", Usage: "N",
			Parse: func(val string) (err error) { p.Pulse, err = strconv.Atoi(val); return err },
			Check: func() error {
				if p.Pulse < -1 {
					return fmt.Errorf("target %d invalid (use -1 for any)", p.Pulse)
				}
				return nil
			},
			Render: func() []string { return chaos.If(p.Pulse >= 0, strconv.Itoa(p.Pulse)) },
		},
		{Key: "val", Usage: "0|1",
			Parse: func(val string) error {
				switch val {
				case "0", "false":
					p.StuckVal = false
				case "1", "true":
					p.StuckVal = true
				default:
					return fmt.Errorf("want 0 or 1")
				}
				return nil
			},
			Render: func() []string {
				v := "0"
				if p.StuckVal {
					v = "1"
				}
				return chaos.If(p.Mode == StuckAt, v)
			},
		},
	}}
}

// Validate checks the plan's fields.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("fault: nil plan")
	}
	if !p.Mode.valid() {
		return fmt.Errorf("fault: invalid mode %d", int(p.Mode))
	}
	if err := p.options().Validate(); err != nil {
		return err
	}
	if p.Rate == 0 && p.Pulse < 0 {
		return fmt.Errorf("fault: plan fires never (rate 0 and no pulse target)")
	}
	return nil
}

// String renders the plan in the spec grammar ParsePlan accepts.
func (p *Plan) String() string {
	if opts := p.options().String(); opts != "" {
		return p.Mode.String() + ":" + opts
	}
	return p.Mode.String()
}

// ParsePlan parses a fault spec of the form
//
//	mode[:key=value,...]
//
// with modes flip, drop, stuck, misroute, flaky and keys
//
//	rate=<0..1>   per-cell-per-pulse firing probability
//	seed=<int>    determinism seed
//	cell=<r>x<c>  restrict to one cell (default: any)
//	pulse=<n>     restrict to one pulse (default: any)
//	val=<0|1>     stuck-at value (stuck mode only)
//
// Examples: "flip:rate=0.01,seed=42", "drop:cell=2x1,pulse=3",
// "stuck:cell=0x0,pulse=5,val=1", "flaky:rate=0.05".
func ParsePlan(spec string) (*Plan, error) {
	head, rest, hasOpts := strings.Cut(spec, ":")
	mode, err := ParseMode(strings.TrimSpace(head))
	if err != nil {
		return nil, err
	}
	p := &Plan{Mode: mode, Row: -1, Col: -1, Pulse: -1}
	if hasOpts {
		if err := p.options().Parse(rest); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Injector applies one Plan to grids. Each call to NewRun yields the cell
// wrapper for one grid build; successive runs see different (but seed-
// deterministic) fault patterns, the way successive runs of real hardware
// see independent transient faults — which is what makes retrying
// worthwhile.
type Injector struct {
	plan      Plan
	threshold uint64
	runs      atomic.Uint64 // nonce: distinguishes attempts
	injected  atomic.Int64  // corrupted cell-pulses, for tests and metrics
}

// NewInjector validates the plan and builds an injector.
func NewInjector(p *Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: *p, threshold: chaos.Threshold(p.Rate)}, nil
}

// Injected returns how many cell-pulses have been corrupted so far.
func (inj *Injector) Injected() int64 { return inj.injected.Load() }

// fires decides whether the fault fires for (run, row, col, pulse).
func (inj *Injector) fires(run uint64, row, col, pulse int) bool {
	p := &inj.plan
	if p.Mode != Flaky { // Flaky targets pulses, not cells
		if p.Row >= 0 && row != p.Row {
			return false
		}
		if p.Col >= 0 && col != p.Col {
			return false
		}
	}
	if p.Pulse >= 0 && pulse != p.Pulse {
		return false
	}
	if p.Rate == 0 {
		return true // deterministic single-pulse fault
	}
	// Every decision hashes its own coordinates, so campaigns are
	// reproducible without shared PRNG state.
	h := uint64(p.Seed)
	h = chaos.Mix64(h ^ run*chaos.Gamma)
	if p.Mode != Flaky {
		h = chaos.Mix64(h ^ uint64(row)<<32 ^ uint64(uint32(col)))
	}
	h = chaos.Mix64(h ^ uint64(pulse))
	return h < inj.threshold
}

// NewRun returns the systolic cell wrapper for one grid build. Every call
// advances the attempt nonce, so a rebuilt grid (a retry) sees a fresh
// fault pattern under the same plan and seed.
func (inj *Injector) NewRun() systolic.Wrap {
	run := inj.runs.Add(1)
	return func(row, col int, cell systolic.Cell) systolic.Cell {
		return &faultCell{inner: cell, inj: inj, run: run, row: row, col: col}
	}
}

// faultCell wraps one processor and corrupts its outputs per the plan.
type faultCell struct {
	inner systolic.Cell
	inj   *Injector
	run   uint64
	row   int
	col   int
	pulse int
}

// Step steps the inner cell, then corrupts the outputs it presented in
// place when the plan fires for this cell and pulse.
func (f *faultCell) Step(in *systolic.Inputs, out *systolic.Outputs) {
	f.inner.Step(in, out)
	pulse := f.pulse
	f.pulse++
	if !f.inj.fires(f.run, f.row, f.col, pulse) {
		return
	}
	any := false
	corrupt := func(t systolic.Token) systolic.Token {
		switch f.inj.plan.Mode {
		case Flip:
			if t.HasFlag {
				t.Flag = !t.Flag
				any = true
			}
		case Drop, Flaky:
			if t.Present() {
				any = true
			}
			t = systolic.Empty
		case StuckAt:
			if t.HasFlag {
				t.Flag = f.inj.plan.StuckVal
				any = true
			}
		}
		return t
	}
	if f.inj.plan.Mode == Misroute {
		rot := systolic.Outputs{N: out.W, E: out.N, S: out.E, W: out.S}
		any = *out != rot
		*out = rot
	} else {
		out.N = corrupt(out.N)
		out.S = corrupt(out.S)
		out.E = corrupt(out.E)
		out.W = corrupt(out.W)
	}
	if any {
		f.inj.injected.Add(1)
	}
}

func (f *faultCell) Reset() {
	f.inner.Reset()
	f.pulse = 0
}

// Visit implements systolic.Visited: whether the plan fires depends on the
// pulse ordinal the cell counts, so its grid visits every cell at every
// pulse and each ordinal is the pulse it names.
func (f *faultCell) Visit() systolic.Visit { return systolic.EveryCell }

// SpecHelp is a one-line usage string for -fault flags.
func SpecHelp() string {
	modes := slices.Clone(modeNames[:])
	slices.Sort(modes)
	return "fault spec: <" + strings.Join(modes, "|") +
		">[:" + new(Plan).options().Usage() + "], e.g. flip:rate=0.01,seed=42"
}
