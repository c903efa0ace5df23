package fault

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"systolicdb/internal/systolic"
)

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"flip:rate=0.01,seed=42",
		"drop:rate=0.5",
		"drop:cell=2x1,pulse=3",
		"stuck:cell=0x0,pulse=5,val=1",
		"stuck:pulse=0,val=0",
		"misroute:rate=1",
		"flaky:rate=0.05,seed=-7",
		"flip:pulse=12",
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", spec, err)
			continue
		}
		p2, err := ParsePlan(p.String())
		if err != nil {
			t.Errorf("ParsePlan(%q -> %q): %v", spec, p.String(), err)
			continue
		}
		if *p2 != *p {
			t.Errorf("round trip %q -> %q: %+v != %+v", spec, p.String(), p2, p)
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"",
		"explode",
		"flip:rate=2",
		"flip:rate=-0.1",
		"flip:rate=x",
		"flip:rate=NaN",
		"flip:rate=Inf",
		"flip:cell=2",
		"flip:cell=ax1",
		"flip:pulse=-5",
		"flip:frobnicate=1",
		"flip:rate",
		"stuck:pulse=1,val=maybe",
		"flip:rate=0", // fires never: rate 0 without a pulse target
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

// passthrough is a trivial cell for injector unit tests: it forwards its
// west input east, as flags.
type passthrough struct{ last systolic.Token }

func (p *passthrough) Step(in *systolic.Inputs, out *systolic.Outputs) {
	out.E = in.W
}
func (p *passthrough) Reset() {}

// runWrapped pushes n flag tokens through a 1x1 wrapped grid and returns
// the emitted flags by pulse.
func runWrapped(t *testing.T, wrap systolic.Wrap, n int) map[int]bool {
	t.Helper()
	grid, err := systolic.NewGrid(1, 1, systolic.BuildWith(func(_, _ int) systolic.Cell {
		return &passthrough{}
	}, wrap))
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Feed(systolic.Port{Side: systolic.West, Window: systolic.Window{Stride: 1, Count: n},
		Feed: func(int) systolic.Token { return systolic.FlagToken(true, systolic.Tag{Valid: true}) }}); err != nil {
		t.Fatal(err)
	}
	out := make(map[int]bool)
	if err := grid.Drain(systolic.East, 0, func(p int, tok systolic.Token) {
		if tok.HasFlag {
			out[p] = tok.Flag
		}
	}); err != nil {
		t.Fatal(err)
	}
	grid.Reset()
	grid.Run(n + 2)
	return out
}

// TestFaultOrdinalsCountIdlePulses: a wrapped cell's pulse ordinal is the
// grid's pulse even at pulses when no token reaches the cell, so a fault
// aimed at (cell, pulse) hits the token that arrives there at that pulse.
// A grid that stepped only the cells a token reaches would leave cell
// (0,1) at ordinal 0 when the token arrives at pulse 4, and miss it.
func TestFaultOrdinalsCountIdlePulses(t *testing.T) {
	inj, err := NewInjector(&Plan{Mode: Flip, Seed: 1, Row: 0, Col: 1, Pulse: 4})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := systolic.NewGrid(1, 2, systolic.BuildWith(func(_, _ int) systolic.Cell {
		return &passthrough{}
	}, inj.NewRun()))
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Feed(systolic.Port{Side: systolic.West, Window: systolic.Window{First: 3, Stride: 1, Count: 1},
		Feed: func(int) systolic.Token { return systolic.FlagToken(true, systolic.Tag{}) }}); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := grid.Drain(systolic.East, 0, func(p int, tok systolic.Token) { got = append(got, fmt.Sprint(p, tok)) }); err != nil {
		t.Fatal(err)
	}
	grid.Reset()
	grid.Run(6)
	if want := []string{"4 F"}; !slices.Equal(got, want) {
		t.Errorf("east deliveries %q, want %q (the TRUE flipped at cell 0x1, pulse 4)", got, want)
	}
}

// TestInjectorDeterminism: two injectors from the same plan corrupt the
// same pulses on their first run; a retry (second NewRun) sees a fresh,
// still seed-deterministic pattern.
func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{Mode: Flip, Rate: 0.3, Seed: 99, Row: -1, Col: -1, Pulse: -1}
	mk := func() *Injector {
		inj, err := NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	const pulses = 64
	a1 := runWrapped(t, mk().NewRun(), pulses)
	a2 := runWrapped(t, mk().NewRun(), pulses)
	if len(a1) != len(a2) {
		t.Fatalf("same plan, same run: %d vs %d tokens", len(a1), len(a2))
	}
	for p, v := range a1 {
		if a2[p] != v {
			t.Fatalf("same plan, same run: pulse %d differs", p)
		}
	}
	inj := mk()
	r1 := runWrapped(t, inj.NewRun(), pulses)
	r2 := runWrapped(t, inj.NewRun(), pulses)
	same := len(r1) == len(r2)
	if same {
		for p, v := range r1 {
			if r2[p] != v {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("retry run produced an identical fault pattern; retries would be futile")
	}
	if inj.Injected() == 0 {
		t.Error("no injections recorded at rate 0.3 over 64 pulses")
	}
}

// TestInjectorTargeting: a cell/pulse-targeted plan fires exactly once, at
// exactly that pulse.
func TestInjectorTargeting(t *testing.T) {
	plan := &Plan{Mode: Flip, Rate: 0, Seed: 1, Row: 0, Col: 0, Pulse: 3}
	inj, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	out := runWrapped(t, inj.NewRun(), 8)
	flipped := 0
	for _, v := range out {
		if !v {
			flipped++
		}
	}
	if flipped != 1 {
		t.Errorf("targeted fault flipped %d tokens, want exactly 1", flipped)
	}
	if inj.Injected() != 1 {
		t.Errorf("Injected() = %d, want 1", inj.Injected())
	}

	// A plan targeting a different cell never fires on this 1x1 grid.
	other, err := NewInjector(&Plan{Mode: Drop, Rate: 0, Seed: 1, Row: 5, Col: 5, Pulse: 3})
	if err != nil {
		t.Fatal(err)
	}
	out = runWrapped(t, other.NewRun(), 8)
	if len(out) != 8 {
		t.Errorf("off-target plan dropped tokens: %d of 8 delivered", len(out))
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 7}
	if d := p.Delay(0); d != 0 {
		t.Errorf("Delay(0) = %v, want 0", d)
	}
	for n := 1; n < 10; n++ {
		d := p.Delay(n)
		if d <= 0 {
			t.Errorf("Delay(%d) = %v, want > 0", n, d)
		}
		// Cap plus at most 50% jitter.
		if d > 12*time.Millisecond {
			t.Errorf("Delay(%d) = %v exceeds cap+jitter", n, d)
		}
		if p.Delay(n) != d {
			t.Errorf("Delay(%d) not deterministic", n)
		}
	}
	if (RetryPolicy{}).Delay(1) <= 0 {
		t.Error("zero-value policy must still back off")
	}
}

func TestHealthQuarantine(t *testing.T) {
	h := NewHealth(3)
	if h.RecordFailure("d") || h.RecordFailure("d") {
		t.Fatal("quarantined before k consecutive failures")
	}
	h.RecordSuccess("d") // resets the streak
	if h.RecordFailure("d") || h.RecordFailure("d") {
		t.Fatal("success did not reset the failure streak")
	}
	if !h.RecordFailure("d") {
		t.Fatal("not quarantined after k consecutive failures")
	}
	if h.RecordFailure("d") {
		t.Error("re-quarantined an already-quarantined device")
	}
	if !h.Quarantined("d") || !h.Degraded() {
		t.Error("quarantine state not visible")
	}
	if got := h.QuarantinedNames(); len(got) != 1 || got[0] != "d" {
		t.Errorf("QuarantinedNames() = %v", got)
	}
	h.Revive("d")
	if h.Quarantined("d") || h.Degraded() {
		t.Error("revive did not clear quarantine")
	}
}

func TestChecksums(t *testing.T) {
	a := BoolChecksum([]bool{true, false, true})
	b := BoolChecksum([]bool{true, false, true})
	if a != b {
		t.Error("equal vectors, different checksums")
	}
	if c := BoolChecksum([]bool{true, true, false}); c == a {
		t.Error("permuted vector collided (position must matter)")
	}
	if a.Count != 2 {
		t.Errorf("Count = %d, want 2", a.Count)
	}
	m1 := MatrixChecksum([][]bool{{true, false}, {false, true}})
	m2 := MatrixChecksum([][]bool{{true, false}, {true, true}})
	if m1 == m2 {
		t.Error("single-bit matrix change did not change the checksum")
	}

	v := Verify(VerifyChecksum, a, b)
	if !v.OK {
		t.Errorf("equal checksums rejected: %s", v.Reason)
	}
	v = Verify(VerifyChecksum, a, BoolChecksum([]bool{true, true, true}))
	if v.OK || !strings.Contains(v.Reason, "cardinality") {
		t.Errorf("cardinality mismatch not diagnosed: %+v", v)
	}
	v = Verify(VerifyChecksum, BoolChecksum([]bool{true, false}), BoolChecksum([]bool{false, true}))
	if v.OK || !strings.Contains(v.Reason, "checksum") {
		t.Errorf("parity mismatch not diagnosed: %+v", v)
	}
	if v := Verify(VerifyNone, a, Checksum{}); !v.OK {
		t.Error("VerifyNone must accept anything")
	}
}

// fakeAttempt builds an Attempt whose result is wrong whenever the wrap is
// non-nil (i.e. whenever it ran on a device with an injection plan).
func fakeAttempt(right Checksum) Attempt {
	return func(wrap systolic.Wrap) (Checksum, systolic.Stats, error) {
		st := systolic.Stats{Pulses: 10}
		if wrap != nil {
			return Checksum{Count: right.Count + 1, Parity: ^right.Parity}, st, nil
		}
		return right, st, nil
	}
}

func TestExecutorRetryAndHostFallback(t *testing.T) {
	right := BoolChecksum([]bool{true, false, true})
	plan := &Plan{Mode: Flip, Rate: 1, Seed: 1, Row: -1, Col: -1, Pulse: -1}
	e, err := NewExecutor([]Device{{Name: "bad", Plan: plan}},
		VerifyChecksum, RetryPolicy{MaxAttempts: 3}, NewHealth(10))
	if err != nil {
		t.Fatal(err)
	}
	e.HostFallback = true
	e.Sleep = func(time.Duration) {}

	st, err := e.RunTile("test", func() Checksum { return right }, fakeAttempt(right))
	if err != nil {
		t.Fatalf("host fallback should have rescued the tile: %v", err)
	}
	// 3 failed device attempts + 1 host attempt, 10 pulses each: the cost
	// model must charge all of them.
	if st.Pulses != 40 {
		t.Errorf("stats pulses = %d, want 40 (all attempts charged)", st.Pulses)
	}

	// Without host fallback the same tile exhausts.
	e2, err := NewExecutor([]Device{{Name: "bad", Plan: plan}},
		VerifyChecksum, RetryPolicy{MaxAttempts: 2}, NewHealth(10))
	if err != nil {
		t.Fatal(err)
	}
	e2.Sleep = func(time.Duration) {}
	if _, err := e2.RunTile("test", func() Checksum { return right }, fakeAttempt(right)); !errors.Is(err, ErrExhausted) {
		t.Errorf("want ErrExhausted, got %v", err)
	} else if !Recoverable(err) {
		t.Error("ErrExhausted must be recoverable")
	}

	// With every device quarantined and no fallback: ErrNoHealthyDevice.
	h := NewHealth(1)
	e3, err := NewExecutor([]Device{{Name: "bad", Plan: plan}},
		VerifyChecksum, RetryPolicy{MaxAttempts: 2}, h)
	if err != nil {
		t.Fatal(err)
	}
	e3.Sleep = func(time.Duration) {}
	if _, err := e3.RunTile("test", func() Checksum { return right }, fakeAttempt(right)); !Recoverable(err) {
		t.Fatalf("want recoverable, got %v", err)
	}
	if !h.Quarantined("bad") {
		t.Fatal("device not quarantined")
	}
	if _, err := e3.RunTile("test", func() Checksum { return right }, fakeAttempt(right)); !errors.Is(err, ErrNoHealthyDevice) {
		t.Errorf("want ErrNoHealthyDevice, got %v", err)
	}
}

func TestExecutorQuarantineRoutesToSurvivor(t *testing.T) {
	right := BoolChecksum([]bool{true, true})
	plan := &Plan{Mode: Flip, Rate: 1, Seed: 1, Row: -1, Col: -1, Pulse: -1}
	h := NewHealth(2)
	e, err := NewExecutor([]Device{
		{Name: "bad", Plan: plan},
		{Name: "good"},
	}, VerifyChecksum, RetryPolicy{MaxAttempts: 8}, h)
	if err != nil {
		t.Fatal(err)
	}
	e.Sleep = func(time.Duration) {}
	for i := 0; i < 6; i++ {
		if _, err := e.RunTile("test", func() Checksum { return right }, fakeAttempt(right)); err != nil {
			t.Fatalf("tile %d: %v", i, err)
		}
	}
	if !h.Quarantined("bad") {
		t.Error("bad device not quarantined after repeated failures")
	}
	if h.Quarantined("good") {
		t.Error("good device quarantined")
	}
}

func TestExecutorDualRun(t *testing.T) {
	// An attempt that returns a different checksum every call: dual-run
	// voting must reject it without any host reference.
	n := 0
	flaky := func(wrap systolic.Wrap) (Checksum, systolic.Stats, error) {
		n++
		return Checksum{Count: n, Parity: uint64(n)}, systolic.Stats{Pulses: 1}, nil
	}
	e, err := NewExecutor([]Device{{Name: "d"}}, VerifyDual, RetryPolicy{MaxAttempts: 2}, NewHealth(10))
	if err != nil {
		t.Fatal(err)
	}
	e.Sleep = func(time.Duration) {}
	if _, err := e.RunTile("test", nil, flaky); !errors.Is(err, ErrExhausted) {
		t.Errorf("dual-run accepted a nondeterministic tile: %v", err)
	}

	// A stable attempt passes dual verification.
	stable := func(wrap systolic.Wrap) (Checksum, systolic.Stats, error) {
		return Checksum{Count: 1, Parity: 7}, systolic.Stats{Pulses: 1}, nil
	}
	if _, err := e.RunTile("test", nil, stable); err != nil {
		t.Errorf("dual-run rejected a deterministic tile: %v", err)
	}
}

func TestVerifyModeParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want VerifyMode
	}{{"", VerifyNone}, {"none", VerifyNone}, {"checksum", VerifyChecksum}, {"dual", VerifyDual}} {
		got, err := ParseVerifyMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseVerifyMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseVerifyMode("triple"); err == nil {
		t.Error("ParseVerifyMode accepted nonsense")
	}
}
