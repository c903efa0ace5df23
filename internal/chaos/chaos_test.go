package chaos

import (
	"math"
	"strings"
	"testing"
	"time"

	"systolicdb/internal/obs"
)

func TestDecisionEdges(t *testing.T) {
	if Threshold(0) != 0 || Threshold(-1) != 0 || Threshold(1) != math.MaxUint64 || Threshold(0.5) != 1<<63 {
		t.Errorf("Threshold endpoints: %d %d %d %d", Threshold(0), Threshold(-1), Threshold(1), Threshold(0.5))
	}
	fired := 0
	for i := uint64(0); i < 1000; i++ {
		if Fires(7, i, 1, 0) || Fires(7, i, 1, math.NaN()) {
			t.Fatalf("ordinal %d fired at probability 0 or NaN", i)
		}
		if !Fires(7, i, 1, 1) {
			t.Fatalf("ordinal %d did not fire at probability 1", i)
		}
		if Fires(7, i, 1, 0.25) {
			fired++
		}
		if d := Draw(7, i, 1, 10); d >= 10 {
			t.Fatalf("Draw(…, 10) = %d", d)
		}
	}
	if fired < 200 || fired > 300 {
		t.Errorf("p=0.25 fired %d of 1000 times", fired)
	}
	if Draw(7, 3, 1, 0) != 0 {
		t.Error("Draw over an empty range must be 0")
	}
}

// toy is a spec with one field of each kind the grammar knows.
type toy struct {
	seed int64
	p    float64
	d    time.Duration
	tags []string
}

func (s *toy) grammar() Grammar {
	return Grammar{Layer: "toy", Fields: []Field{
		Seed(&s.seed), Prob("p", &s.p), Dur("d", &s.d),
		{Key: "tag", Usage: "T",
			Parse:  func(v string) error { s.tags = append(s.tags, v); return nil },
			Render: func() []string { return s.tags }},
	}}
}

func TestGrammar(t *testing.T) {
	var s toy
	if err := s.grammar().Parse(" tag = b , d=5ms,, p = 0.50 ,seed=-3,tag=a"); err != nil {
		t.Fatal(err)
	}
	if got, want := s.grammar().String(), "seed=-3,p=0.5,d=5ms,tag=b,tag=a"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := s.grammar().Usage(), "seed=N,p=P,d=DUR,tag=T"; got != want {
		t.Errorf("Usage = %q, want %q", got, want)
	}
	if s.grammar().Quiet() || !(&toy{seed: 9}).grammar().Quiet() {
		t.Error("Quiet must ignore the seed and nothing else")
	}
	for _, bad := range []string{"", ",", " , ", "p", "q=1", "seed=x", "d=fast"} {
		err := new(toy).grammar().Parse(bad)
		if err == nil || !strings.HasPrefix(err.Error(), "toy: ") {
			t.Errorf("Parse(%q) = %v, want a toy: error", bad, err)
		}
	}
	// Specs are also filled by hand, so Validate must not rely on Parse.
	for _, bad := range []toy{{p: math.NaN()}, {p: math.Inf(1)}, {p: -0.1}, {p: 1.1}, {d: -1}} {
		if err := bad.grammar().Validate(); err == nil || !strings.HasPrefix(err.Error(), "toy: ") {
			t.Errorf("Validate(%+v) = %v, want a toy: error", bad, err)
		}
	}
	if err := s.grammar().Validate(); err != nil {
		t.Error(err)
	}
}

func TestLedger(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLedger(reg, "toy", []string{"a", "b"})
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{`toy_injections_total{kind="a"} 0`, `toy_injections_total{kind="b"} 0`} {
		if !strings.Contains(text.String(), series) {
			t.Errorf("series %s not registered before the first injection:\n%s", series, text.String())
		}
	}
	l.Record("a")
	l.Record("a")
	l.Record("b")
	if c := l.Counts(); c["a"] != 2 || c["b"] != 1 || l.Total() != 3 {
		t.Errorf("Counts = %v, Total = %d", c, l.Total())
	}
	// A second ledger on the shared registry adds to the same series but
	// keeps its own counts.
	l2 := NewLedger(reg, "toy", []string{"a", "b"})
	l2.Record("b")
	if l2.Total() != 1 || l.Total() != 3 {
		t.Errorf("ledgers share counts: %d, %d", l2.Total(), l.Total())
	}
	if v := reg.Counter("toy_injections_total", obs.Labels{"kind": "b"}).Value(); v != 2 {
		t.Errorf("shared series = %d, want 2", v)
	}
}
