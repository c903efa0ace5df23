package fault

import (
	"testing"

	"systolicdb/internal/chaos"
)

// FuzzFaultPlan exercises the -fault spec parser with the round-trip
// property shared by the three chaos grammars (chaos.FuzzRoundTrip), and
// additionally requires every accepted plan to build an injector.
func FuzzFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"flip:rate=0.01,seed=42",
		"drop:cell=2x1,pulse=3",
		"stuck:cell=0x0,pulse=5,val=1",
		"misroute:rate=1",
		"flaky:rate=0.05",
		"flip:rate=1e-3",
		"drop: rate = 0.5 , seed = -1 ",
		"flip:",
		":::",
		"flip:cell=-1x-1,pulse=0",
		"flip:rate=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if p, ok := chaos.FuzzRoundTrip(t, spec, ParsePlan, nil); ok {
			if _, err := NewInjector(p); err != nil {
				t.Fatalf("valid plan %q rejected by NewInjector: %v", p, err)
			}
		}
	})
}
