package diskchaos

import (
	"testing"

	"systolicdb/internal/chaos"
)

// FuzzDiskChaosSpec checks the ParseSpec -> String -> ParseSpec round trip
// (chaos.FuzzRoundTrip, the property all three chaos grammars share).
func FuzzDiskChaosSpec(f *testing.F) {
	for _, s := range []string{
		"seed=7,enospc=0.01,eio-write=0.005,shortwrite=0.02,fsync-lie=0.01,bitrot-read=0.001,slow=5ms",
		"enospc=1",
		"eio-write=0.25,bitrot-read=0.5",
		"slow=150ms",
		"at=0:enospc",
		"at=18446744073709551615:bitrot-read,at=3:fsync-lie",
		"seed=-9223372036854775808",
		"shortwrite=0.999999",
		"",
		"enospc=",
		"at=:",
		"slow=±1ms",
		"enospc=NaN",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		chaos.FuzzRoundTrip(t, spec, ParseSpec, (*Spec).Quiet)
	})
}

// Quiet reports whether the spec injects nothing at all.
func (s *Spec) Quiet() bool { return s.grammar().Quiet() }
