package netchaos

import (
	"testing"

	"systolicdb/internal/chaos"
)

// FuzzNetChaosSpec checks the ParseSpec -> String -> ParseSpec round trip
// (chaos.FuzzRoundTrip, the property all three chaos grammars share).
func FuzzNetChaosSpec(f *testing.F) {
	for _, s := range []string{
		"seed=7,drop=0.05,latency=20ms±10ms,partition=shard1:30s,corrupt=0.01,dup=0.02",
		"drop=1",
		"dropresp=0.25,dup=0.5",
		"latency=5ms+-2ms",
		"partition=127.0.0.1:7001:2s+5s:oneway",
		"partition=a:1s,partition=b:0s",
		"seed=-9223372036854775808",
		"corrupt=0.999999",
		"",
		"drop=",
		"partition=:=:",
		"partition=a:5s:junk",
		"latency=±1ms",
		"drop=NaN",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		chaos.FuzzRoundTrip(t, spec, ParseSpec, (*Spec).Quiet)
	})
}

// Quiet reports whether the spec injects nothing at all.
func (s *Spec) Quiet() bool { return s.grammar().Quiet() }
