package chaos

import "testing"

// Spec is what the round-trip property needs of a parsed spec.
type Spec interface {
	Validate() error
	String() string
}

// FuzzRoundTrip is the one property every spec grammar must hold, called
// by FuzzFaultPlan, FuzzNetChaosSpec and FuzzDiskChaosSpec: no input
// panics, an accepted spec is valid, and what it prints re-parses to a
// spec that prints the same (a campaign can be replayed from its printed
// spec). quiet, when non-nil, names the all-defaults spec: it prints "",
// which parse rejects by design (an empty flag is a mistake, not a no-op),
// so there is nothing to round-trip. ok reports whether in was accepted.
func FuzzRoundTrip[S Spec](t *testing.T, in string, parse func(string) (S, error), quiet func(S) bool) (s S, ok bool) {
	t.Helper()
	s, err := parse(in)
	if err != nil {
		return s, false // rejection is fine; no panic is the property
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("parse(%q) accepted an invalid spec: %v", in, err)
	}
	rendered := s.String()
	if rendered == "" && quiet != nil && quiet(s) {
		return s, true
	}
	s2, err := parse(rendered)
	if err != nil {
		t.Fatalf("String of %q -> %q does not re-parse: %v", in, rendered, err)
	}
	if s2.String() != rendered {
		t.Fatalf("String not canonical: %q -> %q -> %q", in, rendered, s2.String())
	}
	return s, true
}
