// Package chaos is the one core under the three fault layers:
// internal/fault (cells of a systolic grid, seam systolic.Wrap),
// internal/netchaos (coordinator→shard calls, seam http.RoundTripper) and
// internal/diskchaos (the WAL's storage, seam diskchaos.FS). It owns the
// two decisions they share and nothing else. The decision algorithm: every
// injection is a pure hash of the campaign seed and the event's
// coordinates (Mix64, Threshold, Fires, Draw), never shared PRNG state, so
// a campaign replays exactly from its printed spec. The spec format: a
// Grammar is a table of Fields that parses, validates, prints and
// documents a "key=value,key=value" spec. Beside them sit the per-kind
// injection Ledger and the round-trip property the layers' fuzzers call.
// The layers keep their seams, their Spec types and their custom value
// syntax, and do not import one another.
package chaos

// Gamma is the 64-bit golden-ratio increment of splitmix64.
const Gamma = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 step: a bijective avalanche over uint64. Stored
// data depends on its exact output (WAL records persist RelationChecksum
// parities; shards hold the tuples the ring assigned them), so it must
// never change.
func Mix64(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Threshold converts a probability into the bound a uniform uint64 hash is
// compared against: h < Threshold(p) holds with probability p.
func Threshold(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	}
	return uint64(p * float64(1<<63) * 2)
}

// Fires is one deterministic coin flip: whether the injection identified
// by salt fires, with probability p, at event ordinal i of the campaign.
// Distinct salts make one event's decisions independent.
func Fires(seed int64, i, salt uint64, p float64) bool {
	return p > 0 && Mix64(uint64(seed)^Mix64(i*Gamma+salt)) < Threshold(p)
}

// Draw returns a deterministic value in [0, n) for event ordinal i (0 when
// n is 0): which byte to corrupt, how much jitter to add. It spreads
// ordinals with a different multiplier than Fires, so the value drawn is
// independent of a coin flipped at the same ordinal and salt.
func Draw(seed int64, i, salt, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return Mix64(uint64(seed)^Mix64(i*0xbf58476d1ce4e5b9+salt)) % n
}
