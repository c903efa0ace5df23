//go:build race

package systolic

// A sync.Pool drops a random share of what it is given under the race
// detector, so a test that needs a released grid back skips there.
func init() { raceEnabled = true }
