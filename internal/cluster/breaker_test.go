package cluster

import (
	"testing"
	"time"

	"systolicdb/internal/obs"
)

// fakeClock drives a slot's circuit through time without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// testBreaker is an unreplicated slot whose circuit opens after threshold
// failures and which never reaches quarantine, so the tests below see the
// breaker rungs alone.
func testBreaker(threshold int, cooldown time.Duration) (*shardSlot, *fakeClock) {
	return testSlot(obs.NewRegistry(), threshold, 1<<30, cooldown, false)
}

// Breaker shorthands: each asks the slot's ladder for a call, or settles
// one result of a call on the current primary.
func (s *shardSlot) allow() bool { _, _, ok := s.admit(); return ok }
func (s *shardSlot) success()    { s.settle(s.current(), callOK) }
func (s *shardSlot) failure()    { s.settle(s.current(), callTimedOut) }
func (s *shardSlot) abort()      { s.settle(s.current(), callAborted) }

func (s *shardSlot) breakerState() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slotBreaker[s.ladder.State()]
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker denied call %d", i)
		}
		b.failure()
	}
	if b.breakerState() != "closed" {
		t.Fatalf("state after 2/3 failures = %s, want closed", b.breakerState())
	}
	b.failure() // third consecutive failure opens the circuit
	if b.breakerState() != "open" {
		t.Fatalf("state after threshold failures = %s, want open", b.breakerState())
	}
	if b.allow() {
		t.Fatal("open breaker allowed a call inside the cooldown")
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	b.failure()
	b.failure()
	b.success() // breaks the consecutive run
	b.failure()
	b.failure()
	if b.breakerState() != "closed" {
		t.Fatalf("non-consecutive failures opened the circuit: %s", b.breakerState())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	b.failure()
	if b.breakerState() != "open" {
		t.Fatalf("state = %s, want open", b.breakerState())
	}

	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("cooldown elapsed but probe was denied")
	}
	if b.breakerState() != "half-open" {
		t.Fatalf("state during probe = %s, want half-open", b.breakerState())
	}
	// Only one probe at a time: a concurrent caller is still denied.
	if b.allow() {
		t.Fatal("second probe admitted while the first is in flight")
	}

	// Probe succeeds: the circuit closes and stays closed.
	b.success()
	if b.breakerState() != "closed" || !b.allow() {
		t.Fatalf("successful probe did not re-close the circuit (state %s)", b.breakerState())
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	b.failure()
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("probe denied after cooldown")
	}
	b.failure() // the probe failed
	if b.breakerState() != "open" {
		t.Fatalf("state after failed probe = %s, want open", b.breakerState())
	}
	if b.allow() {
		t.Fatal("re-opened breaker allowed a call before the next cooldown")
	}
	// The re-open restarted the cooldown clock.
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("probe denied after the second cooldown")
	}
}
