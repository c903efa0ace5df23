package cluster

// White-box tests for withFailover's breaker accounting and writeBoth's
// promotion race: both invariants are about what happens between a call's
// network outcome and the slot's accounting, so they drive the unexported
// pieces directly instead of standing up HTTP shards.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"systolicdb/internal/fault"
	"systolicdb/internal/obs"
	"systolicdb/internal/relation"
)

func testParse(string) (*relation.Relation, error) {
	return nil, fmt.Errorf("testParse: not a real client")
}

func testCoordinator() *Coordinator {
	return &Coordinator{
		opt:    CoordinatorOptions{Retry: fault.RetryPolicy{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 1}},
		reg:    obs.NewRegistry(),
		widths: map[string]int{},
		rows:   map[string]int{},
	}
}

// testSlot builds slot 0 on a fake clock, counting into reg.
func testSlot(reg *obs.Registry, threshold, promoteAfter int, cooldown time.Duration, replicated bool) (*shardSlot, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	var replica *ShardClient
	if replicated {
		replica = NewShardClient("http://replica.invalid", testParse, ClientOptions{})
	}
	opt := CoordinatorOptions{BreakerThreshold: threshold, PromoteAfter: promoteAfter, BreakerCooldown: cooldown}
	primary := NewShardClient("http://primary.invalid", testParse, ClientOptions{})
	return newShardSlot(0, primary, replica, opt, reg, clk.now), clk
}

// TestWithFailoverSettlesProbeOnContextExpiry pins the fix for the wedged
// half-open breaker: a probe that dies on the context path (the dominant
// outcome when probing into a partition) used to return early without
// reporting to the breaker, leaving probing=true forever — every later
// Allow denied until restart. The probe's failure must re-open the
// circuit and the next cooldown must admit a fresh probe.
func TestWithFailoverSettlesProbeOnContextExpiry(t *testing.T) {
	c := testCoordinator()
	slot, clk := testSlot(c.reg, 1, 3, time.Second, false)

	// Open the circuit, then pass the cooldown so the next admitted call
	// is the half-open probe.
	slot.failure()
	clk.advance(time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	_, err := withFailover(ctx, c, slot, func(*ShardClient) (struct{}, error) {
		// The probe is in flight when the caller's deadline expires; the
		// transport surfaces a retryable connection error.
		cancel()
		return struct{}{}, fmt.Errorf("read tcp: i/o timeout")
	})
	if err == nil {
		t.Fatal("withFailover succeeded through an expired context")
	}
	if got := slot.breakerState(); got != "open" {
		t.Fatalf("breaker state after failed probe = %s, want open", got)
	}
	clk.advance(time.Second)
	if !slot.allow() {
		t.Fatal("breaker wedged: no probe admitted after the next cooldown")
	}
}

// TestWithFailoverReleasesProbeOnNonRetryableError: a probe answered with
// a query-fatal error proves the shard is reachable — no breaker charge,
// but the probe slot must be released so the ladder can keep probing.
func TestWithFailoverReleasesProbeOnNonRetryableError(t *testing.T) {
	c := testCoordinator()
	slot, clk := testSlot(c.reg, 1, 3, time.Second, false)
	slot.failure()
	clk.advance(time.Second)

	_, err := withFailover(context.Background(), c, slot, func(*ShardClient) (struct{}, error) {
		return struct{}{}, fmt.Errorf("shard answered: %w", context.Canceled)
	})
	if err == nil {
		t.Fatal("withFailover retried a non-retryable error to success")
	}
	if !slot.allow() {
		t.Fatal("probe slot not released after a non-retryable answer")
	}
}

// TestBreakerAbortReleasesProbe pins Abort at the breaker level: it
// clears the in-flight probe mark without charging the circuit.
func TestBreakerAbortReleasesProbe(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	b.failure()
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("probe denied after cooldown")
	}
	b.abort()
	if b.breakerState() != "half-open" {
		t.Fatalf("state after Abort = %s, want half-open", b.breakerState())
	}
	if !b.allow() {
		t.Fatal("Abort did not release the probe slot")
	}
}

// TestWriteBothRerunsAfterConcurrentPromotion pins the dual-write race:
// when a promotion lands between the primary's ack and the replica
// lookup, the acked copy lives only on the demoted ex-primary. writeBoth
// must re-run the mutation against the new primary before acking, or the
// zero acked-write-loss invariant breaks.
func TestWriteBothRerunsAfterConcurrentPromotion(t *testing.T) {
	c := testCoordinator()
	slot, _ := testSlot(c.reg, 3, 3, time.Second, true)
	oldPrimary, replica := slot.primary, slot.replica

	var got []*ShardClient
	fired := false
	err := c.writeBoth(context.Background(), slot, func(cl *ShardClient) error {
		got = append(got, cl)
		if !fired {
			fired = true
			// A concurrent recordFailure promotes the replica while this
			// write's ack is still in flight.
			slot.mu.Lock()
			slot.primary = slot.replica
			slot.replica = nil
			slot.promoted = true
			slot.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != oldPrimary || got[1] != replica {
		t.Fatalf("write path = %v, want [ex-primary, promoted replica]", got)
	}
}

// TestWriteBothWritesPrimaryThenReplica: the undisturbed path writes both
// copies exactly once.
func TestWriteBothWritesPrimaryThenReplica(t *testing.T) {
	c := testCoordinator()
	slot, _ := testSlot(c.reg, 3, 3, time.Second, true)

	var got []*ShardClient
	err := c.writeBoth(context.Background(), slot, func(cl *ShardClient) error {
		got = append(got, cl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != slot.primary || got[1] != slot.replica {
		t.Fatalf("write path = %v, want [primary, replica]", got)
	}
}

// TestRecordSuccessIgnoresStaleClient: a success answered by a demoted
// ex-primary must not re-close the new primary's breaker.
func TestRecordSuccessIgnoresStaleClient(t *testing.T) {
	c := testCoordinator()
	slot, _ := testSlot(c.reg, 1, 3, time.Second, true)
	stale := slot.primary

	// Promote, then open the new primary's circuit.
	slot.mu.Lock()
	slot.primary = slot.replica
	slot.replica = nil
	slot.mu.Unlock()
	slot.failure()
	if slot.breakerState() != "open" {
		t.Fatalf("setup: breaker %s, want open", slot.breakerState())
	}

	slot.settle(stale, callOK)
	if slot.breakerState() != "open" {
		t.Fatalf("stale success re-closed the new primary's breaker (state %s)", slot.breakerState())
	}
}
