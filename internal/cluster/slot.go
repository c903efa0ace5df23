package cluster

import (
	"fmt"
	"sync"
	"time"

	"systolicdb/internal/fault"
	"systolicdb/internal/obs"
)

// shardSlot is one ring position: a primary client, the replica that takes
// over if the primary is quarantined, and the slot's degradation ladder.
//
// The ladder is the network analogue of the fault package's device
// quarantine, with a fast transient rung in front of it. After
// BreakerThreshold consecutive failures the circuit opens and calls fail
// immediately — no connection, no timeout spent — until a cooldown passes.
// Then one half-open probe is let through: success re-closes the circuit
// (a transient partition healed), failure re-opens it for another
// cooldown. After PromoteAfter consecutive failures the primary is
// quarantined: the replica is promoted onto a fresh closed circuit, or,
// with no replica left, the slot is terminal.
//
// Only real call outcomes are evidence: open-circuit denials are fail-fast
// conveniences, so a partition walks toward quarantine at one half-open
// probe per cooldown, while a burst of transient noise that opens the
// circuit heals on the first successful probe without threatening
// promotion. Everything below mu is guarded by it.
type shardSlot struct {
	id  int
	opt CoordinatorOptions // BreakerThreshold, PromoteAfter and BreakerCooldown

	mu       sync.RWMutex
	primary  *ShardClient
	replica  *ShardClient // nil = unreplicated (or already consumed)
	promoted bool
	ladder   *fault.Ladder[string]
	fails    int // consecutive failures charged to the circuit
	strikes  int // consecutive failures charged to quarantine
}

// The slot's rungs.
const (
	slotClosed   = iota // calls flow
	slotOpen            // calls fail fast until the cooldown passes
	slotHalfOpen        // the next call is the probe
	slotProbing         // the probe is in flight; other calls fail fast
	slotTerminal        // quarantined with no replica left to promote
)

// slotBreaker names each rung's circuit for /healthz. A terminal slot's
// circuit stays as the stranding failure left it: open, unless the slot was
// stranded before its circuit had taken a threshold of failures.
var slotBreaker = [...]string{slotClosed: "closed", slotOpen: "open", slotHalfOpen: "half-open",
	slotProbing: "half-open", slotTerminal: "open"}

// The slot's events.
const (
	slotNone    = iota - 1 // no event: settle took no result (a stale primary's, or a terminal slot's)
	slotCall               // a call asks to run
	slotCooled             // a call asks to run on an open circuit whose cooldown has passed
	slotSuccess            // the primary answered
	slotFail               // the primary failed, short of opening the circuit
	slotTrip               // the failure that opens a closed circuit
	slotRelease            // the probe ended without evidence either way
	slotPromote            // the failure that quarantines the primary, onto the replica
	slotStrand             // the failure that quarantines the primary, with no replica left
)

// slotTable is the slot's transition table. A refused call is a breaker
// denial (or, when terminal, the end of the ladder); any other refused
// event is evidence the rung has no use for. Terminal refuses everything.
var slotTable = fault.Table{
	slotClosed: {slotCall: slotClosed, slotSuccess: slotClosed, slotFail: slotClosed, slotTrip: slotOpen,
		slotPromote: slotClosed, slotStrand: slotTerminal},
	slotOpen: {slotCooled: slotProbing, slotSuccess: slotClosed, slotFail: slotOpen,
		slotPromote: slotClosed, slotStrand: slotTerminal},
	slotHalfOpen: {slotCall: slotProbing, slotSuccess: slotClosed, slotFail: slotOpen,
		slotPromote: slotClosed, slotStrand: slotTerminal},
	slotProbing: {slotSuccess: slotClosed, slotFail: slotOpen, slotRelease: slotHalfOpen,
		slotPromote: slotClosed, slotStrand: slotTerminal},
}

// defaultBreakerCooldown is the open period before a half-open probe.
const defaultBreakerCooldown = 500 * time.Millisecond

// newShardSlot builds slot id over its clients. now is the ladder's clock,
// which times the cooldown.
func newShardSlot(id int, primary, replica *ShardClient, opt CoordinatorOptions, reg *obs.Registry, now func() time.Time) *shardSlot {
	if opt.BreakerCooldown <= 0 {
		opt.BreakerCooldown = defaultBreakerCooldown
	}
	s := &shardSlot{id: id, opt: opt, primary: primary, replica: replica}
	s.ladder = fault.NewLadder(slotTable, func(_, _, on int, _ string) {
		if on == slotPromote {
			reg.Counter("cluster_promotions_total", obs.Labels{"shard": s.name()}).Inc()
		}
	}, now)
	return s
}

// promote makes the replica the slot's primary. Caller holds mu.
func (s *shardSlot) promote() { s.primary, s.replica, s.promoted = s.replica, nil, true }

func (s *shardSlot) name() string { return fmt.Sprintf("shard-%d", s.id) }

func (s *shardSlot) current() *ShardClient {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.primary
}

// admit asks the ladder to let one call through, and returns the primary
// to call and the rung that answered. An open circuit admits exactly one
// half-open probe once its cooldown has passed.
func (s *shardSlot) admit() (*ShardClient, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	on, rung := slotCall, s.ladder.State()
	if rung == slotOpen && s.ladder.Since() >= s.opt.BreakerCooldown {
		on = slotCooled
	}
	return s.primary, rung, s.ladder.Move(on, "")
}

// callResult is what an admitted call reports back to its slot.
type callResult int

const (
	callOK       callResult = iota // the primary answered
	callFailed                     // a retryable failure: evidence for the circuit and for quarantine
	callTimedOut                   // a retryable failure on the way out of the ladder: evidence for the circuit only
	callAborted                    // the shard answered, the request was bad: no evidence
)

// settle charges the result of a call admitted against cl to the slot and
// returns the event the ladder took, or slotNone when it took none. Under
// concurrent load dozens of in-flight calls can finish against a primary
// that one of them has already had demoted; their results are stale, and
// must neither re-close the new primary's circuit nor re-quarantine it
// (that would consume the slot's last rung and go terminal). They are
// refused here, once for every result.
//
// The promoted replica has been following the old primary's WAL, and
// dual-written PUTs make it current for every acked write — promotion
// loses nothing that was acknowledged.
func (s *shardSlot) settle(cl *ShardClient, res callResult) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	from, on := s.ladder.State(), slotFail
	switch {
	case s.primary != cl:
		return slotNone
	case res == callOK:
		on = slotSuccess
	case res == callAborted:
		on = slotRelease
	case res == callFailed && s.strikes+1 >= s.opt.PromoteAfter && s.replica == nil:
		on = slotStrand
	case res == callFailed && s.strikes+1 >= s.opt.PromoteAfter:
		on = slotPromote
	case from == slotClosed && s.fails+1 >= s.opt.BreakerThreshold:
		on = slotTrip
	}
	if !s.ladder.Move(on, "") {
		return slotNone
	}
	switch on {
	case slotPromote:
		s.promote()
		fallthrough
	case slotSuccess:
		s.fails, s.strikes = 0, 0
	case slotFail, slotTrip, slotStrand:
		if from == slotClosed {
			s.fails++
		}
		if res == callFailed {
			s.strikes++
		}
	}
	return on
}
