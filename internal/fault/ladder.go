// Degradation ladders: the one state machine behind quarantine, the shard
// circuit breaker and promotion, the read-only latch, the drain lifecycle
// and the WAL's wedge.
package fault

import (
	"slices"
	"sync/atomic"
	"time"
)

// Table is a ladder's transition table: table[from][on] is the rung that
// event on moves the ladder to from rung from. Rungs and events are small
// integers each ladder names for itself.
type Table map[int]map[int]int

// A latch is the two-rung ladder that device quarantine and the server's
// read-only storage share: LatchTrip holds it at LatchHeld for its cause,
// held causes accumulate, LatchClear releases one (every cause, for the
// zero cause), and the base returns with the last.
const (
	LatchTrip, LatchClear = 0, 1
	LatchHeld             = 1
)

// Latch is the latch's transition table.
var Latch = Table{0: {LatchTrip: LatchHeld}, LatchHeld: {LatchTrip: LatchHeld, LatchClear: 0}}

// Ladder is one degradation ladder: a rung, the causes holding it there,
// and the time it was entered. Only Move changes it, by looking the (rung,
// event) pair up in the ladder's transition table; a pair with no rule is
// refused and changes nothing.
//
// Rung 0 is the base, where nothing is wrong. An event that moves the
// ladder anywhere else adds its cause to the held set; an event that moves
// it to the base releases its cause (every cause, for the zero cause), and
// the ladder reaches the base only once no cause holds it. Causes are
// compared with ==, so an interface cause must hold comparable values (an
// error cause made by fmt.Errorf or errors.New is a pointer).
//
// A Ladder has no lock: its owner calls Move and the accessors under the
// lock that guards the rest of its data. State alone may be read without it.
type Ladder[C comparable] struct {
	table  Table
	count  func(from, to, on int, cause C)
	now    func() time.Time
	state  atomic.Int64
	causes []C
	since  time.Time
}

// NewLadder returns a ladder on its base rung. count, when non-nil, updates
// the owner's counters and gauges for each accepted move; Move is its only
// caller. now stamps entry times (time.Now outside tests).
func NewLadder[C comparable](table Table, count func(from, to, on int, cause C), now func() time.Time) *Ladder[C] {
	return &Ladder[C]{table: table, count: count, now: now, since: now()}
}

// Move fires event on for cause (the zero C for none) and reports whether
// the ladder accepted it. Besides a pair missing from the table, Move
// refuses a cause that is already held on a self-loop and the release of a
// cause that is not held: neither would change anything.
func (l *Ladder[C]) Move(on int, cause C) bool {
	from := l.State()
	to, ok := l.table[from][on]
	var none C
	switch held := slices.Index(l.causes, cause); {
	case !ok, cause != none && (to == 0 && held < 0 || from == to && held >= 0):
		return false // no rule, a stray release, or a cause already held
	case cause == none && to == 0:
		l.causes = nil
	case cause == none:
	case to == 0:
		l.causes = slices.Delete(l.causes, held, held+1)
		if len(l.causes) > 0 {
			to = from // other causes still hold the rung
		}
	case held < 0:
		l.causes = append(l.causes, cause)
	}
	if to != from {
		l.state.Store(int64(to))
		l.since = l.now()
	}
	if l.count != nil {
		l.count(from, to, on, cause)
	}
	return true
}

// State is the ladder's current rung.
func (l *Ladder[C]) State() int { return int(l.state.Load()) }

// Causes are the causes holding the ladder, earliest first. The slice is
// the ladder's own: copy it to keep or change it.
func (l *Ladder[C]) Causes() []C { return l.causes }

// Cause is the earliest cause still held, or the zero C.
func (l *Ladder[C]) Cause() (first C) {
	if len(l.causes) > 0 {
		first = l.causes[0]
	}
	return first
}

// Since is how long the ladder has been on its current rung.
func (l *Ladder[C]) Since() time.Duration { return l.now().Sub(l.since) }
