package chaos

import (
	"sync/atomic"

	"systolicdb/internal/obs"
)

// Ledger counts a layer's injections per kind, for tests and campaign
// accounting, and mirrors each into <layer>_injections_total{kind=...}.
// Every kind's series is registered up front, so /metrics shows the full
// set from the first scrape rather than after the first injection.
type Ledger struct {
	slots map[string]*slot // fixed at construction; only the slots mutate
}

type slot struct {
	n      atomic.Int64 // since the ledger was built; the registry may be shared
	metric *obs.Counter
}

// NewLedger registers one counter per kind in reg (nil selects obs.Default).
func NewLedger(reg *obs.Registry, layer string, kinds []string) *Ledger {
	if reg == nil {
		reg = obs.Default
	}
	l := &Ledger{slots: make(map[string]*slot, len(kinds))}
	for _, kind := range kinds {
		l.slots[kind] = &slot{metric: reg.Counter(layer+"_injections_total", obs.Labels{"kind": kind})}
	}
	return l
}

// Record counts one injection of a kind the ledger was built with.
func (l *Ledger) Record(kind string) {
	s := l.slots[kind]
	s.n.Add(1)
	s.metric.Inc()
}

// Counts returns per-kind injection totals since the ledger was built.
func (l *Ledger) Counts() map[string]int64 {
	out := make(map[string]int64, len(l.slots))
	for kind, s := range l.slots {
		out[kind] = s.n.Load()
	}
	return out
}

// Total returns the number of injections across all kinds.
func (l *Ledger) Total() int64 {
	var sum int64
	for _, s := range l.slots {
		sum += s.n.Load()
	}
	return sum
}
