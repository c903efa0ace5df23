package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSlotLadder enumerates the shard slot's degradation ladder — circuit
// breaker, quarantine, promotion onto the replica — over every (state,
// event) pair. A state is named by the path of events that reaches it from
// a fresh slot (breaker threshold 2, promote after 3, cooldown 1s); a row
// records the state one more event leaves behind, whether the event was
// refused (a denied call, or another event with no observable effect), and the
// promotions it counted. The "-stale" events come from a client that is
// not the slot's primary.
func TestSlotLadder(t *testing.T) {
	states := []struct {
		name       string
		replicated bool
		path       []string
	}{
		{"closed", true, nil},
		{"closed-1", true, []string{"failure"}},
		{"open", true, []string{"failure", "failure"}},
		{"probing", true, []string{"failure", "failure", "cooled"}},
		{"half-open", true, []string{"failure", "failure", "cooled", "abort-fatal"}},
		{"promoted", true, []string{"failure", "failure", "failure"}},
		{"open-solo", false, []string{"failure", "failure"}},
		{"terminal", false, []string{"failure", "failure", "failure"}},
	}
	events := []string{"call", "cooled", "success", "success-stale", "failure", "failure-stale",
		"abort-retryable", "abort-retryable-stale", "abort-fatal", "abort-fatal-stale"}
	type outcome struct {
		want       string
		refused    bool
		promotions int64
	}
	rows := map[[2]string]outcome{
		{"closed", "call"}:                     {"closed f=0 s=0", false, 0},
		{"closed", "cooled"}:                   {"closed f=0 s=0", false, 0},
		{"closed", "success"}:                  {"closed f=0 s=0", true, 0},
		{"closed", "success-stale"}:            {"closed f=0 s=0", true, 0},
		{"closed", "failure"}:                  {"closed f=1 s=1", false, 0},
		{"closed", "failure-stale"}:            {"closed f=0 s=0", true, 0},
		{"closed", "abort-retryable"}:          {"closed f=1 s=0", false, 0},
		{"closed", "abort-retryable-stale"}:    {"closed f=0 s=0", true, 0},
		{"closed", "abort-fatal"}:              {"closed f=0 s=0", true, 0},
		{"closed", "abort-fatal-stale"}:        {"closed f=0 s=0", true, 0},
		{"closed-1", "call"}:                   {"closed f=1 s=1", false, 0},
		{"closed-1", "cooled"}:                 {"closed f=1 s=1", false, 0},
		{"closed-1", "success"}:                {"closed f=0 s=0", false, 0},
		{"closed-1", "success-stale"}:          {"closed f=1 s=1", true, 0},
		{"closed-1", "failure"}:                {"open f=2 s=2", false, 0},
		{"closed-1", "failure-stale"}:          {"closed f=1 s=1", true, 0},
		{"closed-1", "abort-retryable"}:        {"open f=2 s=1", false, 0},
		{"closed-1", "abort-retryable-stale"}:  {"closed f=1 s=1", true, 0},
		{"closed-1", "abort-fatal"}:            {"closed f=1 s=1", true, 0},
		{"closed-1", "abort-fatal-stale"}:      {"closed f=1 s=1", true, 0},
		{"open", "call"}:                       {"open f=2 s=2", true, 0},
		{"open", "cooled"}:                     {"probing f=2 s=2", false, 0},
		{"open", "success"}:                    {"closed f=0 s=0", false, 0},
		{"open", "success-stale"}:              {"open f=2 s=2", true, 0},
		{"open", "failure"}:                    {"closed f=0 s=0 promoted", false, 1},
		{"open", "failure-stale"}:              {"open f=2 s=2", true, 0},
		{"open", "abort-retryable"}:            {"open f=2 s=2", true, 0},
		{"open", "abort-retryable-stale"}:      {"open f=2 s=2", true, 0},
		{"open", "abort-fatal"}:                {"open f=2 s=2", true, 0},
		{"open", "abort-fatal-stale"}:          {"open f=2 s=2", true, 0},
		{"probing", "call"}:                    {"probing f=2 s=2", true, 0},
		{"probing", "cooled"}:                  {"probing f=2 s=2", true, 0},
		{"probing", "success"}:                 {"closed f=0 s=0", false, 0},
		{"probing", "success-stale"}:           {"probing f=2 s=2", true, 0},
		{"probing", "failure"}:                 {"closed f=0 s=0 promoted", false, 1},
		{"probing", "failure-stale"}:           {"probing f=2 s=2", true, 0},
		{"probing", "abort-retryable"}:         {"open f=2 s=2", false, 0},
		{"probing", "abort-retryable-stale"}:   {"probing f=2 s=2", true, 0},
		{"probing", "abort-fatal"}:             {"half-open f=2 s=2", false, 0},
		{"probing", "abort-fatal-stale"}:       {"probing f=2 s=2", true, 0},
		{"half-open", "call"}:                  {"probing f=2 s=2", false, 0},
		{"half-open", "cooled"}:                {"probing f=2 s=2", false, 0},
		{"half-open", "success"}:               {"closed f=0 s=0", false, 0},
		{"half-open", "success-stale"}:         {"half-open f=2 s=2", true, 0},
		{"half-open", "failure"}:               {"closed f=0 s=0 promoted", false, 1},
		{"half-open", "failure-stale"}:         {"half-open f=2 s=2", true, 0},
		{"half-open", "abort-retryable"}:       {"open f=2 s=2", false, 0},
		{"half-open", "abort-retryable-stale"}: {"half-open f=2 s=2", true, 0},
		{"half-open", "abort-fatal"}:           {"half-open f=2 s=2", true, 0},
		{"half-open", "abort-fatal-stale"}:     {"half-open f=2 s=2", true, 0},
		{"promoted", "call"}:                   {"closed f=0 s=0 promoted", false, 0},
		{"promoted", "cooled"}:                 {"closed f=0 s=0 promoted", false, 0},
		{"promoted", "success"}:                {"closed f=0 s=0 promoted", true, 0},
		{"promoted", "success-stale"}:          {"closed f=0 s=0 promoted", true, 0},
		{"promoted", "failure"}:                {"closed f=1 s=1 promoted", false, 0},
		{"promoted", "failure-stale"}:          {"closed f=0 s=0 promoted", true, 0},
		{"promoted", "abort-retryable"}:        {"closed f=1 s=0 promoted", false, 0},
		{"promoted", "abort-retryable-stale"}:  {"closed f=0 s=0 promoted", true, 0},
		{"promoted", "abort-fatal"}:            {"closed f=0 s=0 promoted", true, 0},
		{"promoted", "abort-fatal-stale"}:      {"closed f=0 s=0 promoted", true, 0},
		{"open-solo", "call"}:                  {"open f=2 s=2", true, 0},
		{"open-solo", "cooled"}:                {"probing f=2 s=2", false, 0},
		{"open-solo", "success"}:               {"closed f=0 s=0", false, 0},
		{"open-solo", "success-stale"}:         {"open f=2 s=2", true, 0},
		{"open-solo", "failure"}:               {"terminal", false, 0},
		{"open-solo", "failure-stale"}:         {"open f=2 s=2", true, 0},
		{"open-solo", "abort-retryable"}:       {"open f=2 s=2", true, 0},
		{"open-solo", "abort-retryable-stale"}: {"open f=2 s=2", true, 0},
		{"open-solo", "abort-fatal"}:           {"open f=2 s=2", true, 0},
		{"open-solo", "abort-fatal-stale"}:     {"open f=2 s=2", true, 0},
		{"terminal", "call"}:                   {"terminal", true, 0},
		{"terminal", "cooled"}:                 {"terminal", true, 0},
		{"terminal", "success"}:                {"terminal", true, 0},
		{"terminal", "success-stale"}:          {"terminal", true, 0},
		{"terminal", "failure"}:                {"terminal", true, 0},
		{"terminal", "failure-stale"}:          {"terminal", true, 0},
		{"terminal", "abort-retryable"}:        {"terminal", true, 0},
		{"terminal", "abort-retryable-stale"}:  {"terminal", true, 0},
		{"terminal", "abort-fatal"}:            {"terminal", true, 0},
		{"terminal", "abort-fatal-stale"}:      {"terminal", true, 0},
	}
	for _, st := range states {
		for _, ev := range events {
			path := append(append([]string(nil), st.path...), ev)
			h := runSlot(st.replicated, st.path)
			before, promos := h.observe(st.replicated, st.path), h.promotions()
			denied := h.fire(ev)
			got := outcome{want: h.observe(st.replicated, path), promotions: h.promotions() - promos}
			if ev == "call" || ev == "cooled" {
				got.refused = denied
			} else {
				got.refused = got.want == before && got.promotions == 0
			}
			if want, ok := rows[[2]string{st.name, ev}]; !ok || got != want {
				t.Errorf("(%s, %s) = %#v, want %#v", st.name, ev, got, want)
			}
		}
	}
	// Topology reports a terminal slot's circuit as the stranding failure
	// left it: open at the threshold above, still closed when the breaker
	// threshold is above PromoteAfter.
	for threshold, want := range map[int]string{2: "open", 5: "closed"} {
		c := testCoordinator()
		slot, _ := testSlot(c.reg, threshold, 3, time.Second, false)
		c.slots = []*shardSlot{slot}
		for range 3 {
			slot.settle(slot.current(), callFailed)
		}
		if got := c.Topology()[0]; !got.Quarantined || got.Breaker != want {
			t.Errorf("threshold %d: terminal topology %+v, want quarantined with breaker %q", threshold, got, want)
		}
	}
}

// slotHarness drives one shard slot through the coordinator's ladder
// methods, with a fake clock for the breaker cooldown.
type slotHarness struct {
	c     *Coordinator
	slot  *shardSlot
	clk   *fakeClock
	stale *ShardClient
}

// runSlot builds a fresh slot and fires path at it.
func runSlot(replicated bool, path []string) *slotHarness {
	c := testCoordinator()
	slot, clk := testSlot(c.reg, 2, 3, time.Second, replicated)
	h := &slotHarness{c: c, slot: slot, clk: clk,
		stale: NewShardClient("http://stale.invalid", testParse, ClientOptions{})}
	for _, ev := range path {
		h.fire(ev)
	}
	return h
}

// fire delivers one event and reports whether it was a denied call.
func (h *slotHarness) fire(ev string) (denied bool) {
	cl := h.slot.current()
	if strings.HasSuffix(ev, "-stale") {
		cl = h.stale
	}
	switch strings.TrimSuffix(ev, "-stale") {
	case "cooled":
		h.clk.advance(time.Second)
		fallthrough
	case "call":
		_, _, ok := h.slot.admit()
		return !ok
	case "success":
		h.slot.settle(cl, callOK)
	case "failure":
		h.slot.settle(cl, callFailed)
	case "abort-retryable":
		h.slot.settle(cl, callTimedOut)
	case "abort-fatal":
		h.slot.settle(cl, callAborted)
	}
	return false
}

// observe renders the slot's rung, breaker failure streak f and
// quarantine strike streak s; a quarantined slot is "terminal". The strike
// streak is read off a replay of path: the number of further failures the
// replayed slot takes to reach quarantine.
func (h *slotHarness) observe(replicated bool, path []string) string {
	s := h.slot
	s.mu.RLock()
	promoted := s.promoted
	s.mu.RUnlock()
	var out string
	s.mu.RLock()
	rung, f := s.ladder.State(), s.fails
	s.mu.RUnlock()
	switch rung {
	case slotTerminal:
		out = "terminal"
	case slotProbing:
		out = fmt.Sprintf("probing f=%d s=%d", f, 3-failuresToQuarantine(replicated, path))
	default:
		out = fmt.Sprintf("%s f=%d s=%d", slotBreaker[rung], f, 3-failuresToQuarantine(replicated, path))
	}
	if promoted {
		out += " promoted"
	}
	return out
}

func failuresToQuarantine(replicated bool, path []string) int {
	r := runSlot(replicated, path)
	for n := 1; ; n++ {
		if on := r.slot.settle(r.slot.current(), callFailed); on == slotPromote || on == slotStrand {
			return n
		}
	}
}

func (h *slotHarness) promotions() int64 {
	return h.c.reg.Counter("cluster_promotions_total", map[string]string{"shard": h.slot.name()}).Value()
}
