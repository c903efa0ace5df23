package server

import (
	"context"
	"fmt"
	"strings"
	"time"

	"systolicdb/internal/fault"
	"systolicdb/internal/obs"
	"systolicdb/internal/wal"
)

// countLatch keeps the latch's metrics: a trip counts its cause as it
// joins the held set, a recovery counts the set emptying.
func (s *Server) countLatch(_, to, on int, cause string) {
	switch {
	case on == fault.LatchTrip:
		s.reg.Counter("server_readonly_trips_total", obs.Labels{"cause": cause}).Inc()
	case to == 0:
		s.reg.Counter("server_readonly_recoveries_total", nil).Inc()
	}
	s.reg.Gauge("server_readonly", nil).Set(float64(to))
}

// fire moves one of the server's ladders under ladderMu.
func (s *Server) fire(l *fault.Ladder[string], on int, cause string) {
	s.ladderMu.Lock()
	defer s.ladderMu.Unlock()
	l.Move(on, cause)
}

// tripReadOnly holds the server read-only for cause; a cause already held
// is not counted again.
func (s *Server) tripReadOnly(cause string) { s.fire(s.latch, fault.LatchTrip, cause) }

// clearReadOnly releases cause's hold on the latch; the server stays
// read-only while any other cause holds it.
func (s *Server) clearReadOnly(cause string) { s.fire(s.latch, fault.LatchClear, cause) }

func (s *Server) readOnly() bool { return s.latch.State() == fault.LatchHeld }

// readOnlyCause is the earliest cause still holding the latch ("" = none).
func (s *Server) readOnlyCause() string {
	s.ladderMu.Lock()
	defer s.ladderMu.Unlock()
	return s.latch.Cause()
}

// drain begins the drain: from here on queries and mutations are refused.
func (s *Server) drain() { s.fire(s.life, 0, "") }

func (s *Server) draining() bool { return s.life.State() != 0 }

// status ranks every ladder into /healthz's one word, by one precedence:
// draining > degraded > ok. A drain outranks degradation because it is the
// signal a load balancer must act on. Degraded is a quarantined device,
// read-only storage, or a store that reports itself degraded (a promoted or
// quarantined shard).
func (s *Server) status(degraded bool) string {
	switch {
	case s.draining():
		return "draining"
	case degraded, s.readOnly(), s.health != nil && s.health.Degraded():
		return "degraded"
	}
	return "ok"
}

// probeLoop is the way back from append/enospc read-only: a periodic
// probe write through the WAL's filesystem (which also un-wedges a log
// whose tail restore failed). A successful probe is necessary but not
// sufficient evidence — if the next real append still fails it re-trips
// immediately, so the worst case is one refused mutation per probe
// interval, not a flapping ack.
func (s *Server) probeLoop() {
	t := time.NewTicker(s.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		if !s.readOnly() {
			continue
		}
		// The probe always runs: a scrub repair attempt can wedge the
		// log (a failed rotate, a failed tail restore) and Probe is the
		// only path that un-wedges it — without this the scrub loop's
		// next repair fails the same way forever. Only the CLEAR is
		// cause-gated: a scrub hold is released by the scrub loop alone,
		// once its repair has landed.
		if err := s.wal.Probe(); err == nil {
			s.clearReadOnly("append")
			s.clearReadOnly("enospc")
		}
	}
}

// scrubLoop runs the WAL's anti-entropy pass on a timer. Confirmed
// at-rest damage trips read-only, is repaired (read repair from the
// replica when configured, then a fresh snapshot that quarantines the
// damaged files), and only a repair that sticks clears the latch — a
// failed repair leaves the server read-only and the next tick retries.
func (s *Server) scrubLoop() {
	t := time.NewTicker(s.cfg.ScrubEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		rep, err := s.wal.Scrub()
		if err != nil || rep.OK() {
			continue
		}
		s.tripReadOnly("scrub")
		if err := s.scrubRepair(rep); err != nil {
			s.reg.Counter("server_scrub_repair_errors_total", nil).Inc()
			continue
		}
		s.clearReadOnly("scrub")
	}
}

// scrubRepair rebuilds a durable recovery base after the scrubber found
// at-rest damage. The live catalog is the primary source (RAM is not
// rotted); when a RepairSource is configured it is cross-checked against
// the replica's durable state first, adopting the replica's copy of any
// relation that diverged. Then the damaged files are marked and a fresh
// snapshot is written — its GC quarantines them into corrupt/ only after
// the new base is durable.
func (s *Server) scrubRepair(rep *wal.ScrubReport) error {
	if src := s.cfg.RepairSource; src != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		remote, err := src.State(ctx)
		cancel()
		if err == nil {
			// A failed adoption fails the whole repair: the damage is
			// still on disk (nothing quarantined yet), so the next scrub
			// tick re-detects it and retries — silently dropping the
			// adoption would lose the replica's copy forever.
			if err := s.readRepair(remote); err != nil {
				return err
			}
		}
		// An unreachable replica is not fatal: the live catalog is still
		// the best available copy and the snapshot below re-persists it.
	}
	s.wal.MarkCorrupt(rep.Corrupt)
	return s.WriteSnapshot()
}

// readRepair reconciles the live catalog against the replica's durable
// state: matching relations count as verified, a missing or diverged one
// is re-adopted from the replica through the normal durable commit path.
// An adoption whose durable commit fails (the disk is, after all, still
// faulty) is returned as an error so the caller retries the repair.
func (s *Server) readRepair(remote map[string]string) error {
	var firstErr error
	for name, text := range remote {
		if strings.HasPrefix(name, hiddenPrefix) {
			continue
		}
		rrel, err := s.cat.ParseTable(strings.NewReader(text), "")
		if err != nil {
			continue
		}
		if local, ok := s.cat.Get(name); ok {
			lsum, lerr := fault.RelationChecksum(local)
			rsum, rerr := fault.RelationChecksum(rrel)
			if lerr == nil && rerr == nil && fault.Verify(fault.VerifyChecksum, lsum, rsum).OK {
				s.reg.Counter("server_read_repair_verified_total", nil).Inc()
				continue
			}
		}
		if err := s.ApplyPut(name, "", rrel); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("read repair: adopting %q: %w", name, err)
			}
			continue
		}
		s.reg.Counter("server_read_repair_adopted_total", nil).Inc()
	}
	return firstErr
}
