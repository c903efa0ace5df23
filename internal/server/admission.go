package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"systolicdb/internal/fault"
	"systolicdb/internal/obs"
)

// refuseMutation answers 503 for a mutation of name that the server's
// ladders forbid, and reports whether it did. A mutation accepted during a
// drain could outrun the final snapshot, so it is refused up front rather
// than acked where the shutdown path may not persist it. Temps bypass the
// WAL entirely, so read-only storage can't refuse them — mid-query staging
// keeps working while degraded.
func (s *Server) refuseMutation(w http.ResponseWriter, name string) bool {
	switch {
	case s.draining():
		s.reject(w, http.StatusServiceUnavailable, "shutdown", "server is shutting down")
	case s.readOnly() && !IsTemp(name):
		s.reject(w, http.StatusServiceUnavailable, "read_only",
			"server is read-only (disk fault: %s); retry after the disk recovers", s.readOnlyCause())
	default:
		return false
	}
	return true
}

// queryOutcome carries a finished query from its worker goroutine.
type queryOutcome struct {
	resp *queryResponse
	err  error
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		s.reject(w, http.StatusServiceUnavailable, "shutdown", "server is shutting down")
		return
	}
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "query body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if strings.TrimSpace(req.Plan) == "" {
		writeError(w, http.StatusBadRequest, "empty plan")
		return
	}
	if err := s.resolveOptions(&req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = min(time.Duration(req.TimeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Admission control: take a worker slot, or queue (bounded), or
	// reject. The queue-depth gauge tracks waiters; rejections never
	// block.
	select {
	case s.sem <- struct{}{}:
	default:
		if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
			s.waiting.Add(-1)
			s.reject(w, http.StatusTooManyRequests, "queue_full",
				"all %d workers busy and queue of %d full; retry later",
				s.cfg.MaxConcurrent, s.cfg.MaxQueue)
			return
		}
		s.reg.Gauge("server_queue_depth", nil).Set(float64(s.waiting.Load()))
		queued := time.Now()
		select {
		case s.sem <- struct{}{}:
			s.waiting.Add(-1)
			s.reg.Gauge("server_queue_depth", nil).Set(float64(s.waiting.Load()))
			s.reg.Timer("server_queue_wait_seconds", nil).Observe(time.Since(queued))
		case <-ctx.Done():
			s.waiting.Add(-1)
			s.reg.Gauge("server_queue_depth", nil).Set(float64(s.waiting.Load()))
			s.reject(w, http.StatusServiceUnavailable, "queue_timeout",
				"gave up waiting for a worker after %v", time.Since(queued).Round(time.Millisecond))
			return
		}
	}
	s.reg.Gauge("server_active_queries", nil).Set(float64(len(s.sem)))

	// Run the query in its own goroutine so a deadline can't leave the
	// client hanging even on a non-cancellable stage (the §9 machine run
	// is atomic; the host executor stops at the next plan node). The
	// worker slot is released by the goroutine itself, so a timed-out
	// query keeps occupying capacity until it actually stops — admission
	// control stays truthful.
	start := time.Now()
	done := make(chan queryOutcome, 1)
	go func() {
		defer func() {
			<-s.sem
			s.reg.Gauge("server_active_queries", nil).Set(float64(len(s.sem)))
		}()
		resp, err := s.store.execute(ctx, &req)
		done <- queryOutcome{resp: resp, err: err}
	}()

	select {
	case out := <-done:
		if out.err != nil {
			if fault.Recoverable(out.err) {
				// The whole degradation ladder is exhausted (or the
				// request forbade falling further): the condition is
				// transient capacity, not a bad query, so answer 503 with
				// Retry-After — including for queries already in flight
				// when a drain began.
				reason := "degraded"
				if s.draining() {
					reason = "shutdown"
				}
				s.reject(w, http.StatusServiceUnavailable, reason, "%v", out.err)
				return
			}
			code := http.StatusUnprocessableEntity
			if errors.Is(out.err, context.DeadlineExceeded) {
				code = http.StatusGatewayTimeout
				s.reg.Counter("server_rejected_total", obs.Labels{"reason": "deadline"}).Inc()
			} else if errors.Is(out.err, context.Canceled) {
				code = 499 // client went away (nginx convention)
			}
			writeError(w, code, "%v", out.err)
			return
		}
		out.resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		s.observeQueryDuration(time.Since(start))
		s.reg.Counter("server_queries_total", nil).Inc()
		s.reg.Counter("server_rows_out_total", nil).Add(int64(out.resp.Rows))
		writeJSON(w, http.StatusOK, out.resp)
	case <-ctx.Done():
		s.reg.Counter("server_rejected_total", obs.Labels{"reason": "deadline"}).Inc()
		writeError(w, http.StatusGatewayTimeout, "query exceeded its %v deadline", timeout)
	}
}

// reject answers an overload condition and counts it. Recoverable
// rejections carry a Retry-After derived from the actual drain deadline or
// queue state — not a constant — so well-behaved clients back off for
// about as long as the condition will last.
func (s *Server) reject(w http.ResponseWriter, code int, reason, format string, args ...any) {
	s.reg.Counter("server_rejected_total", obs.Labels{"reason": reason}).Inc()
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(reason)))
	}
	writeError(w, code, format, args...)
}

// maxRetryAfter caps the queue-wait estimate; a drain deadline may exceed
// it (the remaining drain time is exact, not an estimate).
const maxRetryAfter = 60 * time.Second

// retryAfterSeconds estimates when capacity is likely to exist again.
// During a drain it is the time left until the shutdown deadline — the
// earliest moment a restarted or redeployed server could answer. For
// queue-pressure rejections it is the expected time for the current
// backlog (running + waiting queries) to clear, from the EWMA of recent
// query durations spread over the worker pool, clamped to [1s, 60s].
// With no observed queries yet there is nothing to extrapolate; the
// historical 1 second stands.
func (s *Server) retryAfterSeconds(reason string) int {
	if reason == "read_only" {
		// The probe loop is the way back: the next probe is the earliest
		// moment the latch can clear.
		return ceilSeconds(s.cfg.ProbeEvery)
	}
	if reason == "shutdown" {
		if dl := s.drainDeadline.Load(); dl != 0 {
			if rem := time.Until(time.Unix(0, dl)); rem > 0 {
				return ceilSeconds(rem)
			}
		}
		return 1
	}
	avg := time.Duration(s.avgQueryNanos.Load())
	if avg <= 0 {
		return 1
	}
	backlog := int64(len(s.sem)) + s.waiting.Load()
	est := time.Duration(backlog) * avg / time.Duration(int64(s.cfg.MaxConcurrent))
	if est > maxRetryAfter {
		est = maxRetryAfter
	}
	return ceilSeconds(est)
}

// ceilSeconds rounds a duration up to whole seconds, at least 1.
func ceilSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	return secs
}

// observeQueryDuration feeds the Retry-After estimate: an exponentially
// weighted moving average (α = 1/8) of query wall time. Concurrent
// updates may lose an observation; the estimate only needs to be the
// right order of magnitude.
func (s *Server) observeQueryDuration(d time.Duration) {
	old := s.avgQueryNanos.Load()
	if old == 0 {
		s.avgQueryNanos.Store(int64(d))
		return
	}
	s.avgQueryNanos.Store(old - old/8 + int64(d)/8)
}
