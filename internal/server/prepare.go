package server

import (
	"context"
	"errors"
	"hash/crc32"
	"strings"

	"systolicdb/internal/machine"
	"systolicdb/internal/perf"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
)

// queryRequest is the POST /query body.
type queryRequest struct {
	// Plan is the textual algebra accepted by query.Parse, e.g.
	// "project(join(scan(A), scan(B), 0=0), 0)".
	Plan string `json:"plan"`

	// Machine selects §9-machine execution (compile to a transaction and
	// run it on the crossbar system) instead of the host executor.
	Machine bool `json:"machine"`

	// NoOptimize skips query.Optimize (the optimizer runs by default).
	NoOptimize bool `json:"no_optimize"`

	// NoTable omits the result rows from the response (row count only).
	NoTable bool `json:"no_table"`

	// TableTypes leads the result table with a `#% types:` directive, so
	// the receiver can reconstruct the exact column domains. The cluster
	// coordinator sets this on every sub-query: gathered partials must be
	// schema-exact to concatenate.
	TableTypes bool `json:"table_types"`

	// TimeoutMS overrides the server's default per-request deadline,
	// capped at Config.MaxTimeout.
	TimeoutMS int `json:"timeout_ms"`

	// RetryAttempts overrides the fault layer's per-tile retry budget for
	// this request (0 keeps the server's configured policy). Only
	// meaningful on the machine path with Config.Fault set.
	RetryAttempts int `json:"retry_attempts"`

	// NoFallback forbids the machine→host degradation for this request:
	// when the machine gives up, the query fails (503) instead of being
	// re-executed on the host arrays.
	NoFallback bool `json:"no_fallback"`

	// Backend overrides the server's configured execution backend for this
	// request ("pulse" or "bitset"). An unknown name is a 400 — never a
	// silent fallback to the default.
	Backend string `json:"backend"`

	// Streaming lets the host executor pipeline every operator that can:
	// tuple-identical results, bounded intermediate memory (see the
	// peak_tuples response field). Composes with either backend; a 400
	// with "machine" or on a coordinator (see resolveOptions).
	Streaming bool `json:"streaming"`

	// backend is the resolved Backend (request override or server
	// default), set by resolveOptions before the query runs.
	backend machine.Backend
}

// machineReport summarises a §9 run for the response.
type machineReport struct {
	MakespanSeconds float64 `json:"makespan_seconds"`
	BusySeconds     float64 `json:"busy_seconds"`
	Concurrency     float64 `json:"concurrency"`
	Events          int     `json:"events"`
	Pulses          int     `json:"pulses"`
}

// queryResponse is the POST /query reply.
type queryResponse struct {
	Plan      string   `json:"plan"`
	Optimized string   `json:"optimized"`
	Rows      int      `json:"rows"`
	Columns   []string `json:"columns,omitempty"`
	Table     string   `json:"table,omitempty"`
	// TableCRC32 is the IEEE CRC32 of Table, present whenever a table is.
	// The cluster client recomputes it before parsing, so a response whose
	// body was corrupted in flight — but still parses as a smaller or
	// different relation — is caught and retried instead of merged.
	TableCRC32 *uint32        `json:"table_crc32,omitempty"`
	Pulses     int            `json:"pulses"`
	WordOps    int            `json:"word_ops,omitempty"` // bitset backend's cost unit
	Backend    string         `json:"backend"`
	SimTime    float64        `json:"sim_seconds"` // pulses under the 1980 technology model
	ElapsedMS  float64        `json:"elapsed_ms"`
	Machine    *machineReport `json:"machine,omitempty"`

	// CacheHit reports that the prepared plan came from the plan cache
	// (Parse and Optimize were skipped).
	CacheHit bool `json:"cache_hit,omitempty"`

	// PeakTuples / MaterializedNodes report the executor's memory
	// profile (see query.ExecStats); host-executor paths only.
	PeakTuples        int `json:"peak_tuples,omitempty"`
	MaterializedNodes int `json:"materialized_nodes,omitempty"`

	// Degraded reports that the machine gave up and the result was
	// produced by the host-executor fallback instead.
	Degraded bool `json:"degraded,omitempty"`

	// Distributed reports that the plan was scattered across cluster
	// shards by a coordinator rather than executed locally.
	Distributed bool `json:"distributed,omitempty"`
}

// resolveOptions is the one place a request's execution options are
// checked, before a worker slot is taken, so an unrunnable combination
// costs a 400 and no capacity. It resolves the backend (request override
// or server default; an unknown name is an error, never a silent fallback)
// and refuses the one combination that does not compose: "streaming"
// selects the single-node host iterator executor, which neither the §9
// machine nor a coordinator's scatter/gather engine runs. Every other
// streaming × backend × machine setting is runnable.
func (s *Server) resolveOptions(req *queryRequest) error {
	req.backend = s.cfg.Backend
	if req.Backend != "" {
		b, err := machine.ParseBackend(req.Backend)
		if err != nil {
			return err
		}
		req.backend = b
	}
	if req.Streaming && req.Machine {
		return errStreaming
	}
	return s.store.options(req)
}

var errStreaming = errors.New(`"streaming" runs on the single-node host executor: it cannot be combined with "machine" or sent to a coordinator`)

// preparePlan resolves a request's plan text to a prepared (parsed +
// optionally optimized) plan, consulting the plan cache first. A hit
// skips Parse and Optimize; a miss prepares the plan and — when it
// touches no hidden relations — inserts it stamped with the given
// version. resp.Plan/Optimized/CacheHit are filled either way.
func (s *Server) preparePlan(req *queryRequest, resp *queryResponse, cat query.Catalog,
	version uint64, optimize bool) (query.Node, error) {

	if cp, ok := s.planCache.Lookup(req.Plan, req.backend, optimize, version); ok {
		resp.Plan, resp.Optimized, resp.CacheHit = cp.Canonical, cp.Rendered, true
		return cp.Plan, nil
	}
	parsed, err := query.Parse(req.Plan)
	if err != nil {
		return nil, err
	}
	canonical := query.Render(parsed)
	resp.Plan = canonical
	// The cache is keyed on the lossless Format text: Render omits
	// predicates, join columns and divide groups, so two selects differing
	// only in a constant would otherwise share one prepared plan.
	key, err := query.Format(parsed)
	if err != nil {
		return nil, err
	}
	if cp, ok := s.planCache.LookupCanonical(req.Plan, key, req.backend, optimize, version); ok {
		resp.Optimized, resp.CacheHit = cp.Rendered, true
		return cp.Plan, nil
	}
	plan := parsed
	if optimize {
		if plan, err = query.Optimize(plan, cat); err != nil {
			return nil, err
		}
	}
	resp.Optimized = query.Render(plan)
	if s.planCache != nil && cacheablePlan(parsed) {
		s.planCache.InsertKeyed(req.Plan, key, canonical, req.backend, optimize, version, plan)
	}
	return plan, nil
}

// cacheablePlan reports whether a plan may be cached: plans reading
// hidden (`__`-prefixed) relations — cluster temps, membership state —
// are not, because hidden names don't bump the catalog version counter.
func cacheablePlan(n query.Node) bool {
	for _, name := range query.ScanNames(n) {
		if strings.HasPrefix(name, hiddenPrefix) {
			return false
		}
	}
	return true
}

// execute prepares (via the plan cache) and executes one plan against a
// catalog snapshot, on the host arrays or the §9 machine.
func (s *Server) execute(ctx context.Context, req *queryRequest) (*queryResponse, error) {
	resp := &queryResponse{}
	cat, version := s.cat.SnapshotVersion()
	plan, err := s.preparePlan(req, resp, cat, version, !req.NoOptimize)
	if err != nil {
		return nil, err
	}

	var (
		rel *relation.Relation
		st  query.ExecStats
	)
	opts := &query.Options{Metrics: s.reg, Stats: &st, Backend: req.backend, Streaming: req.Streaming}
	resp.Backend = req.backend.String()
	if req.Machine {
		rel, resp.Machine, resp.Degraded, err = s.runOnMachine(ctx, plan, cat, opts, req)
	} else {
		rel, err = query.ExecuteCtx(ctx, plan, cat, opts)
	}
	if err != nil {
		return nil, err
	}
	resp.Pulses = st.Pulses
	resp.WordOps = st.WordOps
	resp.PeakTuples = st.PeakTuples
	resp.MaterializedNodes = st.MaterializedNodes
	if resp.Machine != nil {
		// Host-executor spans don't run on the machine path; the event
		// pulse counts are the authoritative total there.
		resp.Pulses = resp.Machine.Pulses
	}
	resp.SimTime = perf.Conservative1980.PulseTime(resp.Pulses).Seconds()
	return resp, resp.setResult(rel, req)
}

// setResult fills in what every answer carries, whichever engine produced
// rel: the row count and, unless the request declined it, the column names,
// the result table in the requested format and the table's integrity
// checksum.
func (r *queryResponse) setResult(rel *relation.Relation, req *queryRequest) error {
	r.Rows = rel.Cardinality()
	if req.NoTable {
		return nil
	}
	r.Columns = rel.Schema().Names()
	var sb strings.Builder
	format := relation.FormatTable
	if req.TableTypes {
		format = relation.FormatTableTypes
	}
	if err := format(&sb, rel); err != nil {
		return err
	}
	r.Table = sb.String()
	crc := crc32.ChecksumIEEE([]byte(r.Table))
	r.TableCRC32 = &crc
	return nil
}

// machineFault derives the fault configuration for one request's machine:
// the server's policy, the process-wide health tracker (so quarantine
// outlives the request), and the request's retry override.
func (s *Server) machineFault(req *queryRequest) *machine.FaultConfig {
	if s.cfg.Fault == nil {
		return nil
	}
	fc := *s.cfg.Fault
	fc.Health = s.health
	if req.RetryAttempts > 0 {
		fc.Retry.MaxAttempts = req.RetryAttempts
	}
	return &fc
}

// runOnMachine compiles the plan to a transaction and runs it on a §9
// machine recording into the server registry, degrading to the host
// executor when the machine gives up (unless the request forbids it). The
// machine simulation itself is not cancellable, but the context is checked
// before committing to the run.
func (s *Server) runOnMachine(ctx context.Context, plan query.Node, cat query.Catalog,
	opts *query.Options, req *queryRequest) (*relation.Relation, *machineReport, bool, error) {

	cfg := machine.DefaultConfig1980(s.cfg.ArraySize, s.machineFault(req))
	cfg.Metrics, cfg.Backend = s.reg, req.backend
	mach, err := machine.New(cfg)
	if err != nil {
		return nil, nil, false, err
	}
	rel, res, fellBack, err := query.ExecuteOnMachine(ctx, plan, cat, opts, mach, !req.NoFallback)
	if err != nil {
		return nil, nil, fellBack, err
	}
	if fellBack {
		return rel, nil, true, nil
	}
	if err := res.Validate(); err != nil {
		return nil, nil, false, err
	}
	report := &machineReport{
		MakespanSeconds: res.Makespan.Seconds(),
		BusySeconds:     res.BusyTime.Seconds(),
		Concurrency:     res.Concurrency(),
		Events:          len(res.Events),
	}
	for _, ev := range res.Events {
		report.Pulses += ev.Pulses
	}
	return rel, report, false, nil
}
