// Package server is the network query service over the systolic query
// layer: a long-lived HTTP/JSON daemon that owns a catalog of named base
// relations and processes transactions from many concurrent clients —
// the paper's §9 vision of "an integrated system containing several
// systolic arrays ... to process all of the operations required in a
// single transaction or a set of transactions" turned into an on-line
// service.
//
// Endpoints:
//
//	PUT    /relations/{name}   load/replace a relation (text-table body,
//	                           column types from ?types= or a #% types: line)
//	GET    /relations/{name}   dump a relation in the text-table format
//	DELETE /relations/{name}   drop a relation
//	GET    /relations          list the catalog (JSON)
//	POST   /query              parse/optimize/execute a plan (JSON in/out),
//	                           host arrays or the §9 machine per request
//	GET    /metrics            the server's obs registry (Prometheus text,
//	                           or JSON with ?format=json)
//	GET    /healthz            liveness probe
//
// Queries pass admission control: at most MaxConcurrent run at once, at
// most MaxQueue wait; beyond that the server answers 429 (queue full) or
// 503 (shutting down / gave up waiting) immediately — it never hangs.
// Every request is bounded by a deadline and runs against an immutable
// catalog snapshot, so concurrent relation writes never corrupt a running
// query (see Catalog).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"systolicdb/internal/cluster"
	"systolicdb/internal/fault"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
	"systolicdb/internal/wal"
)

// Config tunes the service. The zero value gets sensible defaults from
// New.
type Config struct {
	// MaxConcurrent bounds the number of queries executing at once (the
	// worker-pool size). Default 4.
	MaxConcurrent int

	// MaxQueue bounds how many admitted queries may wait for a worker
	// beyond MaxConcurrent. 0 selects the default (2×MaxConcurrent);
	// negative means no queueing at all (busy ⇒ immediate 429).
	MaxQueue int

	// DefaultTimeout bounds a query that does not set timeout_ms.
	// Default 30s.
	DefaultTimeout time.Duration

	// MaxTimeout caps client-requested timeouts. Default 5m.
	MaxTimeout time.Duration

	// ArraySize is the per-device tuple capacity of the §9 machine used
	// for "machine": true queries (larger relations decompose, §8).
	// Default 64.
	ArraySize int

	// MaxBodyBytes caps request bodies — relation uploads and query
	// bodies alike. Default 32 MiB.
	MaxBodyBytes int64

	// ReadTimeout bounds reading an entire request (headers + body); it
	// protects the accept loop from clients that trickle a body forever.
	// Default 2m. ReadHeaderTimeout stays a separate, tighter 10s.
	ReadTimeout time.Duration

	// IdleTimeout bounds how long a keep-alive connection may sit idle
	// between requests before the server closes it. Default 2m.
	IdleTimeout time.Duration

	// Metrics is the registry all server, query and machine metrics are
	// recorded into. Nil selects a fresh private registry (not
	// obs.Default), so concurrent servers — and tests — don't share state.
	Metrics *obs.Registry

	// Catalog, when non-nil, is served instead of a fresh empty catalog.
	// The daemon uses this to hand the server a catalog already seeded
	// with WAL-recovered relations (which must have been decoded through
	// this same catalog's domain pool).
	Catalog *Catalog

	// WAL, when non-nil, makes the catalog durable: every put/delete is
	// appended (and per the log's fsync policy, synced) to the write-ahead
	// log *before* it is published and acknowledged, so an acked mutation
	// survives a crash. Nil keeps the catalog purely in-memory.
	WAL *wal.Log

	// SnapshotEvery triggers a background catalog snapshot (log rotation +
	// compaction) once the WAL has accumulated this many un-snapshotted
	// records. Default 256. Ignored without WAL.
	SnapshotEvery int

	// Fault configures the fault layer of the per-request §9 machines:
	// injection plans, verification, retry and quarantine. The server owns
	// one process-wide health tracker, so a device quarantined during one
	// request stays quarantined for every later request (and /healthz
	// reports "degraded" until an operator revives it). Nil runs machines
	// without the fault layer.
	Fault *machine.FaultConfig

	// Backend is the execution engine queries run on by default: the
	// pulse simulator (zero value) or the word-parallel bitset backend.
	// A request may override it with its own "backend" field.
	Backend machine.Backend

	// Cluster, when non-nil, puts the server in coordinator mode: PUT and
	// DELETE partition/scatter relations across the cluster's shards, and
	// POST /query runs plans through the distributed executor instead of
	// the local engine. The coordinator's own catalog+WAL still hold the
	// reserved cluster-state relations (shard map, relation directory).
	Cluster *cluster.Coordinator

	// PlanCacheSize bounds the LRU of prepared plans keyed by canonical
	// plan text + backend, invalidated by the catalog version counter (in
	// cluster mode entries are parsed plans only and never invalidate). 0
	// selects the default (256); negative disables plan caching entirely.
	PlanCacheSize int

	// ScrubEvery runs the WAL's anti-entropy scrubber at this interval,
	// re-verifying every live on-disk file against its CRC frames and
	// relation checksums. Confirmed at-rest damage trips read-only mode
	// and is repaired in place: the live catalog (cross-checked against
	// RepairSource when configured) is written as a fresh snapshot and
	// the damaged file is quarantined. 0 disables scrubbing. Ignored
	// without WAL.
	ScrubEvery time.Duration

	// ProbeEvery is how often a read-only server (tripped by an append or
	// ENOSPC failure) attempts a probe write to discover the disk has
	// recovered. Default 2s. Ignored without WAL.
	ProbeEvery time.Duration

	// RepairSource, when non-nil, supplies a replica's durable state for
	// scrub-time read repair: relations whose local copy diverged from
	// (or vanished relative to) the replica are re-adopted from it before
	// the repair snapshot is written. cluster.ShardClient implements it.
	RepairSource RepairSource
}

// RepairSource is a remote holder of the catalog's durable state —
// in practice the replica this primary ships its WAL to. State returns
// relation name → typed text table (the GET /wal/ship serialisation).
type RepairSource interface {
	State(ctx context.Context) (map[string]string, error)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxConcurrent
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.ArraySize <= 0 {
		c.ArraySize = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 2 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Server is the HTTP query service. Create with New, serve its Handler
// (or use Serve/Shutdown for the managed lifecycle).
type Server struct {
	cfg    Config
	cat    *Catalog
	reg    *obs.Registry
	mux    *http.ServeMux
	store  store         // where relations live and plans run: s itself, or the cluster
	health *fault.Health // process-wide quarantine state (nil without cfg.Fault)
	wal    *wal.Log      // durability log (nil = in-memory catalog)
	dedup  *dedupWindow  // idempotency keys already committed

	// planCache memoizes prepared plans across requests; nil when
	// disabled. Entries are stamped with the catalog version, so PUT/DELETE
	// invalidate by bumping the counter.
	planCache *query.PlanCache

	// commitMu orders WAL appends against catalog publishes: each mutation
	// holds it across append + publish, and the snapshot trigger holds it
	// across rotate + state capture, so log order equals publish order and
	// a snapshot's state covers every record of the generations it
	// supersedes. It is separate from the catalog's own lock, so readers
	// and running queries never wait on an fsync.
	commitMu     sync.Mutex
	snapshotting atomic.Bool // a background snapshot is in flight

	// latch is the storage degradation ladder: a disk fault the commit
	// path could not absorb (failed append, unrelievable ENOSPC) or
	// confirmed at-rest corruption (scrub) trips it read-only. Each cause
	// ("append", "enospc", "scrub") holds it on its own: mutations answer
	// 503 + Retry-After while any cause holds it, and reads keep serving
	// from the catalog. append/enospc clear via the probe loop, scrub
	// clears when its repair lands. life is the lifecycle ladder,
	// which Shutdown moves to draining. ladderMu serialises both.
	ladderMu sync.Mutex
	latch    *fault.Ladder[string]
	life     *fault.Ladder[string]

	// stopCh ends the background probe and scrub loops at Shutdown.
	stopCh   chan struct{}
	stopOnce sync.Once

	sem     chan struct{} // worker slots; len == running queries
	waiting atomic.Int64  // queries queued for a slot

	// drainDeadline is the Shutdown context's deadline (unix nanos, 0 =
	// none): rejects during a drain tell clients to retry after it.
	drainDeadline atomic.Int64

	// avgQueryNanos is an EWMA of recent query durations, the basis of the
	// queue-wait estimate behind Retry-After on 429/503 responses.
	avgQueryNanos atomic.Int64

	httpSrv *http.Server
}

// New builds a server with an empty catalog (or Config.Catalog when set).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cat := cfg.Catalog
	if cat == nil {
		cat = NewCatalog()
	}
	s := &Server{
		cfg:    cfg,
		cat:    cat,
		reg:    cfg.Metrics,
		mux:    http.NewServeMux(),
		wal:    cfg.WAL,
		dedup:  newDedupWindow(0),
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		stopCh: make(chan struct{}),
	}
	// Built here, not in ServeListener, so a Shutdown racing the start of
	// serving sees it: Serve after Shutdown returns http.ErrServerClosed.
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       cfg.ReadTimeout,
		IdleTimeout:       cfg.IdleTimeout,
	}
	s.store = s
	if cfg.Cluster != nil {
		s.store = &clusterStore{local: s, co: cfg.Cluster}
	}
	if cfg.PlanCacheSize > 0 {
		s.planCache = query.NewPlanCache(cfg.PlanCacheSize, cfg.Metrics)
	}
	s.latch = fault.NewLadder(fault.Latch, s.countLatch, time.Now)
	// The lifecycle ladder has one event, which moves a serving server to
	// draining; a drain, once begun, is final.
	s.life = fault.NewLadder[string](fault.Table{0: {0: 1}}, nil, time.Now)
	if s.wal != nil {
		// Re-seed the idempotency window from the log, so a retry that
		// lands after a crash+restart is still recognised: dedup is exactly
		// as durable as the writes it guards.
		for _, key := range s.wal.Recovered().AppliedKeys {
			s.dedup.Add(key)
		}
	}
	if cfg.Fault != nil {
		s.health = cfg.Fault.Health
		if s.health == nil {
			s.health = fault.NewHealth(cfg.Fault.QuarantineAfter)
		}
	}
	s.mux.HandleFunc("PUT /relations/{name}", s.instrument("relations_put", s.handlePutRelation))
	s.mux.HandleFunc("GET /relations/{name}", s.instrument("relations_get", s.handleGetRelation))
	s.mux.HandleFunc("DELETE /relations/{name}", s.instrument("relations_delete", s.handleDeleteRelation))
	s.mux.HandleFunc("GET /relations", s.instrument("relations_list", s.handleListRelations))
	s.mux.HandleFunc("POST /query", s.instrument("query", s.handleQuery))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /wal/ship", s.instrument("wal_ship", s.handleWALShip))

	// Pre-register the overload metrics so /metrics exposes them from the
	// first scrape, not only after the first rejection.
	s.reg.Gauge("server_queue_depth", nil).Set(0)
	s.reg.Gauge("server_active_queries", nil).Set(0)
	for _, reason := range []string{"queue_full", "queue_timeout", "shutdown", "deadline", "degraded", "read_only"} {
		s.reg.Counter("server_rejected_total", obs.Labels{"reason": reason}).Add(0)
	}
	s.reg.Timer("server_queue_wait_seconds", nil)
	s.reg.Gauge("server_readonly", nil).Set(0)
	for _, cause := range []string{"append", "enospc", "scrub"} {
		s.reg.Counter("server_readonly_trips_total", obs.Labels{"cause": cause}).Add(0)
	}
	s.reg.Counter("server_readonly_recoveries_total", nil).Add(0)
	s.reg.Counter("server_enospc_compactions_total", nil).Add(0)
	if s.wal != nil {
		go s.probeLoop()
		if cfg.ScrubEvery > 0 {
			go s.scrubLoop()
		}
	}
	return s
}

// Catalog exposes the server's relation catalog (for preloading at boot).
func (s *Server) Catalog() *Catalog { return s.cat }

// Handler returns the routed HTTP handler (useful under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// ServeListener runs the service on an existing listener (which lets the
// daemon bind ":0" and report the kernel-chosen port before serving).
func (s *Server) ServeListener(ln net.Listener) error { return s.httpSrv.Serve(ln) }

// Shutdown drains the server gracefully: new queries are refused with 503
// immediately, and the call blocks until every in-flight request has
// finished (or ctx expires).
func (s *Server) Shutdown(ctx context.Context) error {
	if dl, ok := ctx.Deadline(); ok {
		s.drainDeadline.Store(dl.UnixNano())
	}
	s.drain()
	s.stopOnce.Do(func() { close(s.stopCh) })
	return s.httpSrv.Shutdown(ctx)
}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route request counting and latency
// spans.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		stop := s.reg.Timer("server_request_seconds", obs.Labels{"route": route}).Start()
		h(sw, r)
		stop()
		s.reg.Counter("server_requests_total",
			obs.Labels{"route": route, "code": strconv.Itoa(sw.code)}).Inc()
	}
}

// writeError sends a JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handlePutRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.refuseMutation(w, name) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	rel, err := s.cat.ParseTable(body, r.URL.Query().Get("types"))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "relation body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.store.put(r.Context(), name, r.Header.Get("Idempotency-Key"), rel)
	if err != nil {
		s.storeFailed(w, err)
		return
	}
	s.reg.Counter("server_relation_loads_total", nil).Inc()
	s.reg.Counter("server_rows_in_total", nil).Add(int64(rel.Cardinality()))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetRelation(w http.ResponseWriter, r *http.Request) {
	rel, err := s.store.get(r.Context(), r.PathValue("name"))
	if err != nil {
		s.storeFailed(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// FormatTableTypes leads with a `#% types:` directive, so a dump fed
	// back into PUT reconstructs the same column domains — GET/PUT round
	// trips (and the crash-torture harness) are lossless.
	if err := relation.FormatTableTypes(w, rel); err != nil {
		// Headers are gone; all we can do is log the failure as a metric.
		s.reg.Counter("server_dump_errors_total", nil).Inc()
	}
}

func (s *Server) handleDeleteRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.refuseMutation(w, name) {
		return
	}
	existed, err := s.store.delete(r.Context(), name, r.Header.Get("Idempotency-Key"))
	if err != nil {
		s.storeFailed(w, err)
		return
	}
	if !existed {
		writeError(w, http.StatusNotFound, "unknown relation %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListRelations(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"relations": s.store.list()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// handleHealthz reports the degradation ladders' current rungs, summed up
// by status: "draining" (shutdown has begun), "degraded" (a device is
// quarantined, a shard promoted or quarantined, or the server read-only;
// queries still answer), or "ok". The probe always answers 200 —
// degradation is survivable by design; only the load balancer's routing
// policy should change.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"relations": len(s.store.list())}
	if s.health != nil {
		if q := s.health.QuarantinedNames(); len(q) > 0 {
			body["quarantined"] = q
		}
	}
	degraded := s.store.healthz(body)
	if s.planCache != nil {
		body["plan_cache"] = s.planCache.Stats()
	}
	if s.wal != nil {
		// Durability state: data dir, fsync policy, WAL lag, what the last
		// recovery rebuilt, and the degradation mode — "ok", or
		// "read-only" with the tripping cause while a disk fault holds
		// mutations at bay (reads keep answering, hence still 200).
		d := durabilityView{Status: s.wal.Status(), Mode: "ok"}
		if d.Cause = s.readOnlyCause(); d.Cause != "" {
			d.Mode = "read-only"
		}
		body["durability"] = d
	}
	body["status"] = s.status(degraded)
	writeJSON(w, http.StatusOK, body)
}

// durabilityView is the healthz durability object: the WAL's status with
// the server's storage degradation mode flattened alongside it.
type durabilityView struct {
	wal.Status
	Mode  string `json:"mode"`
	Cause string `json:"cause,omitempty"`
}
