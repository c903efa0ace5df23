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
	"hash/crc32"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"systolicdb/internal/cluster"
	"systolicdb/internal/fault"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/perf"
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
func (s *Server) ServeListener(ln net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       s.cfg.ReadTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	return s.httpSrv.Serve(ln)
}

// Shutdown drains the server gracefully: new queries are refused with 503
// immediately, and the call blocks until every in-flight request has
// finished (or ctx expires).
func (s *Server) Shutdown(ctx context.Context) error {
	if dl, ok := ctx.Deadline(); ok {
		s.drainDeadline.Store(dl.UnixNano())
	}
	s.drain()
	s.stopOnce.Do(func() { close(s.stopCh) })
	if s.httpSrv == nil {
		return nil
	}
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
	if s.cfg.Cluster != nil && !strings.HasPrefix(name, hiddenPrefix) {
		// Coordinator mode: hash-partition across the shards; the ack
		// requires every shard's primary AND replica to have committed. The
		// client's Idempotency-Key (or a coordinator-generated one) stamps
		// each shard part, so a retried storm PUT cannot double-apply.
		if err := s.cfg.Cluster.PutKeyed(r.Context(), name, r.Header.Get("Idempotency-Key"), rel); err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
		s.reg.Counter("server_relation_loads_total", nil).Inc()
		s.reg.Counter("server_rows_in_total", nil).Add(int64(rel.Cardinality()))
		writeJSON(w, http.StatusOK, map[string]any{
			"name": name, "rows": rel.Cardinality(), "columns": rel.Schema().Names(),
			"shards": s.cfg.Cluster.Shards(),
		})
		return
	}
	if err := s.commitPut(name, r.Header.Get("Idempotency-Key"), rel); err != nil {
		if errors.Is(err, errWAL) {
			// The mutation was refused, not half-applied: the WAL truncated
			// the failed frame back out, so a retry after recovery is safe.
			s.reject(w, http.StatusServiceUnavailable, "read_only", "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.reg.Counter("server_relation_loads_total", nil).Inc()
	s.reg.Counter("server_rows_in_total", nil).Add(int64(rel.Cardinality()))
	writeJSON(w, http.StatusOK, map[string]any{
		"name": name, "rows": rel.Cardinality(), "columns": rel.Schema().Names(),
	})
}

// errWAL marks a mutation refused because it could not be made durable
// (as opposed to one the catalog itself rejected).
var errWAL = errors.New("write-ahead log append failed")

// TempPrefix marks ephemeral relations: the staging area the cluster
// coordinator's shuffle and broadcast strategies write into. Temp
// relations are never write-ahead logged (they are mid-query scratch
// state, recreated on retry) and are hidden from catalog listings.
const TempPrefix = "__tmp_"

// hiddenPrefix marks reserved relations (cluster membership, temps) that
// exist in the catalog but are not part of the user-visible namespace.
const hiddenPrefix = "__"

// IsTemp reports whether name is an ephemeral staging relation.
func IsTemp(name string) bool { return strings.HasPrefix(name, TempPrefix) }

// commitPut publishes one relation, write-ahead logging it first when the
// server is durable. The commit mutex makes log order equal publish order.
// Temp relations bypass the log entirely. key, when non-empty, is the
// write's idempotency key: a key the server has already committed makes
// the whole call a successful no-op (the earlier commit IS this write),
// so a retried dual-write or a shipped record the replica already applied
// cannot double-apply.
func (s *Server) commitPut(name, key string, rel *relation.Relation) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.dedup.Seen(key) {
		s.reg.Counter("server_idempotent_dedup_total", obs.Labels{"op": "put"}).Inc()
		return nil
	}
	// Validate before logging so the WAL never records a mutation the
	// catalog would refuse (CheckPut performs the same name/relation
	// validation Put does, without publishing).
	if err := s.cat.CheckPut(name, rel); err != nil {
		return err
	}
	if s.wal != nil && !IsTemp(name) {
		if err := s.appendDurable(func() error { return s.wal.AppendPutKeyed(name, key, rel) }); err != nil {
			return err
		}
	}
	if err := s.cat.Put(name, rel); err != nil {
		return err
	}
	if !IsTemp(name) {
		s.dedup.Add(key)
	}
	s.maybeSnapshot()
	return nil
}

// commitDelete removes a relation, write-ahead logging the delete first.
// It reports whether the relation existed; a delete of a missing relation
// is not logged, and temp relations are never logged. A replayed key is a
// successful no-op reporting existed=true: the first application already
// removed the relation, and "already deleted by this very write" must not
// surface as 404 to a retrying client.
func (s *Server) commitDelete(name, key string) (bool, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.dedup.Seen(key) {
		s.reg.Counter("server_idempotent_dedup_total", obs.Labels{"op": "delete"}).Inc()
		return true, nil
	}
	if _, ok := s.cat.Get(name); !ok {
		return false, nil
	}
	if s.wal != nil && !IsTemp(name) {
		if err := s.appendDurable(func() error { return s.wal.AppendDeleteKeyed(name, key) }); err != nil {
			return true, err
		}
	}
	ok := s.cat.Delete(name)
	if !IsTemp(name) {
		s.dedup.Add(key)
	}
	s.maybeSnapshot()
	return ok, nil
}

// CommitPut is the exported durable commit path: WAL append (fsync per
// the log's policy) before catalog publish, under the commit mutex. The
// replication follower applies shipped records through it so a replica's
// own log stays exactly as durable as the primary's.
func (s *Server) CommitPut(name string, rel *relation.Relation) error {
	return s.commitPut(name, "", rel)
}

// Replicator adapts this server's durable commit path to the cluster
// follower's Applier interface: a replica daemon replays the primary's
// shipped WAL records through the same append-then-publish ordering as
// its own PUT traffic, so promotion hands over an equally durable copy.
// Shipped idempotency keys flow into the same dedup window the direct
// dual-write path uses, so a record that arrived both ways applies once.
func (s *Server) Replicator() cluster.Applier { return serverApplier{s} }

type serverApplier struct{ s *Server }

func (a serverApplier) ApplyPut(name, key string, rel *relation.Relation) error {
	return a.s.commitPut(name, key, rel)
}

func (a serverApplier) ApplyDelete(name, key string) error {
	_, err := a.s.commitDelete(name, key)
	return err
}

func (a serverApplier) Names() []string { return a.s.cat.Names() }

// maybeSnapshot kicks off a background snapshot once the WAL lag crosses
// the configured threshold. Caller holds commitMu; the snapshot itself
// runs off-thread so the triggering request is not held up. At most one
// snapshot runs at a time.
func (s *Server) maybeSnapshot() {
	if s.wal == nil || s.wal.Lag() < int64(s.cfg.SnapshotEvery) {
		return
	}
	if !s.snapshotting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.snapshotting.Store(false)
		if err := s.WriteSnapshot(); err != nil {
			s.reg.Counter("server_wal_errors_total", nil).Inc()
		}
	}()
}

// WriteSnapshot rotates the WAL and persists the current catalog as the
// new recovery base, garbage-collecting the log segments it supersedes.
// No-op without a WAL. The daemon also calls this on graceful shutdown so
// restarts recover from a snapshot instead of replaying a long log.
func (s *Server) WriteSnapshot() error {
	if s.wal == nil {
		return nil
	}
	// Rotate and capture under the commit mutex: every record in the
	// sealed generations is then ≤ the captured state, so the snapshot
	// supersedes them. The actual file write happens after unlock —
	// snapshotting a large catalog must not stall mutations.
	s.commitMu.Lock()
	gen, err := s.wal.Rotate()
	if err != nil {
		s.commitMu.Unlock()
		return err
	}
	state := s.cat.Snapshot()
	s.commitMu.Unlock()
	return s.wal.WriteSnapshot(gen, state)
}

// appendDurable runs one WAL append, absorbing what it can: an ENOSPC
// gets one shot at an emergency compacting snapshot (rotation + snapshot
// GC frees every superseded segment) before the append is retried; a
// failure that sticks trips read-only mode and refuses the mutation.
// Caller holds commitMu — which is why the compaction inlines the
// rotate+write rather than calling WriteSnapshot (it would deadlock
// re-taking the mutex).
func (s *Server) appendDurable(append func() error) error {
	err := append()
	if err == nil {
		return nil
	}
	cause := "append"
	if errors.Is(err, syscall.ENOSPC) {
		cause = "enospc"
		if cerr := s.compactLocked(); cerr == nil {
			if err = append(); err == nil {
				s.reg.Counter("server_enospc_compactions_total", nil).Inc()
				return nil
			}
		}
	}
	s.reg.Counter("server_wal_errors_total", nil).Inc()
	s.tripReadOnly(cause)
	return fmt.Errorf("%w: %v", errWAL, err)
}

// compactLocked is the emergency snapshot path: rotate + snapshot with
// commitMu already held. The snapshot's GC deletes every superseded
// segment and snapshot, which under disk pressure is the space that lets
// the retried append through.
func (s *Server) compactLocked() error {
	gen, err := s.wal.Rotate()
	if err != nil {
		return err
	}
	return s.wal.WriteSnapshot(gen, s.cat.Snapshot())
}

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
// signal a load balancer must act on. Degraded is a quarantined device, a
// promoted or quarantined shard, or read-only storage.
func (s *Server) status() string {
	switch {
	case s.draining():
		return "draining"
	case s.readOnly(), s.health != nil && s.health.Degraded(), s.cfg.Cluster != nil && s.cfg.Cluster.Degraded():
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
		if err := s.commitPut(name, "", rrel); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("read repair: adopting %q: %w", name, err)
			}
			continue
		}
		s.reg.Counter("server_read_repair_adopted_total", nil).Inc()
	}
	return firstErr
}

func (s *Server) handleGetRelation(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var rel *relation.Relation
	if s.cfg.Cluster != nil && !strings.HasPrefix(name, hiddenPrefix) {
		if _, known := s.cfg.Cluster.Rows(name); !known {
			writeError(w, http.StatusNotFound, "unknown relation %q", name)
			return
		}
		var err error
		if rel, err = s.cfg.Cluster.Gather(r.Context(), name); err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
	} else {
		var ok bool
		if rel, ok = s.cat.Get(name); !ok {
			writeError(w, http.StatusNotFound, "unknown relation %q", name)
			return
		}
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
	if s.cfg.Cluster != nil && !strings.HasPrefix(name, hiddenPrefix) {
		existed, err := s.cfg.Cluster.DeleteKeyed(r.Context(), name, r.Header.Get("Idempotency-Key"))
		if err != nil {
			writeError(w, http.StatusBadGateway, "%v", err)
			return
		}
		if !existed {
			writeError(w, http.StatusNotFound, "unknown relation %q", name)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	ok, err := s.commitDelete(name, r.Header.Get("Idempotency-Key"))
	if err != nil {
		if errors.Is(err, errWAL) {
			s.reject(w, http.StatusServiceUnavailable, "read_only", "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown relation %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// relationInfo is one catalog entry in the listing.
type relationInfo struct {
	Name    string   `json:"name"`
	Rows    int      `json:"rows"`
	Columns []string `json:"columns"`
	Domains []string `json:"domains"`
}

func (s *Server) handleListRelations(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Cluster != nil {
		// Coordinator mode: the directory is what PUT traffic recorded;
		// the tuples themselves live on the shards.
		out := make([]relationInfo, 0)
		for _, name := range s.cfg.Cluster.Names() {
			rows, _ := s.cfg.Cluster.Rows(name)
			out = append(out, relationInfo{Name: name, Rows: rows})
		}
		writeJSON(w, http.StatusOK, map[string]any{"relations": out})
		return
	}
	snap := s.cat.Snapshot()
	out := make([]relationInfo, 0, len(snap))
	for _, name := range s.cat.Names() {
		rel := snap[name]
		if rel == nil { // deleted between Names and Snapshot; skip
			continue
		}
		if strings.HasPrefix(name, hiddenPrefix) {
			// Reserved namespace: cluster membership and staged temps are
			// catalog entries, not user relations.
			continue
		}
		info := relationInfo{Name: name, Rows: rel.Cardinality(), Columns: rel.Schema().Names()}
		for i := 0; i < rel.Schema().Width(); i++ {
			info.Domains = append(info.Domains, rel.Schema().Col(i).Domain.Name())
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"relations": out})
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
	body := map[string]any{"relations": s.cat.Len()}
	if s.health != nil {
		if q := s.health.QuarantinedNames(); len(q) > 0 {
			body["quarantined"] = q
		}
	}
	if c := s.cfg.Cluster; c != nil {
		// Cluster topology: per-shard primary/replica addressing, who has
		// been promoted, who is quarantined. A promoted or quarantined
		// shard degrades the cluster (it lost its failover headroom) even
		// though queries still answer.
		topo := c.Topology()
		serving := true
		for _, sh := range topo {
			if sh.Quarantined {
				serving = false
			}
		}
		body["cluster"] = map[string]any{
			"shards":  topo,
			"serving": serving,
		}
	}
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
	body["status"] = s.status()
	writeJSON(w, http.StatusOK, body)
}

// durabilityView is the healthz durability object: the WAL's status with
// the server's storage degradation mode flattened alongside it.
type durabilityView struct {
	wal.Status
	Mode  string `json:"mode"`
	Cause string `json:"cause,omitempty"`
}

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
		resp, err := s.runQuery(ctx, &req)
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
	if req.Streaming && (req.Machine || s.cfg.Cluster != nil) {
		return fmt.Errorf(`"streaming" runs on the single-node host executor: it cannot be combined with "machine" or sent to a coordinator`)
	}
	return nil
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

// runQuery prepares (via the plan cache) and executes one plan against a
// catalog snapshot, on the host arrays or the §9 machine.
func (s *Server) runQuery(ctx context.Context, req *queryRequest) (*queryResponse, error) {
	resp := &queryResponse{}
	if s.cfg.Cluster != nil {
		// Coordinator mode: the optimizer needs catalog cardinalities the
		// coordinator doesn't hold, so the plan scatters as written; the
		// executor's own strategies (co-partition, broadcast, shuffle) do
		// the distributed planning. The cache still skips Parse; a parsed
		// plan depends on its text alone, so every entry carries the same
		// constant version and no PUT invalidates it (shard daemons
		// invalidate their own sub-plan caches through their catalog
		// counters).
		plan, err := s.preparePlan(req, resp, nil, 0, false)
		if err != nil {
			return nil, err
		}
		resp.Optimized = resp.Plan
		resp.Backend = req.backend.String()
		resp.Distributed = true
		rel, err := s.cfg.Cluster.Execute(ctx, plan)
		if err != nil {
			return nil, err
		}
		return resp, resp.setResult(rel, req)
	}
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
