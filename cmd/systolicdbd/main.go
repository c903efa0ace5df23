// Command systolicdbd is the systolic database network service: a
// long-lived daemon that owns a catalog of named relations and executes
// relational-algebra plans for many concurrent clients, on the simulated
// systolic arrays or the §9 crossbar machine.
//
//	systolicdbd -addr 127.0.0.1:8080 -rel emp=employees.tbl
//
//	curl -X PUT --data-binary @parts.tbl localhost:8080/relations/parts
//	curl -X POST -d '{"plan": "dedup(scan(parts))"}' localhost:8080/query
//	curl localhost:8080/metrics
//
// With -data-dir the catalog is durable: every PUT/DELETE is written to a
// checksummed write-ahead log before it is acknowledged, the log is
// periodically compacted into atomic snapshots, and on boot the daemon
// recovers and re-verifies the persisted catalog (torn final records are
// truncated; any other corruption refuses to start — run
// `systolicdb -op fsck -data-dir <dir>` for the damage report).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: listening stops
// immediately, in-flight queries drain (bounded by -drain), a final
// snapshot is written, then the process exits 0.
//
// Cluster modes (Kung & Lehman's Figure 9-1 crossbar scaled out to many
// daemons):
//
//	systolicdbd -coordinator -shards host1:8081=host1:8181,host2:8082
//	systolicdbd -replica-of host1:8081 -data-dir /var/lib/sdb-replica
//
// A coordinator owns no tuples: it hash-partitions PUTs across the shard
// daemons, scatters each query as per-shard sub-plans, and gathers the
// partials. A replica follows its primary's write-ahead log over GET
// /wal/ship, staying warm for promotion when the coordinator quarantines
// the primary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"systolicdb/internal/cluster"
	"systolicdb/internal/diskchaos"
	"systolicdb/internal/fault"
	"systolicdb/internal/machine"
	"systolicdb/internal/netchaos"
	"systolicdb/internal/obs"
	"systolicdb/internal/relation"
	"systolicdb/internal/server"
	"systolicdb/internal/wal"
)

// daemonConfig carries every knob of one daemon run.
type daemonConfig struct {
	Addr    string
	Workers int
	Queue   int
	Timeout time.Duration
	MaxWait time.Duration
	Array   int
	Drain   time.Duration

	// DataDir enables the durable catalog; empty keeps it in-memory.
	DataDir string
	// Fsync syncs the WAL after every append (the ack-implies-durable
	// guarantee holds through power loss, not just process death).
	Fsync bool
	// SnapshotEvery compacts the WAL after this many un-snapshotted records.
	SnapshotEvery int
	// DiskChaos injects deterministic storage faults into every WAL and
	// snapshot I/O (testing/soak only).
	DiskChaos string
	// ScrubEvery re-verifies the on-disk catalog at this cadence (0 = off).
	ScrubEvery time.Duration
	// ProbeEvery is the read-only recovery probe cadence (0 = default).
	ProbeEvery time.Duration
	// RepairFrom is a replica base URL the scrubber read-repairs
	// corrupt relations from.
	RepairFrom string

	// Backend is the default execution backend for queries that don't pick
	// their own with a "backend" request field.
	Backend machine.Backend

	// PlanCache bounds the prepared-plan LRU (0 = server default 256,
	// negative = caching disabled).
	PlanCache int

	Fault *machine.FaultConfig
	Rels  server.RelSpecs

	// Coordinator scatters queries across the Shards list instead of
	// executing locally.
	Coordinator    bool
	Shards         string
	PromoteAfter   int
	Fanout         int
	BroadcastLimit int

	// NetChaos injects deterministic network faults into every
	// coordinator→shard call (testing/soak only).
	NetChaos string
	// HedgeAfter races slow primary reads against the replica.
	HedgeAfter time.Duration
	// BreakerAfter/BreakerCooldown tune the per-shard circuit breakers.
	BreakerAfter    int
	BreakerCooldown time.Duration

	// ReplicaOf makes this daemon follow another daemon's WAL.
	ReplicaOf   string
	FollowEvery time.Duration
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	flag.IntVar(&cfg.Workers, "max-concurrent", 4, "queries executing at once (worker pool size)")
	flag.IntVar(&cfg.Queue, "queue", 0, "admitted queries that may wait for a worker (0 = 2x workers, -1 = none)")
	flag.DurationVar(&cfg.Timeout, "timeout", 30*time.Second, "default per-query deadline")
	flag.DurationVar(&cfg.MaxWait, "max-timeout", 5*time.Minute, "cap on client-requested deadlines")
	flag.IntVar(&cfg.Array, "array", 64, "device capacity of the §9 machine used by machine queries")
	flag.IntVar(&cfg.PlanCache, "plan-cache", 0, "prepared-plan LRU capacity (0 = default 256, negative = disabled)")
	flag.DurationVar(&cfg.Drain, "drain", 30*time.Second, "how long shutdown waits for in-flight queries")

	flag.StringVar(&cfg.DataDir, "data-dir", "", "durable catalog directory (empty = in-memory only)")
	flag.BoolVar(&cfg.Fsync, "fsync", true, "fsync the write-ahead log on every catalog mutation")
	flag.IntVar(&cfg.SnapshotEvery, "snapshot-every", 128, "compact the write-ahead log after this many mutations")
	flag.StringVar(&cfg.DiskChaos, "diskchaos", "", "inject disk faults into the durable catalog's filesystem; "+diskchaos.SpecHelp())
	flag.DurationVar(&cfg.ScrubEvery, "scrub-every", 0, "anti-entropy scrub cadence for the durable catalog (0 = off)")
	flag.DurationVar(&cfg.ProbeEvery, "probe-every", 0, "read-only recovery probe cadence after a disk fault (0 = default 2s)")
	flag.StringVar(&cfg.RepairFrom, "repair-from", "", "replica base URL the scrubber read-repairs corrupt relations from")

	var (
		backendFl  = flag.String("backend", "pulse", "default execution backend: pulse | bitset (requests may override per query)")
		faultSpec  = flag.String("fault", "", "inject faults into machine-query devices; "+fault.SpecHelp())
		verifySpec = flag.String("verify", "", "per-tile verification for machine queries: none | checksum | dual (default checksum when -fault is set)")
		retries    = flag.Int("retries", 0, "max attempts per tile for machine queries (0 = policy default)")
		quarAfter  = flag.Int("quarantine-after", 0, "consecutive failures before a device is quarantined process-wide (0 = default)")
	)
	flag.BoolVar(&cfg.Coordinator, "coordinator", false, "run as a cluster coordinator scattering queries across -shards")
	flag.StringVar(&cfg.Shards, "shards", "", "coordinator shard list: addr[=replica],... (order is ring position)")
	flag.IntVar(&cfg.PromoteAfter, "promote-after", 3, "consecutive shard failures before quarantine + replica promotion")
	flag.IntVar(&cfg.Fanout, "fanout", 0, "concurrent shard sub-queries per scatter (0 = min(shards, 8))")
	flag.IntVar(&cfg.BroadcastLimit, "broadcast-limit", 0, "max build-side rows broadcast for a distributed join before shuffling (0 = default)")
	flag.StringVar(&cfg.NetChaos, "netchaos", "", "inject network faults into coordinator→shard calls; "+netchaos.SpecHelp())
	flag.DurationVar(&cfg.HedgeAfter, "hedge-after", 0, "hedge read sub-queries against the replica after this delay (0 = off)")
	flag.IntVar(&cfg.BreakerAfter, "breaker-after", 0, "consecutive failures before a shard's circuit breaker opens (0 = promote-after)")
	flag.DurationVar(&cfg.BreakerCooldown, "breaker-cooldown", 0, "open-circuit cooldown before a half-open probe (0 = default 500ms)")
	flag.StringVar(&cfg.ReplicaOf, "replica-of", "", "follow this primary daemon's write-ahead log (replica mode)")
	flag.DurationVar(&cfg.FollowEvery, "follow-every", 250*time.Millisecond, "replica poll cadence against the primary's /wal/ship feed")
	flag.Var(&cfg.Rels, "rel", "preload a relation: name=file.tbl (repeatable; types from a #% types: line)")
	flag.Parse()

	if cfg.Coordinator && cfg.ReplicaOf != "" {
		fmt.Fprintln(os.Stderr, "systolicdbd: -coordinator and -replica-of are mutually exclusive")
		os.Exit(1)
	}
	if cfg.Coordinator != (cfg.Shards != "") {
		fmt.Fprintln(os.Stderr, "systolicdbd: -coordinator and -shards go together")
		os.Exit(1)
	}
	if cfg.DataDir == "" && (cfg.DiskChaos != "" || cfg.ScrubEvery > 0 || cfg.RepairFrom != "") {
		fmt.Fprintln(os.Stderr, "systolicdbd: -diskchaos, -scrub-every and -repair-from need -data-dir")
		os.Exit(1)
	}

	backend, err := machine.ParseBackend(*backendFl)
	if err == nil {
		cfg.Backend = backend
		var fc *machine.FaultConfig
		if fc, err = machine.ParseFaultConfig(*faultSpec, *verifySpec, *retries, *quarAfter); err == nil {
			cfg.Fault = fc
			err = run(cfg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "systolicdbd:", err)
		os.Exit(1)
	}
}

// openDurable opens the WAL in cfg.DataDir and seeds cat with the
// recovered relations. The WAL decodes through cat's own domain pool, so
// recovered relations stay union-compatible with later loads.
func openDurable(cfg daemonConfig, cat *server.Catalog, reg *obs.Registry) (*wal.Log, error) {
	var fsys diskchaos.FS
	if cfg.DiskChaos != "" {
		sp, err := diskchaos.ParseSpec(cfg.DiskChaos)
		if err != nil {
			return nil, fmt.Errorf("-diskchaos: %w", err)
		}
		fsys = diskchaos.New(sp, diskchaos.OS, reg)
		fmt.Printf("systolicdbd: disk chaos on (%s)\n", sp)
	}
	l, err := wal.Open(wal.Options{
		Dir:   cfg.DataDir,
		Fsync: cfg.Fsync,
		FS:    fsys,
		Decode: func(table string) (*relation.Relation, error) {
			return cat.ParseTable(strings.NewReader(table), "")
		},
		Metrics: reg,
		Logf: func(format string, args ...any) {
			fmt.Printf("systolicdbd: wal: %s\n", fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return nil, err
	}
	rec := l.Recovered()
	for name, rel := range rec.Relations {
		if err := cat.Put(name, rel); err != nil {
			l.Close()
			return nil, fmt.Errorf("seeding recovered relation %q: %w", name, err)
		}
	}
	fmt.Printf("systolicdbd: recovered %d relation(s) from %s (snapshot gen %d + %d record(s), %d verified, %d torn byte(s) truncated, %.1fms)\n",
		len(rec.Relations), cfg.DataDir, rec.SnapshotGen, rec.Records, rec.Verified, rec.TornBytes, rec.DurationMS)
	return l, nil
}

func run(cfg daemonConfig) error {
	reg := obs.NewRegistry()
	cat := server.NewCatalog()

	var log *wal.Log
	if cfg.DataDir != "" {
		var err error
		if log, err = openDurable(cfg, cat, reg); err != nil {
			return err
		}
		defer log.Close()
	}

	parse := func(text string) (*relation.Relation, error) {
		return cat.ParseTable(strings.NewReader(text), "")
	}

	// Coordinator mode: the server routes user relations and queries
	// through the cluster instead of the local catalog. The coordinator's
	// Persist hook points back at the server's own durable commit path, so
	// the shard map and relation directory ride the coordinator's WAL;
	// srvPtr breaks the construction cycle (promotions can persist from
	// query goroutines long after boot).
	var co *cluster.Coordinator
	var srvPtr atomic.Pointer[server.Server]
	if cfg.Coordinator {
		specs, err := cluster.ParseShardSpecs(cfg.Shards)
		if err != nil {
			return err
		}
		opts := cluster.CoordinatorOptions{
			Fanout:           cfg.Fanout,
			BroadcastLimit:   cfg.BroadcastLimit,
			Backend:          cfg.Backend.String(),
			LocalBackend:     cfg.Backend,
			PromoteAfter:     cfg.PromoteAfter,
			HedgeAfter:       cfg.HedgeAfter,
			BreakerThreshold: cfg.BreakerAfter,
			BreakerCooldown:  cfg.BreakerCooldown,
			Parse:            parse,
			Persist: func(name string, rel *relation.Relation) error {
				if s := srvPtr.Load(); s != nil {
					return s.ApplyPut(name, "", rel)
				}
				return nil // boot-time persist before the server exists
			},
			Metrics: reg,
		}
		if cfg.NetChaos != "" {
			sp, perr := netchaos.ParseSpec(cfg.NetChaos)
			if perr != nil {
				return fmt.Errorf("-netchaos: %w", perr)
			}
			opts.WrapTransport = func(base http.RoundTripper) http.RoundTripper {
				return netchaos.NewTransport(sp, base, reg)
			}
			fmt.Printf("systolicdbd: network chaos on (%s)\n", cfg.NetChaos)
		}
		co, err = cluster.NewCoordinator(specs, opts)
		if err != nil {
			return err
		}
	}

	// The scrubber's read-repair source: a replica (or any daemon holding
	// the same relations) whose /wal/ship state replaces what a corrupt
	// segment lost.
	var repairSrc server.RepairSource
	if cfg.RepairFrom != "" {
		base := cfg.RepairFrom
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		repairSrc = cluster.NewShardClient(base, parse, cluster.ClientOptions{})
		fmt.Printf("systolicdbd: scrub read-repair from %s\n", base)
	}

	s := server.New(server.Config{
		MaxConcurrent:  cfg.Workers,
		MaxQueue:       cfg.Queue,
		DefaultTimeout: cfg.Timeout,
		MaxTimeout:     cfg.MaxWait,
		ArraySize:      cfg.Array,
		PlanCacheSize:  cfg.PlanCache,
		Metrics:        reg,
		Backend:        cfg.Backend,
		Fault:          cfg.Fault,
		Catalog:        cat,
		WAL:            log,
		SnapshotEvery:  cfg.SnapshotEvery,
		Cluster:        co,
		ScrubEvery:     cfg.ScrubEvery,
		ProbeEvery:     cfg.ProbeEvery,
		RepairSource:   repairSrc,
	})
	srvPtr.Store(s)
	if co != nil {
		// Replay what the previous run persisted: the relation directory
		// (the width oracle behind the co-partitioned join fast path) and
		// promotions recorded in the shard map (so a dead ex-primary is
		// not resurrected). The directory must be restored FIRST:
		// reconciling a changed shard map re-persists the coordinator's
		// whole state, and doing that before the restore would commit an
		// empty directory over the recovered one.
		if rel, ok := cat.Get(cluster.RelationsRelationName); ok {
			if err := co.RestoreDirectory(rel); err != nil {
				return fmt.Errorf("recovering relation directory: %w", err)
			}
		}
		if rel, ok := cat.Get(cluster.MembershipRelationName); ok {
			if err := co.ReconcileMembership(rel); err != nil {
				return fmt.Errorf("recovering shard map: %w", err)
			}
		}
		fmt.Printf("systolicdbd: coordinator over %d shard(s)\n", co.Shards())
	}
	if cfg.ReplicaOf != "" {
		base := cfg.ReplicaOf
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		follower := cluster.NewFollower(
			cluster.NewShardClient(base, parse, cluster.ClientOptions{}),
			s.Replicator(), parse, cfg.FollowEvery, reg)
		followCtx, stopFollow := context.WithCancel(context.Background())
		defer stopFollow()
		go follower.Run(followCtx)
		fmt.Printf("systolicdbd: replica following %s (every %v)\n", base, cfg.FollowEvery)
	}
	// -rel preloads are boot configuration, not client mutations: they are
	// re-applied from their files on every boot and bypass the WAL (the
	// catalog Put, not the server's durable commit path).
	if err := cfg.Rels.LoadInto(s.Catalog()); err != nil {
		return err
	}
	if cfg.Backend != machine.BackendPulse {
		fmt.Printf("systolicdbd: default backend %s\n", cfg.Backend)
	}
	if cfg.Fault != nil {
		plan := "none"
		if cfg.Fault.Plan != nil {
			plan = cfg.Fault.Plan.String()
		}
		fmt.Printf("systolicdbd: fault-tolerant execution on (inject=%s, verify=%s)\n", plan, cfg.Fault.Verify)
	}
	for _, name := range s.Catalog().Names() {
		r, _ := s.Catalog().Get(name)
		fmt.Printf("systolicdbd: loaded %s (%d tuples, %d columns)\n", name, r.Cardinality(), r.Width())
	}

	// Catch SIGTERM before announcing the address: a client that signals
	// as soon as it reads "listening on" must get a drain, not a kill.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("systolicdbd: listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- s.ServeListener(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("systolicdbd: %v, draining (max %v)\n", sig, cfg.Drain)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		if log != nil && log.Lag() > 0 {
			// Compact before exit so the next boot recovers from a snapshot
			// instead of replaying the whole log. Failure is not fatal: the
			// log already holds every acked record, so the next boot just
			// replays more.
			if err := s.WriteSnapshot(); err != nil {
				fmt.Printf("systolicdbd: final snapshot failed (log remains authoritative): %v\n", err)
			} else {
				fmt.Println("systolicdbd: final snapshot written")
			}
		}
		fmt.Println("systolicdbd: bye")
		return nil
	case err := <-errCh:
		return err // listener failed underneath us
	}
}
