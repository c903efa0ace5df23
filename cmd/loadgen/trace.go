package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"

	"systolicdb/internal/bitset"
	"systolicdb/internal/cluster"
	"systolicdb/internal/decompose"
	"systolicdb/internal/dedup"
	"systolicdb/internal/division"
	"systolicdb/internal/intersect"
	"systolicdb/internal/join"
	"systolicdb/internal/machine"
	"systolicdb/internal/obs"
	"systolicdb/internal/perf"
	"systolicdb/internal/query"
	"systolicdb/internal/relation"
	"systolicdb/internal/wal"
)

// The traced pass measures layers from outside the daemons. Each traced
// request is first sent to the live daemon (the `request` span), then
// replayed inside loadgen, on loadgen's own copy of the relations, through
// the layers' public functions — one child span per call. The children are
// therefore measured after their parent, not inside its interval: a trace
// reader compares durations, not timestamps. What the replay does not
// account for (HTTP, JSON, admission, goroutine hand-offs, and any
// difference between the daemon's heap and loadgen's) is the request's
// overhead, so children + overhead = request by construction. In-program
// spans are a later change.

// span is one timed call.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a request span
	Request  int    `json:"request"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the traced pass began
	EndNS    int64  `json:"end_ns"`
	// Group marks children the daemon runs in parallel (a scatter): only
	// the longest of a group is on the request's blocking path.
	Group string `json:"group,omitempty"`
	// OverheadNS is set on request spans: duration − children on the
	// blocking path.
	OverheadNS *int64 `json:"overhead_ns,omitempty"`
}

// tracer keeps spans in memory until the command exits.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

// add records a finished call and returns its span id.
func (t *tracer) add(parent, request int, name, group string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Workload: t.workload,
		Name: name, StartNS: s, EndNS: s + d.Nanoseconds(), Group: group})
	return id
}

// writeSpans writes every span of the run as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replayer re-runs traced requests through the layers' public functions.
type replayer struct {
	wl  *workload
	in  *inputs
	tr  *tracer
	reg *obs.Registry // private: the replay must not pollute obs.Default
	ctx context.Context

	cache  *query.PlanCache
	log    *wal.Log // scratch log with the daemons' fsync policy; nil for in-memory workloads
	ring   *cluster.Ring
	shards []*cluster.ShardClient

	req int // current request number
	// dur collects span durations (ms) by span name, for the medians.
	dur map[string][]float64
	// rows and ns of table parsing and formatting, for the per-row rates.
	parseRows, formatRows int
	parseNS, formatNS     float64
	partRows              int
	partNS                float64
	requestMS             []float64
	overheadMS            []float64
	selfMS                []float64           // query.ExecuteCtx − its kernel child
	executeMS             [numModes][]float64 // query.ExecuteCtx by mode
	scatter               time.Duration       // slowest direct shard call of the current request
	coordMS, dualMS       []float64           // coordinator request − scatter, for queries and PUTs
}

// timed runs f as a child span of parent and returns its span id and
// duration.
func (rp *replayer) timed(parent int, name, group string, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	d := time.Since(start)
	rp.dur[name] = append(rp.dur[name], float64(d.Nanoseconds())/1e6)
	return rp.tr.add(parent, rp.req, name, group, start, d), d
}

// newReplayer prepares loadgen's own copy of the workload's state: the
// catalog with every relation the daemons hold, a plan cache, a scratch
// WAL, and for a cluster the ring and direct clients to the live primaries.
func newReplayer(wl *workload, in *inputs, top *topology, own *owned, scratch string) (*replayer, error) {
	rp := &replayer{wl: wl, in: in, reg: obs.NewRegistry(), ctx: context.Background(),
		tr: &tracer{workload: wl.name, epoch: time.Now()}, dur: map[string][]float64{}}
	rp.cache = query.NewPlanCache(256, rp.reg) // the daemons' default capacity
	for _, list := range [][]named{in.static, in.reference} {
		for _, n := range list {
			if err := in.cat.Put(n.name, n.rel); err != nil {
				return nil, err
			}
		}
	}
	if own != nil {
		for i, b := range own.body {
			if b >= 0 {
				if err := in.cat.Put(own.names[i], in.bodies[b].rel); err != nil {
					return nil, err
				}
			}
		}
	}
	parse := func(text string) (*relation.Relation, error) {
		return in.cat.ParseTable(strings.NewReader(text), "")
	}
	if top.durable {
		var err error
		if rp.log, err = wal.Open(wal.Options{Dir: scratch, Fsync: true, Decode: parse, Metrics: rp.reg}); err != nil {
			return nil, fmt.Errorf("scratch WAL: %w", err)
		}
	}
	if len(top.primaries) > 0 {
		var err error
		if rp.ring, err = cluster.NewRing(len(top.primaries)); err != nil {
			return nil, err
		}
		for _, p := range top.primaries {
			rp.shards = append(rp.shards, cluster.NewShardClient(p.base, parse,
				cluster.ClientOptions{Backend: wl.backend.String(), MaxIdlePerHost: 1}))
		}
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.log != nil {
		_ = rp.log.Close() // scratch log; its directory is removed with the run's
	}
}

// replay re-runs r layer by layer under the request span and returns the
// time its children take on the blocking path.
func (rp *replayer) replay(parent int, r request) (time.Duration, error) {
	switch {
	case r.class == classQuery && rp.ring != nil:
		return rp.clusterQuery(parent, r)
	case r.class == classQuery:
		return rp.query(parent, r)
	case r.class == classPut:
		return rp.put(parent, r)
	case r.class == classDelete:
		return rp.delete(parent, r)
	}
	return rp.get(parent, r)
}

// prepare mirrors the server's preparePlan: raw-text cache lookup, else
// parse, canonical lookup, optimize, insert.
func (rp *replayer) prepare(parent int, r request, cat query.Catalog, version uint64, optimize bool) (query.Node, time.Duration, error) {
	var (
		total time.Duration
		cp    *query.CachedPlan
		hit   bool
		plan  query.Node
		err   error
	)
	_, d := rp.timed(parent, "PlanCache.Lookup", "", func() {
		cp, hit = rp.cache.Lookup(r.plan.text, rp.wl.backend, optimize, version)
	})
	total += d
	if hit {
		return cp.Plan, total, nil
	}
	var parsed query.Node
	_, d = rp.timed(parent, "query.Parse", "", func() { parsed, err = query.Parse(r.plan.text) })
	total += d
	if err != nil {
		return nil, total, err
	}
	var canonical string
	_, d = rp.timed(parent, "PlanCache.Lookup", "", func() {
		canonical = query.Render(parsed)
		cp, hit = rp.cache.LookupCanonical(r.plan.text, canonical, rp.wl.backend, optimize, version)
	})
	total += d
	if hit {
		return cp.Plan, total, nil
	}
	plan = parsed
	if optimize {
		_, d = rp.timed(parent, "query.Optimize", "", func() { plan, err = query.Optimize(parsed, cat) })
		total += d
		if err != nil {
			return nil, total, err
		}
	}
	_, d = rp.timed(parent, "PlanCache.Insert", "", func() {
		rp.cache.Insert(r.plan.text, canonical, rp.wl.backend, optimize, version, plan)
	})
	return plan, total + d, nil
}

// format mirrors the server's result rendering: text table plus CRC32.
func (rp *replayer) format(parent int, rel *relation.Relation) (time.Duration, error) {
	var err error
	_, d := rp.timed(parent, "relation.FormatTable+CRC32", "", func() {
		var sb strings.Builder
		if err = relation.FormatTable(&sb, rel); err == nil {
			_ = crc32.ChecksumIEEE([]byte(sb.String()))
		}
	})
	rp.formatRows += rel.Cardinality()
	rp.formatNS += float64(d.Nanoseconds())
	return d, err
}

// query replays a single-node POST /query.
func (rp *replayer) query(parent int, r request) (time.Duration, error) {
	cat, version := rp.in.cat.SnapshotVersion()
	plan, total, err := rp.prepare(parent, r, cat, version, true)
	if err != nil {
		return total, err
	}
	var rel *relation.Relation
	opts := &query.Options{Metrics: rp.reg, Stats: &query.ExecStats{}, Backend: rp.wl.backend,
		Streaming: r.mode == modeStreaming}
	if r.mode == modeMachine {
		_, d := rp.timed(parent, "query.ExecuteOnMachine", "", func() { rel, err = rp.onMachine(plan, cat, opts) })
		total += d
	} else {
		id, d := rp.timed(parent, "query.ExecuteCtx", "", func() { rel, err = query.ExecuteCtx(rp.ctx, plan, cat, opts) })
		total += d
		ms := float64(d.Nanoseconds()) / 1e6
		rp.executeMS[r.mode] = append(rp.executeMS[r.mode], ms)
		if err == nil && r.mode == modeMaterializing {
			if k, ok := rp.kernel(id, plan, cat); ok {
				rp.selfMS = append(rp.selfMS, ms-float64(k.Nanoseconds())/1e6)
			}
		}
	}
	if err != nil {
		return total, err
	}
	d, err := rp.format(parent, rel)
	return total + d, err
}

// onMachine mirrors the server's §9 machine: three memories, one device of
// each kind sized by -array, the 1980 technology.
func (rp *replayer) onMachine(plan query.Node, cat query.Catalog, opts *query.Options) (*relation.Relation, error) {
	size := decompose.ArraySize{MaxA: rp.wl.array, MaxB: rp.wl.array}
	m, err := machine.New(machine.Config{
		Memories: 3,
		Devices: []machine.DeviceConfig{
			{Name: "intersect0", Kind: machine.DevIntersect, Size: size},
			{Name: "join0", Kind: machine.DevJoin, Size: size},
			{Name: "divide0", Kind: machine.DevDivide, Size: size},
		},
		Tech: perf.Conservative1980, Disk: perf.Disk1980, Metrics: rp.reg, Backend: rp.wl.backend,
	})
	if err != nil {
		return nil, err
	}
	rel, _, _, err := query.ExecuteOnMachine(rp.ctx, plan, cat, opts, m, false)
	return rel, err
}

// kernel times the root operator's direct kernel call — bitset.* or the
// pulse array driver — on the inputs the executor would have handed it, as
// a child of the ExecuteCtx span. The inputs are computed untimed.
func (rp *replayer) kernel(parent int, plan query.Node, cat query.Catalog) (time.Duration, bool) {
	sub := func(n query.Node) *relation.Relation {
		rel, err := query.ExecuteCtx(rp.ctx, n, cat, &query.Options{Metrics: rp.reg, Backend: rp.wl.backend})
		if err != nil {
			return nil
		}
		return rel
	}
	bits := rp.wl.backend == machine.BackendBitset
	var call func() error
	name := ""
	switch op := plan.(type) {
	case query.Intersect:
		l, r := sub(op.L), sub(op.R)
		name = "Intersection"
		call = func() (err error) {
			if bits {
				_, err = bitset.Intersection(l, r)
			} else {
				_, err = intersect.Intersection(l, r)
			}
			return
		}
	case query.Difference:
		l, r := sub(op.L), sub(op.R)
		name = "Difference"
		call = func() (err error) {
			if bits {
				_, err = bitset.Difference(l, r)
			} else {
				_, err = intersect.Difference(l, r)
			}
			return
		}
	case query.Union:
		l, r := sub(op.L), sub(op.R)
		name = "Union"
		call = func() (err error) {
			if bits {
				_, err = bitset.Union(l, r)
			} else {
				_, err = dedup.Union(l, r)
			}
			return
		}
	case query.Dedup:
		c := sub(op.Child)
		name = "RemoveDuplicates"
		call = func() (err error) {
			if bits {
				_, err = bitset.RemoveDuplicates(c)
			} else {
				_, err = dedup.RemoveDuplicates(c)
			}
			return
		}
	case query.Project:
		c := sub(op.Child)
		name = "Project"
		call = func() (err error) {
			if bits {
				_, err = bitset.Project(c, op.Cols)
			} else {
				_, err = dedup.Project(c, op.Cols)
			}
			return
		}
	case query.Join:
		l, r := sub(op.L), sub(op.R)
		name = "Join"
		call = func() (err error) {
			if bits {
				_, err = bitset.Join(l, r, op.Spec)
			} else {
				_, err = join.Join(l, r, op.Spec)
			}
			return
		}
	case query.Divide:
		l, r := sub(op.L), sub(op.R)
		name = "Divide"
		call = func() (err error) {
			if bits {
				_, err = bitset.Divide(l, r, op.AQuot, op.ADiv, op.BCols)
			} else {
				_, err = division.Divide(l, r, op.AQuot, op.ADiv, op.BCols)
			}
			return
		}
	default:
		return 0, false // scan and select run on the host either way
	}
	pkg := "bitset."
	if !bits {
		pkg = "pulse."
	}
	var err error
	_, d := rp.timed(parent, pkg+name, "", func() { err = call() })
	return d, err == nil
}

// put replays a PUT: parse the body, log it, publish it. Against a cluster
// the coordinator instead partitions the relation and writes each part to
// its shard (primary and replica); the replay writes the parts straight to
// the live primaries under a scratch name.
func (rp *replayer) put(parent int, r request) (time.Duration, error) {
	body := rp.in.bodies[r.body]
	var (
		rel *relation.Relation
		err error
	)
	_, total := rp.timed(parent, "Catalog.ParseTable", "", func() {
		rel, err = rp.in.cat.ParseTable(strings.NewReader(body.text), "")
	})
	if err != nil {
		return total, err
	}
	rp.parseRows += rel.Cardinality()
	rp.parseNS += float64(total.Nanoseconds())

	if rp.ring != nil {
		var parts []*relation.Relation
		_, d := rp.timed(parent, "cluster.Partition", "", func() { parts, err = cluster.Partition(rel, rp.ring) })
		if err != nil {
			return total + d, err
		}
		total += d
		rp.partRows += rel.Cardinality()
		rp.partNS += float64(d.Nanoseconds())
		slowest := time.Duration(0)
		const scratch = "lgdirect"
		for i, sh := range rp.shards {
			id, d := rp.timed(parent, "ShardClient.PutKeyed", "scatter", func() {
				err = sh.PutKeyed(rp.ctx, scratch, "", parts[i])
			})
			if err != nil {
				return total, err
			}
			slowest = max(slowest, d)
			if i == 0 {
				// What the shard itself spends logging its part, as a
				// grandchild: it is inside the shard call, not beside it.
				rp.timed(id, "wal.AppendPutKeyed", "", func() { err = rp.log.AppendPutKeyed(scratch, "", parts[0]) })
				if err != nil {
					return total, err
				}
			}
		}
		for _, sh := range rp.shards {
			if err := sh.Delete(rp.ctx, scratch); err != nil {
				return total, err
			}
		}
		rp.scatter = slowest
		total += slowest
	} else if rp.log != nil {
		_, d := rp.timed(parent, "wal.AppendPutKeyed", "", func() { err = rp.log.AppendPutKeyed(r.name, "", rel) })
		if err != nil {
			return total + d, err
		}
		total += d
	}
	_, d := rp.timed(parent, "Catalog.Put", "", func() { err = rp.in.cat.Put(r.name, rel) })
	return total + d, err
}

// delete replays a DELETE.
func (rp *replayer) delete(parent int, r request) (time.Duration, error) {
	var (
		total time.Duration
		err   error
	)
	if rp.log != nil && rp.ring == nil {
		_, total = rp.timed(parent, "wal.AppendDeleteKeyed", "", func() { err = rp.log.AppendDeleteKeyed(r.name, "") })
		if err != nil {
			return total, err
		}
	}
	_, d := rp.timed(parent, "Catalog.Delete", "", func() { rp.in.cat.Delete(r.name) })
	return total + d, nil
}

// get replays a GET /relations/{name}: the typed table dump.
func (rp *replayer) get(parent int, r request) (time.Duration, error) {
	rel, ok := rp.in.cat.Get(r.name)
	if !ok {
		return 0, fmt.Errorf("replay: relation %s is not in loadgen's copy", r.name)
	}
	var err error
	_, d := rp.timed(parent, "relation.FormatTableTypes", "", func() {
		var sb strings.Builder
		err = relation.FormatTableTypes(&sb, rel)
	})
	rp.formatRows += rel.Cardinality()
	rp.formatNS += float64(d.Nanoseconds())
	return d, err
}

// clusterQuery replays a coordinator query: plan preparation without the
// optimizer (as the coordinator does), the same plan text sent straight to
// every live primary (the slowest sets the scatter's time), and the
// rendering of the gathered result. For shuffle and broadcast joins the
// direct call is a cost reference only — a shard answering the plan on its
// own partition does the same kernel work, but its answer is not the
// sub-query's, so it is not checked.
func (rp *replayer) clusterQuery(parent int, r request) (time.Duration, error) {
	cat, version := rp.in.cat.SnapshotVersion()
	plan, total, err := rp.prepare(parent, r, nil, version, false)
	if err != nil {
		return total, err
	}
	slowest := time.Duration(0)
	for _, sh := range rp.shards {
		_, d := rp.timed(parent, "ShardClient.Query", "scatter", func() { _, err = sh.Query(rp.ctx, r.plan.text) })
		if err != nil {
			return total, err
		}
		slowest = max(slowest, d)
	}
	total += slowest
	rp.scatter = slowest
	rel, err := query.ExecuteCtx(rp.ctx, plan, cat, &query.Options{Metrics: rp.reg, Backend: rp.wl.backend})
	if err != nil {
		return total, err
	}
	d, err := rp.format(parent, rel)
	return total + d, err
}

// tracedPass replays tracedRequests requests of the mix (plus a slice of
// the mutation phase when the mix holds no mutations), one at a time, and
// derives the per-layer report from the spans and from the window's
// counters.
func tracedPass(e *env, res *result, wl *workload, in *inputs, top *topology, c *client, cfg runConfig, win *window) error {
	rp, err := newReplayer(wl, in, top, state(c.gen), filepath.Join(e.dir, "replay-wal"))
	if err != nil {
		return err
	}
	defer rp.close()

	// The tiler records into obs.Default, which no daemon exposes; the
	// replay's own tiles are the only outside view of it.
	tiles := obs.Default.Counter("decompose_tiles_total", nil)
	tilesBefore := tiles.Value()

	tc := newClient(top.front, in, nil)
	one := func(r request) error {
		rp.req++
		start := time.Now()
		took := tc.do(r, true)
		id := rp.tr.add(0, rp.req, "request", "", start, took)
		children, err := rp.replay(id, r)
		if err != nil {
			return fmt.Errorf("%s: replaying %s: %w", wl.name, r.class.route(), err)
		}
		over := (took - children).Nanoseconds()
		rp.tr.spans[id-1].OverheadNS = &over
		rp.requestMS = append(rp.requestMS, took.Seconds()*1000)
		rp.overheadMS = append(rp.overheadMS, float64(over)/1e6)
		if rp.ring != nil {
			beyond := (took - rp.scatter).Seconds() * 1000
			switch r.class {
			case classQuery:
				rp.coordMS = append(rp.coordMS, beyond)
			case classPut:
				rp.dualMS = append(rp.dualMS, beyond)
			}
		}
		return nil
	}
	for i := 0; i < tracedRequests; i++ {
		if err := one(c.gen.next()); err != nil {
			return err
		}
	}
	if !wl.mutates {
		g := probeClientGen(cfg.seed, clients) // names no other phase touched
		for i := 0; i < tracedProbe; i++ {
			if err := one(g.next()); err != nil {
				return err
			}
		}
	}
	res.absorb(tc)
	res.spans = rp.tr.spans
	res.layer = layerReport(wl, in, top, win, rp, tc)
	res.layer["decompose.tiles_per_query"] = ratio(float64(tiles.Value()-tilesBefore),
		float64(len(rp.dur["query.ExecuteOnMachine"])))
	// How much of the traced requests' time the executor and the result
	// formatting explain: the figure that tells kernel_heavy (most of it)
	// from small_plans (little of it).
	busy := 0.0
	for _, name := range []string{"query.ExecuteCtx", "query.ExecuteOnMachine", "relation.FormatTable+CRC32"} {
		for _, ms := range rp.dur[name] {
			busy += ms
		}
	}
	total := 0.0
	for _, ms := range rp.requestMS {
		total += ms
	}
	res.info = map[string]float64{"trace.execute_format_share": ratio(busy, total)}
	return nil
}
