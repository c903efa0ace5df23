package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"systolicdb/internal/fault"
)

const (
	// warmUp is how long the clients run before samples count: connections
	// are open, the plan cache and the Go heap have reached steady state.
	warmUp = 2 * time.Second
	// setUps is how often a run sets the workload up from nothing; setup_s
	// is the median, so one slow process start does not decide it.
	setUps = 5
	// recoveries and recoveryTime size the crash step: it repeats until it
	// has run that often and for that long, and recovery_s is the median.
	// Process start is a fifth of a 75 ms coordinator restart and moves by a
	// fifth itself, so the median of nine such restarts moved by 11-13 %
	// between runs; a 190 ms restart-and-reload is steady after nine.
	recoveries   = 9
	recoveryTime = 1500 * time.Millisecond
	// probeMutations and probeTime size the mutation phase of workloads
	// whose window holds too few PUT/DELETEs: it runs until it has both
	// enough samples for a p99 and, where mutations are cheap, enough of
	// them that a single collector pause does not decide that p99.
	probeMutations = 1200
	probeTime      = 3 * time.Second
	// waitReadyTimeout bounds how long a started daemon may take to answer
	// /healthz (a durable one replays its log first).
	waitReadyTimeout = 20 * time.Second
	// tracedRequests is the length of the traced pass.
	tracedRequests = 300
	// tracedProbe is how many mutation-phase requests the traced pass adds
	// for a workload whose mix holds none.
	tracedProbe = 60
)

// runConfig is what the command line fixes for one workload run.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
}

// result is everything one workload run measured.
type result struct {
	workload  string
	e2e       map[string]float64
	layer     map[string]float64 // nil unless traced
	info      map[string]float64 // printed beside the declared metrics, not part of them
	counts    map[string]int     // samples behind each latency class
	attempted int
	failed    int
	errs      []string
	spans     []span
}

// check counts one check made outside any client, and records it when it
// did not hold.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// absorb folds a client's counters into the result.
func (r *result) absorb(c *client) {
	r.attempted += c.attempted
	r.failed += c.failed
	c.attempted, c.failed = 0, 0
	for _, e := range c.errs {
		if len(r.errs) < 10 {
			r.errs = append(r.errs, e)
		}
	}
	c.errs = nil
}

// putTable PUTs one relation body and expects 200.
func putTable(hc *http.Client, base, name, text string) error {
	req, err := http.NewRequest(http.MethodPut, base+"/relations/"+name, strings.NewReader(text))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("PUT %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg [256]byte
		n, _ := resp.Body.Read(msg[:])
		return fmt.Errorf("PUT %s on %s: %s: %s", name, base, resp.Status, msg[:n])
	}
	return nil
}

// load PUTs the workload's relations: static and preloaded ones through the
// front door, the reference cycle's straight at the direct daemon.
func load(hc *http.Client, top *topology, in *inputs) error {
	for _, n := range in.static {
		if err := putTable(hc, top.front.base, n.name, n.text); err != nil {
			return err
		}
	}
	for _, name := range in.preload {
		if err := putTable(hc, top.front.base, name, in.bodies[0].text); err != nil {
			return err
		}
	}
	for _, n := range in.reference {
		if err := putTable(hc, top.direct().base, n.name, n.text); err != nil {
			return err
		}
	}
	return nil
}

// setUp starts the workload's daemons, loads its relations and runs every
// plan once with the full answer check. It is what setup_s times.
func setUp(e *env, wl *workload, in *inputs, hc *http.Client) (*topology, error) {
	top, err := wl.start(e)
	if err != nil {
		return nil, err
	}
	for _, d := range top.all {
		if err := d.waitReady(hc, waitReadyTimeout); err != nil {
			return nil, err
		}
	}
	if err := load(hc, top, in); err != nil {
		return nil, err
	}
	c := newClient(top.front, in, nil)
	for _, r := range wl.warm(in, nil) {
		c.do(r, true)
	}
	if c.failed > 0 {
		return nil, fmt.Errorf("%s: set-up answers are wrong: %s", wl.name, strings.Join(c.errs, "; "))
	}
	return top, nil
}

// drive runs every client until the deadline and returns the wall time and
// loadgen's own CPU time spent meanwhile.
func drive(cs []*client, d time.Duration) (wall, cpu time.Duration) {
	before := selfCPU()
	start := time.Now()
	deadline := start.Add(d)
	each(cs, func(c *client) { c.runUntil(deadline) })
	return time.Since(start), selfCPU() - before
}

// each runs f for every client concurrently and waits. A panic in one
// client is reported as that client's failure, so the deferred daemon
// clean-up in main still runs.
func each(cs []*client, f func(*client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					c.fail(request{class: classGet, name: "(client)"}, "panic: %v", p)
				}
			}()
			f(c)
		}(c)
	}
	wg.Wait()
}

// selfCPU is loadgen's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencies gathers the samples keep accepts from every client, sorted.
func latencies(cs []*client, keep func(sample) bool) []float64 {
	var out []float64
	for _, c := range cs {
		for _, s := range c.samples {
			if keep(s) {
				out = append(out, s.ms)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func isQuery(s sample) bool    { return s.class == classQuery }
func isMutation(s sample) bool { return s.class == classPut || s.class == classDelete }
func anySample(sample) bool    { return true }

// publish stores p50 and p99 of sorted under the two names. A p99 without
// ten samples beyond it is not published: the metric stays absent, which
// the caller reports as a failed run.
func (r *result) publish(p50, p99, class string, sorted []float64) {
	r.counts[class] = len(sorted)
	if len(sorted) > 0 {
		r.e2e[p50] = median(sorted)
	}
	if v, ok := percentile(sorted, 0.99); ok {
		r.e2e[p99] = v
	}
}

// scrapeAll reads /metrics of every daemon.
func scrapeAll(hc *http.Client, top *topology) (map[*daemon]scrape, error) {
	out := make(map[*daemon]scrape, len(top.all))
	for _, d := range top.all {
		s, err := fetchScrape(hc, d.base)
		if err != nil {
			return nil, err
		}
		out[d] = s
	}
	return out, nil
}

// runWorkload is one whole run of one workload: set-up (setUps times over),
// warm-up, the untraced measured window, the mutation phase or reference
// cycle the mix lacks, the traced pass when asked for, and the crash step.
func runWorkload(e *env, wl *workload, cfg runConfig) (*result, error) {
	res := &result{workload: wl.name, e2e: map[string]float64{}, counts: map[string]int{}}
	in, err := wl.build(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", wl.name, err)
	}
	hc := newHTTPClient()

	// Set-up, repeated from nothing; the last one stays up.
	var top *topology
	var setupTimes []float64
	for i := 0; i < setUps; i++ {
		if top != nil {
			e.stopAll()
		}
		start := time.Now()
		if top, err = setUp(e, wl, in, hc); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer e.stopAll()
	res.e2e["setup_s"] = median(setupTimes)

	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(top.front, in, wl.gen(in, cfg.seed, i))
	}

	// Warm-up, then the measured window. Nothing is traced here.
	drive(cs, warmUp)
	for _, c := range cs {
		res.absorb(c)
		c.reset()
	}
	before, err := scrapeAll(hc, top)
	if err != nil {
		return nil, err
	}
	wall, cpu := drive(cs, time.Duration(cfg.seconds)*time.Second)
	after, err := scrapeAll(hc, top)
	if err != nil {
		return nil, err
	}

	all := latencies(cs, anySample)
	res.e2e["throughput_rps"] = float64(len(all)) / wall.Seconds()
	res.publish("latency_p50_ms", "latency_p99_ms", "all", all)
	res.publish("query_p50_ms", "query_p99_ms", "query", latencies(cs, isQuery))
	win := &window{wall: wall, cpu: cpu, before: before, after: after}
	for _, c := range cs {
		win.tally.add(&c.tally)
		win.samples = append(win.samples, c.samples...)
	}
	if err := win.measureSpace(in, top, cs); err != nil {
		return nil, err
	}

	// Mutation latency: from the window when the mix holds enough mutations
	// for a p99, else from a fixed mutation phase through the same front door.
	if !wl.mutationPhase {
		res.publish("mutation_p50_ms", "mutation_p99_ms", "mutation", latencies(cs, isMutation))
	} else {
		ps := make([]*client, clients)
		for i := range ps {
			ps[i] = newClient(top.front, in, probeClientGen(cfg.seed, i))
		}
		each(ps, func(c *client) { c.runAtLeast(probeMutations/clients, probeTime) })
		res.publish("mutation_p50_ms", "mutation_p99_ms", "mutation", latencies(ps, isMutation))
		for _, c := range ps {
			res.absorb(c)
		}
	}

	// Simulated pulses per query: over the whole round-robin cycles of the
	// window when the mix is the pulse round-robin, else over one reference
	// cycle sent to this workload's daemon with the pulse backend.
	var perClient [][]int
	if wl.cycle > 0 {
		for _, c := range cs {
			perClient = append(perClient, c.pulses)
		}
	} else {
		rc := newClient(top.direct(), in, nil)
		for _, r := range referenceCycle(in) {
			rc.do(r, true)
		}
		perClient = [][]int{rc.pulses}
		res.absorb(rc)
	}
	if v, ok := pulsesPerQuery(perClient, pulseCycle); ok {
		res.e2e["sim_pulses_per_query"] = v
	}
	for _, c := range cs {
		res.absorb(c)
	}

	// The traced pass replays requests one at a time, first against the
	// live daemons, then layer by layer inside loadgen.
	if cfg.trace {
		if err := tracedPass(e, res, wl, in, top, cs[0], cfg, win); err != nil {
			return nil, err
		}
	}

	rss := 0.0
	for _, d := range top.all {
		mb, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	res.e2e["rss_peak_mb"] = rss

	if err := crashStep(res, wl, in, top, cs, hc); err != nil {
		return nil, err
	}
	return res, nil
}

// window is what the measured window left behind for the per-layer report.
type window struct {
	wall, cpu     time.Duration
	before, after map[*daemon]scrape
	tally         tally
	samples       []sample
	// diskBytes is the size of every data directory when the window ended;
	// liveBytes the text size of the relations the daemons then held.
	diskBytes, liveBytes int64
}

// measureSpace fills the window's disk and live byte counts.
func (w *window) measureSpace(in *inputs, top *topology, cs []*client) error {
	for _, d := range top.all {
		if d.dataDir == "" {
			continue
		}
		n, err := dirBytes(d.dataDir)
		if err != nil {
			return err
		}
		w.diskBytes += n
	}
	for _, list := range [][]named{in.static, in.reference} {
		for _, n := range list {
			w.liveBytes += int64(len(n.text))
		}
	}
	for _, c := range cs {
		if own := state(c.gen); own != nil {
			for _, b := range own.body {
				if b >= 0 {
					w.liveBytes += int64(len(in.bodies[b].text))
				}
			}
		}
	}
	return nil
}

// state returns the owned-name view of a generator that tracks one.
func state(g generator) *owned {
	switch g := g.(type) {
	case *durableGen:
		return g.own
	case *clusterGen:
		return g.own
	}
	return nil
}

// crashStep SIGKILLs the workload's crash daemon and restarts it on the
// same address (and data directory), timing kill → every plan of the
// workload answered correctly once, the same check set-up ends with. (Kill
// → first answer would be 15 ms of process start on most workloads, and
// process start alone moves by a fifth from run to run.) A durable daemon
// must then hold every acked write; an in-memory one is loaded again by the
// client, which is what its users would have to do. The kill is a process
// kill only: the page cache survives it.
func crashStep(res *result, wl *workload, in *inputs, top *topology, cs []*client, hc *http.Client) error {
	var times []float64
	d := top.crash
	if wl.settleLag > 0 {
		if err := settleLag(hc, d, in, wl.settleLag); err != nil {
			return err
		}
	}
	for i, begin := 0, time.Now(); i < recoveries || time.Since(begin) < recoveryTime; i++ {
		start := time.Now()
		d.kill()
		if err := d.start(); err != nil {
			return err
		}
		if err := d.waitReady(hc, waitReadyTimeout); err != nil {
			return err
		}
		if !top.durable {
			if err := load(hc, top, in); err != nil {
				return err
			}
		}
		c := newClient(top.front, in, nil)
		for _, r := range wl.warm(in, state(cs[0].gen)) {
			c.do(r, true)
		}
		times = append(times, time.Since(start).Seconds())
		res.absorb(c)
	}
	res.e2e["recovery_s"] = median(times)

	if top.durable {
		verifyDurable(res, in, top, cs, hc)
		if res.layer != nil {
			recoveryReport(res, d, hc)
		}
	}
	return nil
}

// settleLag brings the daemon's write-ahead log to exactly lag records
// since its last snapshot, by PUTting a scratch relation and watching
// /healthz. How much log a restart has to replay depends on where in the
// snapshot cycle the window happened to end (0 to snapshot-every records,
// a factor of two in recovery time); recovery_s is defined at a fixed point
// of the cycle instead.
func settleLag(hc *http.Client, d *daemon, in *inputs, lag int) error {
	for i := 0; i < 1000; i++ {
		resp, err := hc.Get(d.base + "/healthz")
		if err != nil {
			return err
		}
		var h struct {
			Durability struct {
				Lag int `json:"lag_records"`
			} `json:"durability"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("healthz of %s: %w", d.name, err)
		}
		if h.Durability.Lag == lag {
			return nil
		}
		if err := putTable(hc, d.base, "lagfill", in.bodies[0].text); err != nil {
			return err
		}
	}
	return fmt.Errorf("%s: write-ahead log never reached a lag of %d records", d.name, lag)
}

// verifyDurable checks, after the last restart, that every relation equals
// its last acked state: static relations and present mutable names answer
// GET with the right tuples, deleted names answer 404.
func verifyDurable(res *result, in *inputs, top *topology, cs []*client, hc *http.Client) {
	c := newClient(top.front, in, nil)
	for _, n := range in.static {
		res.check(sameRelation(c, hc, top.front.base, n.name, n.sum),
			"after restart, relation %s differs from what was loaded", n.name)
	}
	for _, cl := range cs {
		own := state(cl.gen)
		if own == nil {
			continue
		}
		for i, name := range own.names {
			if own.body[i] >= 0 {
				c.do(request{class: classGet, name: name, scanBody: own.body[i]}, true)
				continue
			}
			resp, err := hc.Get(top.front.base + "/relations/" + name)
			if err != nil {
				res.check(false, "after restart, GET %s: %v", name, err)
				continue
			}
			resp.Body.Close()
			res.check(resp.StatusCode == http.StatusNotFound,
				"after restart, deleted relation %s answers %d", name, resp.StatusCode)
		}
	}
	res.absorb(c)
}

// sameRelation GETs name and compares its checksum with want.
func sameRelation(c *client, hc *http.Client, base, name string, want fault.Checksum) bool {
	resp, err := hc.Get(base + "/relations/" + name)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	return c.differs(c.buf.String(), want) == nil
}

// recoveryReport reads what the restarted daemon's WAL says about its last
// recovery.
func recoveryReport(res *result, d *daemon, hc *http.Client) {
	resp, err := hc.Get(d.base + "/healthz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var h struct {
		Durability struct {
			Recovery struct {
				Records    int     `json:"records_replayed"`
				DurationMS float64 `json:"duration_ms"`
			} `json:"recovery"`
		} `json:"durability"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) == nil {
		res.layer["wal.recover_ms"] = h.Durability.Recovery.DurationMS
		res.layer["wal.recovered_records"] = float64(h.Durability.Recovery.Records)
	}
}
