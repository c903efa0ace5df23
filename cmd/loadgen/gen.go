package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"systolicdb/internal/fault"
	"systolicdb/internal/relation"
	"systolicdb/internal/server"
	datagen "systolicdb/internal/workload"
)

// clients is the closed-loop client count: one per core of the 2-core
// sandbox, one keep-alive connection each. Closed loop because every
// caller of this service — an application, or the coordinator calling a
// shard — waits for its reply before sending the next request.
const clients = 2

// class is the kind of one request; latency classes and routes key on it.
type class uint8

const (
	classQuery class = iota
	classPut
	classDelete
	classGet
	numClasses
)

// route names a class the way the per-layer metric names spell it.
func (c class) route() string {
	return [...]string{"query", "put", "delete", "get"}[c]
}

// mode is the executor a query asks for.
type mode uint8

const (
	modeMaterializing mode = iota
	modeStreaming
	modeMachine
	numModes
)

// table is one generated relation: the text body the daemons are sent and
// loadgen's own parsed copy (for the oracle and the in-process replay).
type table struct {
	text string
	rel  *relation.Relation
	sum  fault.Checksum
}

// plan is one query text with everything known about it up front.
type plan struct {
	text   string
	rowsIn int // tuples of the base relations it scans
}

// request is one HTTP call, fully determined by the generator that drew it.
type request struct {
	class class

	// queries
	plan    plan
	mode    mode
	backend string // per-request "backend" override; "" = the daemon's default
	// oracleKey names the expected answer: the plan text, or for a query on
	// a mutable relation the plan shape plus the body the relation holds.
	oracleKey string
	scanBody  int // body index held by the one mutable relation scanned; -1 = none

	// relation routes
	name string
	body int // bodies index of a PUT
}

// wire renders the request as it goes over HTTP. Deterministic: the
// determinism test compares these bytes across runs.
func (r request) wire(in *inputs) (method, path string, body []byte) {
	switch r.class {
	case classPut:
		return "PUT", "/relations/" + r.name, []byte(in.bodies[r.body].text)
	case classDelete:
		return "DELETE", "/relations/" + r.name, nil
	case classGet:
		return "GET", "/relations/" + r.name, nil
	}
	// Built by hand in a fixed key order: the bytes are stable, and at
	// several thousand requests a second encoding/json's reflection was a
	// visible share of the generator's CPU.
	b := append(make([]byte, 0, len(r.plan.text)+48), `{"plan":`...)
	b = strconv.AppendQuote(b, r.plan.text) // plan texts are plain ASCII, so Go quoting is JSON quoting
	switch r.mode {
	case modeStreaming:
		b = append(b, `,"streaming":true`...)
	case modeMachine:
		b = append(b, `,"machine":true`...)
	}
	if r.backend != "" {
		b = append(b, `,"backend":`...)
		b = strconv.AppendQuote(b, r.backend)
	}
	b = append(b, '}')
	return "POST", "/query", b
}

// named is a relation loaded under a name at set-up.
type named struct {
	name string
	table
}

// inputs is everything a workload generates from its seed before any
// daemon runs.
type inputs struct {
	seed   int64
	static []named // PUT at set-up, never mutated by the mix
	bodies []table // PUT bodies the mix draws from
	// preload lists the mutable names set-up fills with bodies[0], so every
	// DELETE/GET/query of the mix finds its relation.
	preload []string
	// reference is the fixed pulse cycle (see referenceCycle) that workloads
	// without pulse traffic of their own replay after the window.
	reference []named

	cat *server.Catalog // loadgen's own catalog: parses tables, holds the replay copy

	mu      sync.Mutex
	oracles map[string]fault.Checksum
}

// newInputs returns inputs with an empty private catalog.
func newInputs() *inputs {
	return &inputs{cat: server.NewCatalog(), oracles: map[string]fault.Checksum{}}
}

// mkTable renders rel as the text body a daemon is sent and parses that
// text back through loadgen's catalog, so the kept relation is exactly what
// the daemon will hold (pooled int domains, its column names).
func (in *inputs) mkTable(rel *relation.Relation) (table, error) {
	var sb strings.Builder
	if err := relation.FormatTable(&sb, rel); err != nil {
		return table{}, err
	}
	parsed, err := in.cat.ParseTable(strings.NewReader(sb.String()), "")
	if err != nil {
		return table{}, err
	}
	sum, err := fault.RelationChecksum(parsed)
	if err != nil {
		return table{}, err
	}
	return table{text: sb.String(), rel: parsed, sum: sum}, nil
}

func (in *inputs) addStatic(dst *[]named, name string, rel *relation.Relation) error {
	t, err := in.mkTable(rel)
	if err != nil {
		return fmt.Errorf("relation %s: %w", name, err)
	}
	*dst = append(*dst, named{name: name, table: t})
	return nil
}

// lookup resolves a scan name against the static relations.
func (in *inputs) lookup(name string) (*relation.Relation, bool) {
	for _, list := range [][]named{in.static, in.reference} {
		for _, n := range list {
			if n.name == name {
				return n.rel, true
			}
		}
	}
	return nil, false
}

// operands generates the relations behind the six operator plans at
// cardinality n (division as nX × nY ≈ n) under the given name prefix.
// exact selects generators whose result cardinalities do not depend on the
// seed — the join runs over an OverlapPair (unique keys, exactly n/2
// matches) and every quotient candidate covers the divisor — so simulated
// pulse counts repeat across seeds.
func (in *inputs) operands(dst *[]named, seed int64, prefix string, n, nX, nY int, exact bool) error {
	a, b, err := datagen.OverlapPair(seed, n, 2, 0.5)
	if err != nil {
		return err
	}
	ja, jb := a, b
	coverage := 1.0
	if !exact {
		if ja, jb, err = datagen.JoinPair(seed+1, n, n, 2, 1); err != nil {
			return err
		}
		coverage = 0.5
	}
	d, err := datagen.WithDuplicates(seed+2, n, 2, 0.5)
	if err != nil {
		return err
	}
	da, db, err := datagen.DivisionCase(seed+3, nX, nY, coverage)
	if err != nil {
		return err
	}
	for _, r := range []struct {
		name string
		rel  *relation.Relation
	}{{"A", a}, {"B", b}, {"JA", ja}, {"JB", jb}, {"D", d}, {"DA", da}, {"DB", db}} {
		if err := in.addStatic(dst, prefix+r.name, r.rel); err != nil {
			return err
		}
	}
	return nil
}

// operatorPlans is the six-plan set over operands(prefix): intersect,
// difference, union, dedup, join+project, divide.
func (in *inputs) operatorPlans(prefix string) []plan {
	p := prefix
	texts := []string{
		fmt.Sprintf("intersect(scan(%sA), scan(%sB))", p, p),
		fmt.Sprintf("difference(scan(%sA), scan(%sB))", p, p),
		fmt.Sprintf("union(scan(%sA), scan(%sB))", p, p),
		fmt.Sprintf("dedup(scan(%sD))", p),
		fmt.Sprintf("project(join(scan(%sJA), scan(%sJB), 0=0), 1, 2)", p, p),
		fmt.Sprintf("divide(scan(%sDA), scan(%sDB), quot=0, div=1, by=0)", p, p),
	}
	scans := [][]string{{"A", "B"}, {"A", "B"}, {"A", "B"}, {"D"}, {"JA", "JB"}, {"DA", "DB"}}
	out := make([]plan, len(texts))
	for i, text := range texts {
		out[i] = plan{text: text}
		for _, s := range scans[i] {
			rel, _ := in.lookup(p + s)
			out[i].rowsIn += rel.Cardinality()
		}
	}
	return out
}

// generator draws one client's request stream. Generators of mutating
// workloads track which of the client's own names hold which body, so every
// request is expected to succeed and the last acked state is known.
type generator interface {
	next() request
}

// rngFor seeds one client's stream. The workload's name is folded in so two
// workloads given the same seed do not draw the same sequence.
func rngFor(seed int64, wl string, client int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(client+1)*0xbf58476d1ce4e5b9
	for _, c := range []byte(wl) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// deck deals a fixed hand of cards in shuffled rounds: every round of
// len(cards) draws holds each card exactly once, in an order the rng picks.
// Drawing the mix this way instead of with replacement keeps its
// composition the same in every window: with request costs between 2 ms and
// 35 ms in one mix, the luck of an independent draw alone moved a
// 15-second window's throughput by ±3 %, more than any other noise source.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n)}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.pos == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

// ---- kernel_heavy ----

const (
	kernelN  = 4096
	kernelNX = 1024
	kernelNY = 16
)

func kernelInputs(seed int64) (*inputs, error) {
	in := newInputs()
	if err := in.operands(&in.static, seed, "", kernelN, kernelNX, kernelNY, false); err != nil {
		return nil, err
	}
	return in, nil
}

// kernelGen draws uniformly over the six operator plans × {materializing,
// streaming}, one shuffled round of all twelve after another.
type kernelGen struct {
	deck  *deck
	plans []plan
}

func newKernelGen(in *inputs, seed int64, client int) *kernelGen {
	plans := in.operatorPlans("")
	return &kernelGen{deck: newDeck(rngFor(seed, "kernel_heavy", client), 2*len(plans)), plans: plans}
}

func (g *kernelGen) next() request {
	k := g.deck.draw()
	p := g.plans[k/2]
	return request{class: classQuery, plan: p, mode: mode(k % 2), oracleKey: p.text, scanBody: -1}
}

// ---- small_plans ----

const (
	smallRelations = 8
	smallN         = 64
	smallDomain    = 16
	smallHot       = 64 // hot plan texts; fits the default 256-entry plan cache
	// smallDigits is the length of a cold plan's projection list. The list
	// spells a counter in base 3, so 3^11 texts exist per client — more than
	// any window can draw.
	smallDigits = 11
)

func smallInputs(seed int64) (*inputs, error) {
	in := newInputs()
	for i := 0; i < smallRelations; i++ {
		rel, err := datagen.Uniform(seed+int64(i), smallN, 3, smallDomain)
		if err != nil {
			return nil, err
		}
		if err := in.addStatic(&in.static, fmt.Sprintf("R%d", i), rel); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// smallSelect is the filter every small plan starts from. The threshold is
// a function of the relation alone: the daemon's plan cache keys on
// query.Render, which omits predicates, so two selects over one relation
// that differed only in their constant would share a cache entry and the
// second would be answered with the first one's plan (see README, known
// gaps). One constant per relation keeps every answer correct.
func smallSelect(i int) string {
	return fmt.Sprintf("select(scan(R%d), 0<%d)", i, 6+i)
}

// smallPlan renders hot template t over relations i, j and column pair c.
func smallPlan(t, i, j, c int) plan {
	pairs := [3]string{"0, 1", "1, 2", "0, 2"}
	switch t {
	case 0:
		return plan{text: smallSelect(i), rowsIn: smallN}
	case 1:
		return plan{text: fmt.Sprintf("project(%s, %s)", smallSelect(i), pairs[c]), rowsIn: smallN}
	case 2:
		return plan{text: fmt.Sprintf("join(%s, scan(R%d), 0=0)", smallSelect(i), j), rowsIn: 2 * smallN}
	}
	return plan{text: fmt.Sprintf("union(%s, scan(R%d))", smallSelect(i), j), rowsIn: 2 * smallN}
}

// coldPlan wraps select, join or union in a projection whose column list
// spells n in base 3 — a plan text no request has carried before, so the
// daemon must parse and optimize it and evict something to cache it. (The
// list varies instead of a constant because the plan cache cannot tell
// constants apart; see smallSelect.)
func coldPlan(t, i, j int, n int64) plan {
	var sb strings.Builder
	rows := 2 * smallN
	switch t {
	case 0:
		fmt.Fprintf(&sb, "project(%s", smallSelect(i))
		rows = smallN
	case 1:
		fmt.Fprintf(&sb, "project(join(%s, scan(R%d), 0=0)", smallSelect(i), j)
	default:
		fmt.Fprintf(&sb, "project(union(%s, scan(R%d))", smallSelect(i), j)
	}
	for d := 0; d < smallDigits; d++ {
		fmt.Fprintf(&sb, ", %d", n%3)
		n /= 3
	}
	sb.WriteByte(')')
	return plan{text: sb.String(), rowsIn: rows}
}

// smallGen draws half its requests from a fixed hot set of plan texts and
// gives the other half a text no request has carried before.
type smallGen struct {
	rng  *rand.Rand
	kind *deck // 0-2: a hot plan; 3-5: cold template 0-2
	pick *deck // which hot plan
	hot  []plan
	cold int64 // next never-repeating counter; clients interleave
}

func newSmallGen(seed int64, client int) *smallGen {
	rng := rngFor(seed, "small_plans", client)
	g := &smallGen{rng: rng, kind: newDeck(rng, 6), pick: newDeck(rng, smallHot), cold: int64(client)}
	// The hot set is shared by every client (same texts), so the daemon's
	// cache sees smallHot distinct hot plans in total: all 8 selects, all 24
	// projections, and 16 joins and 16 unions drawn with the seed.
	for i := 0; i < smallRelations; i++ {
		g.hot = append(g.hot, smallPlan(0, i, 0, 0))
		for c := 0; c < 3; c++ {
			g.hot = append(g.hot, smallPlan(1, i, 0, c))
		}
	}
	hot := rand.New(rand.NewSource(seed))
	for t := 2; t <= 3; t++ {
		for _, k := range hot.Perm(smallRelations * smallRelations)[:(smallHot-len(g.hot))/(4-t)] {
			g.hot = append(g.hot, smallPlan(t, k/smallRelations, k%smallRelations, 0))
		}
	}
	return g
}

func (g *smallGen) next() request {
	var p plan
	if k := g.kind.draw(); k < 3 {
		p = g.hot[g.pick.draw()]
	} else {
		p = coldPlan(k-3, g.rng.Intn(smallRelations), g.rng.Intn(smallRelations), g.cold)
		g.cold += clients
	}
	return request{class: classQuery, plan: p, mode: modeMaterializing, oracleKey: p.text, scanBody: -1}
}

// ---- durable_mix ----

const (
	durableNames  = 32 // per client
	mutableBodies = 16
	bodyRows      = 1024
	bodyDomain    = 1 << 20
)

func mutableName(prefix string, client, i int) string {
	return fmt.Sprintf("%s%d_%d", prefix, client, i)
}

// addBodies generates the PUT bodies every mutating phase draws from.
func (in *inputs) addBodies(seed int64) error {
	for k := 0; k < mutableBodies; k++ {
		rel, err := datagen.Uniform(seed+100+int64(k), bodyRows, 2, bodyDomain)
		if err != nil {
			return err
		}
		t, err := in.mkTable(rel)
		if err != nil {
			return err
		}
		in.bodies = append(in.bodies, t)
	}
	return nil
}

func durableInputs(seed int64) (*inputs, error) {
	in := newInputs()
	if err := in.addBodies(seed); err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < durableNames; i++ {
			in.preload = append(in.preload, mutableName("d", c, i))
		}
	}
	return in, nil
}

// owned is one client's view of its own names: which exist and which body
// each holds. It is the "last acked state" the crash check compares with.
type owned struct {
	names []string
	body  []int // -1 = absent
}

func newOwned(prefix string, client, n, initial int) *owned {
	o := &owned{names: make([]string, n), body: make([]int, n)}
	for i := range o.names {
		o.names[i] = mutableName(prefix, client, i)
		o.body[i] = initial
	}
	return o
}

// present picks a random existing name, or -1 when the client owns none.
func (o *owned) present(rng *rand.Rand) int {
	start := rng.Intn(len(o.names))
	for k := range o.names {
		if i := (start + k) % len(o.names); o.body[i] >= 0 {
			return i
		}
	}
	return -1
}

// durableQuery is the small query of durable_mix over one owned relation:
// a selective filter (≈ 16 of 1024 rows), bare or projected.
func durableQuery(shape int, name string) plan {
	text := fmt.Sprintf("select(scan(%s), 0<%d)", name, bodyDomain/64)
	if shape == 1 {
		text = fmt.Sprintf("project(%s, 1)", text)
	}
	return plan{text: text, rowsIn: bodyRows}
}

// durableGen draws 50 % PUT, 10 % DELETE, 20 % GET, 20 % small query, all on
// the client's own names: shuffled rounds of ten requests.
type durableGen struct {
	rng  *rand.Rand
	deck *deck // 0-4 PUT, 5 DELETE, 6-7 GET, 8-9 query shapes 0 and 1
	own  *owned
}

func newDurableGen(seed int64, client int) *durableGen {
	rng := rngFor(seed, "durable_mix", client)
	return &durableGen{rng: rng, deck: newDeck(rng, 10), own: newOwned("d", client, durableNames, 0)}
}

func (g *durableGen) put() request {
	i, b := g.rng.Intn(len(g.own.names)), g.rng.Intn(mutableBodies)
	g.own.body[i] = b
	return request{class: classPut, name: g.own.names[i], body: b}
}

func (g *durableGen) next() request {
	k := g.deck.draw()
	if k < 5 {
		return g.put()
	}
	i := g.own.present(g.rng)
	if i < 0 {
		return g.put() // nothing left to delete or read
	}
	name, b := g.own.names[i], g.own.body[i]
	switch {
	case k == 5:
		g.own.body[i] = -1
		return request{class: classDelete, name: name}
	case k < 8:
		return request{class: classGet, name: name, scanBody: b}
	}
	shape := k - 8
	return request{class: classQuery, plan: durableQuery(shape, name), mode: modeMaterializing,
		oracleKey: fmt.Sprintf("durable/%d/%d", shape, b), scanBody: b}
}

// ---- cluster_mix ----

const (
	clusterN      = 2048
	clusterNX     = 128
	clusterNY     = 16
	clusterSmallN = 512
	clusterNames  = 16 // per client
	// clusterBroadcastLimit is passed to the coordinator so that a 2048-row
	// build side shuffles and the 512-row one broadcasts; with the default
	// (4096) every join of this workload would broadcast.
	clusterBroadcastLimit = 1024
)

func clusterInputs(seed int64) (*inputs, error) {
	in := newInputs()
	if err := in.operands(&in.static, seed, "", clusterN, clusterNX, clusterNY, false); err != nil {
		return nil, err
	}
	// S shares ids [0, 512) with A's shared half, so join(A, S, 1=1)
	// matches every S row.
	s, _, err := datagen.OverlapPair(seed+4, clusterSmallN, 2, 1)
	if err != nil {
		return nil, err
	}
	if err := in.addStatic(&in.static, "S", s); err != nil {
		return nil, err
	}
	if err := in.addBodies(seed); err != nil {
		return nil, err
	}
	return in, nil
}

// clusterPlans covers every distributed strategy: aligned scatter for the
// set operators, a co-partitioned join (both sides keyed by their full
// tuple), a shuffle join (2048-row build side, keyed on column 0 only), a
// broadcast join (512-row build side, under a dedup the gather may skip)
// and a division re-shuffled by its quotient column.
func clusterPlans(in *inputs) []plan {
	rows := func(names ...string) int {
		n := 0
		for _, name := range names {
			rel, _ := in.lookup(name)
			n += rel.Cardinality()
		}
		return n
	}
	return []plan{
		{"intersect(scan(A), scan(B))", rows("A", "B")},
		{"difference(scan(A), scan(B))", rows("A", "B")},
		{"union(scan(A), scan(B))", rows("A", "B")},
		{"join(scan(A), scan(B), 0=0, 1=1)", rows("A", "B")},
		{"join(scan(JA), scan(JB), 0=0)", rows("JA", "JB")},
		{"dedup(join(scan(A), scan(S), 1=1))", rows("A", "S")},
		{"divide(scan(DA), scan(DB), quot=0, div=1, by=0)", rows("DA", "DB")},
	}
}

// clusterGen draws 80 % queries over the static relations and 20 % PUTs of
// 1024-row bodies to the client's own names: shuffled rounds of 35 requests
// holding every plan four times and seven PUTs.
type clusterGen struct {
	rng   *rand.Rand
	deck  *deck
	plans []plan
	own   *owned
}

func newClusterGen(in *inputs, seed int64, client int) *clusterGen {
	rng, plans := rngFor(seed, "cluster_mix", client), clusterPlans(in)
	return &clusterGen{rng: rng, deck: newDeck(rng, 5*len(plans)), plans: plans,
		own: newOwned("c", client, clusterNames, -1)}
}

func (g *clusterGen) next() request {
	k := g.deck.draw()
	if k >= 4*len(g.plans) {
		i, b := g.rng.Intn(len(g.own.names)), g.rng.Intn(mutableBodies)
		g.own.body[i] = b
		return request{class: classPut, name: g.own.names[i], body: b}
	}
	p := g.plans[k%len(g.plans)]
	return request{class: classQuery, plan: p, mode: modeMaterializing, oracleKey: p.text, scanBody: -1}
}

// ---- pulse_sim and the reference cycle ----

const (
	pulseN  = 48
	pulseNX = 16
	pulseNY = 4
	// pulseCycle is one whole round-robin: six plans × {host, machine}.
	pulseCycle = 12
	// referencePrefix names the relations of the reference cycle on daemons
	// whose own workload is something else.
	referencePrefix = "ref_"
)

func pulseInputs(seed int64) (*inputs, error) {
	in := newInputs()
	if err := in.operands(&in.static, seed, "", pulseN, pulseNX, pulseNY, true); err != nil {
		return nil, err
	}
	return in, nil
}

// addReference gives a non-pulse workload the pulse_sim relations under
// referencePrefix.
func (in *inputs) addReference(seed int64) error {
	return in.operands(&in.reference, seed, referencePrefix, pulseN, pulseNX, pulseNY, true)
}

// pulseGen is the round-robin of pulse_sim: request k runs plan k mod 6,
// alternating the host arrays and the §9 machine so that one cycle of
// pulseCycle requests holds every plan once in each mode. No randomness:
// simulated pulses must repeat exactly.
type pulseGen struct {
	plans   []plan
	backend string
	k       int
}

func (g *pulseGen) next() request {
	k := g.k % pulseCycle
	g.k++
	m := modeMaterializing
	if (k+k/len(g.plans))%2 == 1 {
		m = modeMachine
	}
	p := g.plans[k%len(g.plans)]
	return request{class: classQuery, plan: p, mode: m, backend: g.backend, oracleKey: p.text, scanBody: -1}
}

// ---- mutation probe ----

// probeGen is the fixed mutation phase of workloads whose mix holds no
// PUT/DELETE: 5 PUTs of a 1024-row body to every DELETE, on scratch names
// no query reads.
type probeGen struct {
	rng  *rand.Rand
	deck *deck
	own  *owned
}

func (g *probeGen) next() request {
	if g.deck.draw() == 0 {
		if i := g.own.present(g.rng); i >= 0 {
			g.own.body[i] = -1
			return request{class: classDelete, name: g.own.names[i]}
		}
	}
	i, b := g.rng.Intn(len(g.own.names)), g.rng.Intn(mutableBodies)
	g.own.body[i] = b
	return request{class: classPut, name: g.own.names[i], body: b}
}
