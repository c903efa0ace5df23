package main

import (
	"fmt"
	"strings"

	"systolicdb/internal/machine"
)

// workload is one traffic mix together with the daemons it runs against.
type workload struct {
	name string
	// why is the one-sentence rationale BENCHMARK.json carries.
	why string

	build func(seed int64) (*inputs, error)
	start func(e *env) (*topology, error)
	// gen returns one client's request stream, starting from the state
	// set-up leaves behind.
	gen func(in *inputs, seed int64, client int) generator
	// warm lists requests that touch every plan once; set-up and every
	// recovery send them with the full oracle check. own is the client's
	// last acked state (nil at set-up, when every preloaded name holds
	// body 0), for plans that read a mutable relation.
	warm func(in *inputs, own *owned) []request

	// mutates says the mix itself holds PUT/DELETE, so its generators track
	// the last acked state of their own names.
	mutates bool
	// mutationPhase says the window yields too few mutations for a p99 (none
	// at all, or cluster_mix's ~20 dual-written PUTs a second), so mutation
	// latency is measured by a fixed mutation phase after the window.
	mutationPhase bool
	// settleLag > 0 asks the crash step to first bring the crash daemon's
	// write-ahead log to that many records past its last snapshot.
	settleLag int
	// cycle > 0 marks a round-robin mix whose simulated pulses are summed
	// over whole cycles of that many queries.
	cycle int
	// backend and array are the front daemon's -backend and -array, which
	// the in-process replay of the traced pass must mirror.
	backend machine.Backend
	array   int
}

// topology is the set of daemons one workload runs against.
type topology struct {
	front     *daemon   // where the clients send
	all       []*daemon // every daemon, for RSS and scrapes
	primaries []*daemon // shard primaries of a cluster; nil for a single node
	// crash is the daemon the recovery step SIGKILLs and restarts.
	crash   *daemon
	durable bool // crash restarts on a data directory that must hold every acked write
}

// direct is the daemon that layer calls bypassing the front door go to:
// the first shard primary of a cluster, else the single node.
func (t *topology) direct() *daemon {
	if len(t.primaries) > 0 {
		return t.primaries[0]
	}
	return t.front
}

// single starts one daemon with the given flags.
func single(durable bool, args ...string) func(*env) (*topology, error) {
	return func(e *env) (*topology, error) {
		d, err := e.spawn("node", durable, args...)
		if err != nil {
			return nil, err
		}
		return &topology{front: d, all: []*daemon{d}, crash: d, durable: durable}, nil
	}
}

// startCluster starts three primaries, a WAL-following replica of each, and
// a coordinator over them — seven daemons, all durable with fsync on. The
// ports are picked before any daemon runs because every role's flags name
// other daemons' addresses.
func startCluster(e *env) (*topology, error) {
	const shards = 3
	ports := make([]int, 2*shards+1)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	t := &topology{durable: true}
	var spec []string
	for i := 0; i < shards; i++ {
		p, err := e.spawnAt(fmt.Sprintf("primary%d", i), ports[i], true, "-backend", "bitset", "-fsync=true")
		if err != nil {
			return nil, err
		}
		r, err := e.spawnAt(fmt.Sprintf("replica%d", i), ports[shards+i], true,
			"-backend", "bitset", "-fsync=true", "-replica-of", p.base)
		if err != nil {
			return nil, err
		}
		t.primaries = append(t.primaries, p)
		t.all = append(t.all, p, r)
		spec = append(spec, p.base+"="+r.base)
	}
	co, err := e.spawnAt("coordinator", ports[2*shards], true, "-backend", "bitset", "-fsync=true",
		"-coordinator", "-shards", strings.Join(spec, ","),
		"-broadcast-limit", fmt.Sprint(clusterBroadcastLimit))
	if err != nil {
		return nil, err
	}
	t.front, t.crash = co, co
	t.all = append(t.all, co)
	return t, nil
}

// queries turns plans into one request per plan and mode.
func queries(plans []plan, modes ...mode) []request {
	var out []request
	for _, p := range plans {
		for _, m := range modes {
			out = append(out, request{class: classQuery, plan: p, mode: m, oracleKey: p.text, scanBody: -1})
		}
	}
	return out
}

// withExtras adds what every workload's inputs carry besides its own
// relations: the PUT bodies of the mutation phase and, unless the workload
// is the pulse round-robin itself, the relations of the reference cycle.
func withExtras(build func(int64) (*inputs, error), bodies, reference bool) func(int64) (*inputs, error) {
	return func(seed int64) (*inputs, error) {
		in, err := build(seed)
		if err != nil {
			return nil, err
		}
		in.seed = seed
		if bodies {
			if err := in.addBodies(seed); err != nil {
				return nil, err
			}
		}
		if reference {
			if err := in.addReference(seed); err != nil {
				return nil, err
			}
		}
		return in, nil
	}
}

// workloads is the fixed list; BENCHMARK.json names the same five.
var workloads = []workload{
	{
		name: "kernel_heavy",
		why: "Full-table set/join/division queries over n=4096 relations on the bitset backend: executor, " +
			"kernel and result formatting dominate each request; HTTP, parse and plan cache are noise.",
		build:         withExtras(kernelInputs, true, true),
		start:         single(false, "-backend", "bitset"),
		backend:       machine.BackendBitset,
		mutationPhase: true,
		gen: func(in *inputs, seed int64, client int) generator {
			return newKernelGen(in, seed, client)
		},
		warm: func(in *inputs, _ *owned) []request {
			return queries(in.operatorPlans(""), modeMaterializing, modeStreaming)
		},
	},
	{
		name: "small_plans",
		why: "Tiny plans over 64-row relations, half from a hot set that fits the plan cache, half never " +
			"repeating: HTTP, JSON, admission, parse, optimize and plan cache dominate; kernels do little.",
		build:         withExtras(smallInputs, true, true),
		start:         single(false, "-backend", "bitset"),
		backend:       machine.BackendBitset,
		mutationPhase: true,
		gen: func(_ *inputs, seed int64, client int) generator {
			return newSmallGen(seed, client)
		},
		warm: func(in *inputs, _ *owned) []request {
			return queries(newSmallGen(in.seed, 0).hot, modeMaterializing)
		},
	},
	{
		name: "durable_mix",
		why: "50% PUT, 10% DELETE, 20% GET, 20% small query on a fsync'd WAL-backed daemon: WAL append, fsync, " +
			"snapshots and catalog copies dominate, and every mutation invalidates the plan cache.",
		build:   withExtras(durableInputs, false, true),
		start:   single(true, "-backend", "bitset", "-fsync=true", "-snapshot-every", "128"),
		backend: machine.BackendBitset,
		gen: func(_ *inputs, seed int64, client int) generator {
			return newDurableGen(seed, client)
		},
		warm: func(in *inputs, own *owned) []request {
			name, body := mutableName("d", 0, 0), 0
			if own != nil {
				// Any name the last acked state says exists; PUTs are half
				// the mix, so there always is one.
				for i, b := range own.body {
					if b >= 0 {
						name, body = own.names[i], b
						break
					}
				}
			}
			out := []request{{class: classGet, name: name, scanBody: body}}
			for shape := 0; shape < 2; shape++ {
				out = append(out, request{class: classQuery, plan: durableQuery(shape, name),
					mode: modeMaterializing, oracleKey: fmt.Sprintf("durable/%d/%d", shape, body), scanBody: body})
			}
			return out
		},
		mutates:   true,
		settleLag: 64, // half of -snapshot-every
	},
	{
		name: "cluster_mix",
		why: "80% scatter/gather queries (aligned, co-partitioned, shuffle, broadcast, division), 20% dual-written " +
			"PUTs via a coordinator over 3 replicated shards: shard hops and primary+replica acks dominate.",
		build:         withExtras(clusterInputs, false, true),
		start:         startCluster,
		backend:       machine.BackendBitset,
		mutationPhase: true,
		gen: func(in *inputs, seed int64, client int) generator {
			return newClusterGen(in, seed, client)
		},
		warm: func(in *inputs, _ *owned) []request {
			return queries(clusterPlans(in), modeMaterializing)
		},
		mutates: true,
	},
	{
		name: "pulse_sim",
		why: "Round-robin of six plans on the pulse simulator and the §9 machine (array 16, n=48): the paper's own " +
			"systolic artefact does all the work and bitset none; simulated pulses must repeat exactly.",
		build:         withExtras(pulseInputs, true, false),
		start:         single(false, "-backend", "pulse", "-array", "16"),
		backend:       machine.BackendPulse,
		array:         16,
		mutationPhase: true,
		gen: func(in *inputs, _ int64, _ int) generator {
			return &pulseGen{plans: in.operatorPlans("")}
		},
		warm: func(in *inputs, _ *owned) []request {
			return queries(in.operatorPlans(""), modeMaterializing, modeMachine)
		},
		cycle: pulseCycle,
	},
}

// referenceCycle is one whole pulse round-robin over the reference
// relations with the per-request pulse backend — the same twelve requests
// pulse_sim's own traffic repeats.
func referenceCycle(in *inputs) []request {
	g := &pulseGen{plans: in.operatorPlans(referencePrefix), backend: "pulse"}
	out := make([]request, pulseCycle)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// probeClientGen returns client's stream for the mutation phase.
func probeClientGen(seed int64, client int) generator {
	rng := rngFor(seed, "mutation phase", client)
	return &probeGen{rng: rng, deck: newDeck(rng, 6), own: newOwned("mp", client, 16, -1)}
}
