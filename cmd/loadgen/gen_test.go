package main

import (
	"bytes"
	"fmt"
	"testing"
)

// stream renders the first n requests of every client of wl as the bytes
// that would go over the wire, bodies included.
func stream(t *testing.T, wl *workload, seed int64, n int) []byte {
	t.Helper()
	in, err := wl.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, list := range [][]named{in.static, in.reference} {
		for _, r := range list {
			fmt.Fprintf(&buf, "PUT %s\n%s", r.name, r.text)
		}
	}
	for c := 0; c < clients; c++ {
		g := wl.gen(in, seed, c)
		for i := 0; i < n; i++ {
			method, path, body := g.next().wire(in)
			fmt.Fprintf(&buf, "client %d: %s %s\n%s\n", c, method, path, body)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			a, b := stream(t, wl, 11, 300), stream(t, wl, 11, 300)
			if !bytes.Equal(a, b) {
				t.Error("the same seed generated different relation bodies or request streams")
			}
			if c := stream(t, wl, 12, 300); bytes.Equal(a, c) {
				t.Error("a different seed generated identical inputs")
			}
		})
	}
}

// TestClientsDrawDifferentStreams guards the per-client seeding: two
// clients replaying one sequence would halve the working set.
func TestClientsDrawDifferentStreams(t *testing.T) {
	for _, name := range []string{"kernel_heavy", "small_plans", "durable_mix", "cluster_mix"} {
		wl, _ := findWorkload(name)
		in, err := wl.build(11)
		if err != nil {
			t.Fatal(err)
		}
		g0, g1 := wl.gen(in, 11, 0), wl.gen(in, 11, 1)
		same := 0
		for i := 0; i < 200; i++ {
			_, p0, b0 := g0.next().wire(in)
			_, p1, b1 := g1.next().wire(in)
			if p0 == p1 && bytes.Equal(b0, b1) {
				same++
			}
		}
		if same > 100 {
			t.Errorf("%s: clients 0 and 1 sent the same request %d times out of 200", name, same)
		}
	}
}

// TestNoTwoPlansShareARenderForm pins the workaround for the plan cache
// keying on query.Render (which omits predicates and join columns): within
// one workload, plans with equal Render text must be the same plan.
func TestNoTwoPlansShareARenderForm(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		in, err := wl.build(11)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]string{}
		check := func(r request) {
			if r.class != classQuery {
				return
			}
			form := renderForm(t, r.plan.text)
			if prev, ok := seen[form]; ok && prev != r.plan.text {
				t.Fatalf("%s: %q and %q share the cache key %q", wl.name, prev, r.plan.text, form)
			}
			seen[form] = r.plan.text
		}
		for c := 0; c < clients; c++ {
			g := wl.gen(in, 11, c)
			for i := 0; i < 2000; i++ {
				check(g.next())
			}
		}
		if wl.cycle == 0 {
			for _, r := range referenceCycle(in) {
				check(r)
			}
		}
	}
}

// TestSmallPlansHalfHot checks the mix the plan-cache metrics rely on.
func TestSmallPlansHalfHot(t *testing.T) {
	g := newSmallGen(11, 0)
	if len(g.hot) != smallHot {
		t.Fatalf("hot set has %d plans, want %d", len(g.hot), smallHot)
	}
	hot := map[string]bool{}
	for _, p := range g.hot {
		hot[p.text] = true
	}
	if len(hot) != smallHot {
		t.Fatalf("hot set holds duplicates: %d distinct of %d", len(hot), smallHot)
	}
	hits, cold := 0, map[string]bool{}
	const n = 4000
	for i := 0; i < n; i++ {
		text := g.next().plan.text
		if hot[text] {
			hits++
		} else if cold[text] {
			t.Fatalf("cold plan %q repeated", text)
		} else {
			cold[text] = true
		}
	}
	if hits < n*45/100 || hits > n*55/100 {
		t.Errorf("%d of %d requests were hot, want about half", hits, n)
	}
}

// TestMutatingGeneratorsOnlyTouchWhatExists replays durable_mix's stream
// against a model catalog: every DELETE, GET and query must name a relation
// the client's earlier requests left in place.
func TestMutatingGeneratorsOnlyTouchWhatExists(t *testing.T) {
	wl, _ := findWorkload("durable_mix")
	in, err := wl.build(11)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		model := map[string]int{}
		for i := 0; i < durableNames; i++ {
			model[mutableName("d", c, i)] = 0
		}
		g := wl.gen(in, 11, c)
		counts := map[class]int{}
		for i := 0; i < 5000; i++ {
			r := g.next()
			counts[r.class]++
			switch r.class {
			case classPut:
				model[r.name] = r.body
			case classDelete:
				if _, ok := model[r.name]; !ok {
					t.Fatalf("request %d deletes %s, which does not exist", i, r.name)
				}
				delete(model, r.name)
			case classGet:
				if b, ok := model[r.name]; !ok || b != r.scanBody {
					t.Fatalf("request %d reads %s expecting body %d; model has %d, %v", i, r.name, r.scanBody, b, ok)
				}
			case classQuery:
				if r.scanBody < 0 {
					t.Fatalf("request %d queries without naming the body it expects", i)
				}
			}
		}
		if counts[classPut] < 2300 || counts[classPut] > 2800 || counts[classDelete] < 350 || counts[classQuery] < 800 {
			t.Errorf("client %d mix off: %v", c, counts)
		}
		own := state(g)
		for i, name := range own.names {
			if b, ok := model[name]; ok != (own.body[i] >= 0) || (ok && b != own.body[i]) {
				t.Fatalf("last acked state of %s: generator says %d, model says %d, %v", name, own.body[i], b, ok)
			}
		}
	}
}

func TestPulseRoundRobinCoversEveryPlanInBothModes(t *testing.T) {
	wl, _ := findWorkload("pulse_sim")
	in, err := wl.build(11)
	if err != nil {
		t.Fatal(err)
	}
	g := wl.gen(in, 11, 0)
	seen := map[string]int{}
	for i := 0; i < pulseCycle; i++ {
		r := g.next()
		seen[fmt.Sprintf("%s/%d", r.plan.text, r.mode)]++
	}
	if len(seen) != pulseCycle {
		t.Errorf("one cycle holds %d distinct plan×mode pairs, want %d: %v", len(seen), pulseCycle, seen)
	}
	first := g.next()
	if want := wl.gen(in, 11, 1).next(); first != want {
		t.Errorf("cycle does not repeat: request %d is %+v, request 0 is %+v", pulseCycle, first, want)
	}
}
