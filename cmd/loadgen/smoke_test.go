package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// survivors lists processes whose executable is bin.
func survivors(t *testing.T, bin string) []int {
	t.Helper()
	var pids []int
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		// A killed process's binary reads as "… (deleted)" only if the file
		// went away; ours stays, so an exact match is enough.
		if exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && exe == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // the test fails on the content if the pipe broke
		done <- string(b)
	}()
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	os.Stdout = saved
	return <-done
}

// TestSmokeSmallPlans runs small_plans with a 1 s window against a real
// daemon, traced, and asserts that every declared metric is printed exactly
// once with its unit, that the contract lines carry exactly the declared
// names, that nothing failed, and that no daemon outlives the run.
func TestSmokeSmallPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons; run without -short")
	}
	e, _, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	wl, _ := findWorkload("small_plans")
	var res *result
	out := captureStdout(t, func() {
		if res, err = runWorkload(e, wl, runConfig{seed: 11, seconds: 1, trace: true}); err != nil {
			return
		}
		if err = kernelTables(11, res.layer); err != nil {
			return
		}
		if !report(res, true) {
			t.Error("the run does not stand")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("%d of %d requests failed: %v", res.failed, res.attempted, res.errs)
	}

	printed := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[0] == wl.name {
			printed[f[1]] = append(printed[f[1]], f[3])
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units := printed[m.name]
		if len(units) != 1 {
			t.Errorf("%s printed %d times, want exactly once", m.name, len(units))
		} else if units[0] != m.unit {
			t.Errorf("%s printed with unit %q, declared %q", m.name, units[0], m.unit)
		}
	}

	for _, traced := range []bool{false, true} {
		line := contractLine(res, traced, true)
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("traced=%v: contract line has %d metrics, declared %d", traced, len(line.Metrics), len(defs))
		}
		for _, m := range defs {
			if got, ok := line.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("traced=%v: %s missing from the contract line or unit %q", traced, m.name, got.Unit)
			}
		}
		if _, err := json.Marshal(line); err != nil {
			t.Errorf("contract line does not marshal: %v", err)
		}
	}
	for _, m := range endToEnd {
		if res.e2e[m.name] == 0 {
			t.Errorf("end-to-end metric %s read 0", m.name)
		}
	}

	// Parts sum to the whole for every traced request.
	children := map[int]int64{}
	group := map[int]int64{}
	for _, s := range res.spans {
		if s.Parent == 0 {
			continue
		}
		d := s.EndNS - s.StartNS
		if s.Group != "" {
			group[s.Parent] = max(group[s.Parent], d)
		} else {
			children[s.Parent] += d
		}
	}
	requests := 0
	for _, s := range res.spans {
		if s.Parent != 0 {
			continue
		}
		requests++
		if s.OverheadNS == nil {
			t.Fatalf("request span %d has no overhead", s.ID)
		}
		if got, want := children[s.ID]+group[s.ID]+*s.OverheadNS, s.EndNS-s.StartNS; got != want {
			t.Fatalf("request %d: children + overhead = %d ns, span = %d ns", s.Request, got, want)
		}
	}
	if requests != tracedRequests+tracedProbe {
		t.Errorf("%d request spans, want %d", requests, tracedRequests+tracedProbe)
	}

	e.cleanup()
	if left := survivors(t, e.bin); len(left) > 0 {
		t.Errorf("daemons outlived the run: pids %v", left)
	}
	if _, err := os.Stat(e.dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s was not removed", e.dir)
	}
}

// TestCleanupAfterPanicAndFailedSetUp covers the exit paths that are not
// "success": a panicking client and a set-up that errors out half way.
func TestCleanupAfterPanicAndFailedSetUp(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons; run without -short")
	}
	e, _, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	top, err := startCluster(e)
	if err != nil {
		t.Fatal(err)
	}
	hc := newHTTPClient()
	for _, d := range top.all {
		if err := d.waitReady(hc, waitReadyTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(survivors(t, e.bin)); got < len(top.all) {
		t.Fatalf("%d daemons running, started %d", got, len(top.all))
	}

	c := newClient(top.front, newInputs(), nil)
	each([]*client{c}, func(*client) { panic("boom") })
	if c.failed != 1 || !strings.Contains(strings.Join(c.errs, " "), "boom") {
		t.Errorf("a client panic was not turned into a failure: failed=%d errs=%v", c.failed, c.errs)
	}

	// A daemon that cannot start (bad flag) fails set-up; what did start
	// must still be reaped.
	if _, err := e.spawn("broken", false, "-backend", "no-such-backend"); err != nil {
		t.Fatal(err)
	}
	bad := e.daemons[len(e.daemons)-1]
	if err := bad.waitReady(hc, waitReadyTimeout); err == nil || !strings.Contains(err.Error(), "no-such-backend") {
		t.Errorf("waiting for a daemon that exits at start: %v", err)
	}

	e.cleanup()
	if left := survivors(t, e.bin); len(left) > 0 {
		t.Errorf("daemons outlived cleanup: pids %v", left)
	}
}

// TestSIGINTLeavesNoDaemon interrupts a real loadgen process mid-run.
func TestSIGINTLeavesNoDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs loadgen itself; run without -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(root, buildDir, "loadgen.test-sigint")
	if msg, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building loadgen: %v\n%s", err, msg)
	}
	defer os.Remove(bin)
	daemonBin := filepath.Join(root, buildDir, "systolicdbd")

	cmd := exec.Command(bin, "-workload", "durable_mix", "-seconds", "60")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op once it has exited
	deadline := time.Now().Add(30 * time.Second)
	for len(survivors(t, daemonBin)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("loadgen never started a daemon")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Errorf("interrupted loadgen exited with %v, want status 130", err)
	}
	if left := survivors(t, daemonBin); len(left) > 0 {
		t.Errorf("daemons outlived an interrupted loadgen: pids %v", left)
	}
	runs, _ := filepath.Glob(filepath.Join(root, buildDir, "run-*"))
	if len(runs) > 0 {
		t.Errorf("scratch directories left behind: %v", runs)
	}
}
