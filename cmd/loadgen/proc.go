package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark leaves behind goes, relative
// to the repository root; .gitignore names it.
const buildDir = ".bench_build"

// env owns every daemon process and scratch directory of one loadgen run.
// A daemon that outlives its workload steals a core from the next one, so
// cleanup is part of the measurement's correctness: every exit path —
// return, failed check, panic, SIGINT — goes through it.
type env struct {
	root string // repository root
	bin  string // built systolicdbd
	dir  string // this run's scratch directory under buildDir

	mu      sync.Mutex
	daemons []*daemon
	seq     int
}

// findRoot walks up from the working directory to the systolicdb module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module systolicdb\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no systolicdb go.mod above the working directory")
		}
		dir = parent
	}
}

// newEnv builds cmd/systolicdbd from source into buildDir and creates the
// run's scratch directory. The build time is returned separately so it
// never leaks into setup_s.
func newEnv() (*env, time.Duration, error) {
	root, err := findRoot()
	if err != nil {
		return nil, 0, err
	}
	out := filepath.Join(root, buildDir)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, 0, err
	}
	bin := filepath.Join(out, "systolicdbd")
	start := time.Now()
	build := exec.Command("go", "build", "-o", bin, "./cmd/systolicdbd")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("building cmd/systolicdbd: %v\n%s", err, msg)
	}
	took := time.Since(start)
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, 0, err
	}
	return &env{root: root, bin: bin, dir: dir}, took, nil
}

// cleanup kills every daemon's process group, waits for each, and removes
// the scratch directory. Safe to call more than once and from a signal
// handler goroutine.
func (e *env) cleanup() {
	e.stopAll()
	_ = os.RemoveAll(e.dir) // scratch only; a leftover is named by .gitignore
}

// stopAll kills the current daemons but keeps the scratch directory, so a
// workload can set up again.
func (e *env) stopAll() {
	e.mu.Lock()
	ds := e.daemons
	e.daemons = nil
	e.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed again, so the port is "pre-picked": daemons that must know each
// other's addresses before any of them runs (-shards, -replica-of) need
// that, and a restarted daemon must come back on the address its peers
// hold.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// daemon is one systolicdbd subprocess.
type daemon struct {
	name    string
	addr    string // host:port
	base    string // http://host:port
	dataDir string // "" for an in-memory daemon
	args    []string
	bin     string
	logPath string

	mu     sync.Mutex
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd has been reaped
}

// spawn starts a daemon on a fresh port. durable gives it a data directory
// of its own under the run's scratch directory.
func (e *env) spawn(name string, durable bool, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	return e.spawnAt(name, port, durable, args...)
}

// spawnAt starts a daemon on the given pre-picked port.
func (e *env) spawnAt(name string, port int, durable bool, args ...string) (*daemon, error) {
	e.mu.Lock()
	e.seq++
	tag := fmt.Sprintf("%s-%d", name, e.seq)
	e.mu.Unlock()
	d := &daemon{
		name:    name,
		addr:    fmt.Sprintf("127.0.0.1:%d", port),
		bin:     e.bin,
		logPath: filepath.Join(e.dir, tag+".log"),
	}
	d.base = "http://" + d.addr
	d.args = append([]string{"-addr", d.addr}, args...)
	if durable {
		d.dataDir = filepath.Join(e.dir, tag+".data")
		d.args = append(d.args, "-data-dir", d.dataDir)
	}
	if err := d.start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	return d, nil
}

// start launches the process in its own process group, so kill reaches
// anything it might fork and a terminal's SIGINT reaches only loadgen,
// which then cleans up deliberately.
func (d *daemon) start() error {
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", d.name, err)
	}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait() // a daemon only ever ends by being killed; its status is not news
		close(exited)
	}()
	d.mu.Lock()
	d.cmd, d.exited = cmd, exited
	d.mu.Unlock()
	return nil
}

// kill SIGKILLs the daemon's process group and reaps it. No-op when it is
// not running.
func (d *daemon) kill() {
	d.mu.Lock()
	cmd, exited := d.cmd, d.exited
	d.cmd = nil
	d.mu.Unlock()
	if cmd == nil {
		return
	}
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-exited
}

// pid returns the running process id, or 0 once the process is gone.
func (d *daemon) pid() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cmd == nil {
		return 0
	}
	select {
	case <-d.exited:
		return 0
	default:
		return d.cmd.Process.Pid
	}
}

// waitReady polls /healthz until the daemon answers 200, it exits, or the
// timeout passes. The daemon's log is the error's detail.
func (d *daemon) waitReady(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		exited := d.pid() == 0
		if exited || time.Now().After(deadline) {
			tail, _ := os.ReadFile(d.logPath) // best effort: the log only decorates the error
			return fmt.Errorf("%s on %s not ready (exited=%t, last error %v):\n%s", d.name, d.addr, exited, err, tail)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	pid := d.pid()
	if pid == 0 {
		return 0, fmt.Errorf("%s is not running", d.name)
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", d.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for %s", d.name)
}

// dirBytes totals the regular files under dir (the `du` of a data
// directory).
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil // a segment rotated away mid-walk
			}
			return err
		}
		if de.Type().IsRegular() {
			if info, err := de.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total, err
}
