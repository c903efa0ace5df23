// Recovery: retry with backoff, device quarantine, and host fallback.
package fault

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"systolicdb/internal/chaos"
	"systolicdb/internal/obs"
	"systolicdb/internal/systolic"
)

// Sentinel errors the query layer keys its degradation ladder off.
var (
	// ErrExhausted marks a tile whose retries all failed (and the host
	// fallback, if allowed, failed too or was disabled).
	ErrExhausted = errors.New("fault: retries exhausted")
	// ErrNoHealthyDevice marks an operation that found every candidate
	// device quarantined with no host fallback allowed.
	ErrNoHealthyDevice = errors.New("fault: no healthy device")
)

// Recoverable reports whether err is a fault-layer give-up — the condition
// under which a caller with a degraded path (the host executor) should take
// it rather than surface the error.
func Recoverable(err error) bool {
	return errors.Is(err, ErrExhausted) || errors.Is(err, ErrNoHealthyDevice)
}

// RetryPolicy bounds the retry loop around one tile.
type RetryPolicy struct {
	// MaxAttempts is the total tries per tile across all devices
	// (default 4; the host fallback, when enabled, is extra).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it, capped at MaxDelay. Defaults 1ms / 50ms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the jitter deterministic (jitter spreads retries of
	// concurrent queries so they do not re-collide on a busy device).
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	return p
}

// Delay returns the backoff before attempt n (n counts from 1 = first
// retry): capped exponential growth from BaseDelay plus up to 50%
// deterministic jitter.
func (p RetryPolicy) Delay(n int) time.Duration {
	p = p.withDefaults()
	if n <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < n && d < p.MaxDelay; i++ {
		d *= 2
	}
	d = min(d, p.MaxDelay)
	jitter := time.Duration(chaos.Mix64(uint64(p.Seed)^uint64(n)*chaos.Gamma) % uint64(d/2+1))
	return d + jitter
}

// Health tracks per-device consecutive failures and quarantine state. One
// Health is shared by every executor of a machine (and, in the network
// server, across requests), so a device that went bad during one query
// stays quarantined for the next — that persistence is what /healthz
// surfaces as the "degraded" state.
type Health struct {
	mu    sync.Mutex
	k     int
	fails map[string]int
	// quar is the quarantine latch: every quarantined device is a cause
	// holding it until an operator revives the device. A quarantined
	// device is not quarantined again; nothing revives one automatically.
	quar *Ladder[string]
}

// NewHealth returns a tracker that quarantines a device after k
// consecutive failures (k <= 0 selects the default, 3).
func NewHealth(k int) *Health {
	if k <= 0 {
		k = 3
	}
	return &Health{k: k, fails: make(map[string]int), quar: NewLadder[string](Latch, nil, time.Now)}
}

// RecordSuccess clears a device's consecutive-failure count.
func (h *Health) RecordSuccess(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails[name] = 0
}

// RecordFailure counts one failure and reports whether the device was
// quarantined by this call.
func (h *Health) RecordFailure(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails[name]++
	return h.fails[name] >= h.k && h.quar.Move(LatchTrip, name)
}

// Quarantined reports whether a device is quarantined.
func (h *Health) Quarantined(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Contains(h.quar.Causes(), name)
}

// QuarantinedNames returns the sorted quarantined device names.
func (h *Health) QuarantinedNames() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := slices.Clone(h.quar.Causes())
	slices.Sort(out)
	return out
}

// Degraded reports whether any device is quarantined.
func (h *Health) Degraded() bool { return h.quar.State() == LatchHeld }

// Revive clears a device's quarantine (an operator action; nothing revives
// devices automatically).
func (h *Health) Revive(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails[name] = 0
	h.quar.Move(LatchClear, name)
}

// Device is one systolic device an Executor can run tiles on. A nil Plan
// is a healthy device; a non-nil Plan injects faults into every grid the
// device runs.
type Device struct {
	Name string
	Plan *Plan
}

// Attempt runs one try of a tile on hardware whose cells are wrapped by
// wrap (nil = pristine cells) and returns the result checksum plus the
// run's statistics. Attempts must be repeatable: the Executor calls them
// once per retry, and twice per accepted tile under VerifyDual.
type Attempt func(wrap systolic.Wrap) (Checksum, systolic.Stats, error)

// Runner executes tile attempts. The decomposition tiler calls RunTile
// once per tile; implementations decide on which device each attempt runs
// and whether/how to verify and retry. op labels the metric series; ref
// lazily computes the host reference checksum (only consulted under
// VerifyChecksum, and at most once per tile).
type Runner interface {
	RunTile(op string, ref func() Checksum, attempt Attempt) (systolic.Stats, error)
}

// Executor is the fault-tolerant Runner: round-robin over healthy devices,
// verify each attempt, retry with backoff, quarantine after K consecutive
// failures, optionally fall back to a pristine host run.
type Executor struct {
	Devices []Device
	Verify  VerifyMode
	Retry   RetryPolicy
	// Health tracks quarantine; required shared state when several
	// executors (or several queries) cover the same devices. NewExecutor
	// fills a private one if nil.
	Health *Health
	// HostFallback allows a final attempt on pristine host-side cells
	// when retries exhaust or every device is quarantined.
	HostFallback bool
	// Metrics selects the registry; nil means obs.Default.
	Metrics *obs.Registry
	// Sleep replaces time.Sleep in the backoff (tests inject a no-op).
	Sleep func(time.Duration)

	initOnce  sync.Once
	injectors []*Injector
	next      atomic.Uint64
}

// NewExecutor validates the device plans and returns a ready executor.
func NewExecutor(devices []Device, verify VerifyMode, retry RetryPolicy, health *Health) (*Executor, error) {
	e := &Executor{Devices: devices, Verify: verify, Retry: retry, Health: health}
	if err := e.init(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Executor) init() error {
	var err error
	e.initOnce.Do(func() {
		if len(e.Devices) == 0 {
			err = fmt.Errorf("fault: executor needs at least one device")
			return
		}
		if e.Health == nil {
			e.Health = NewHealth(0)
		}
		e.Retry = e.Retry.withDefaults()
		e.injectors = make([]*Injector, len(e.Devices))
		for i, d := range e.Devices {
			if d.Plan == nil {
				continue
			}
			if e.injectors[i], err = NewInjector(d.Plan); err != nil {
				err = fmt.Errorf("fault: device %q: %w", d.Name, err)
				return
			}
		}
	})
	return err
}

func (e *Executor) registry() *obs.Registry {
	if e.Metrics != nil {
		return e.Metrics
	}
	return obs.Default
}

func (e *Executor) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if e.Sleep != nil {
		e.Sleep(d)
		return
	}
	time.Sleep(d)
}

// pickDevice returns the next healthy device index, or -1.
func (e *Executor) pickDevice() int {
	n := len(e.Devices)
	start := int(e.next.Add(1)-1) % n
	for i := 0; i < n; i++ {
		d := (start + i) % n
		if !e.Health.Quarantined(e.Devices[d].Name) {
			return d
		}
	}
	return -1
}

// RunTile implements Runner. The returned statistics sum every attempt
// (including failed and dual-verify runs), so the §9 cost model charges
// retries for the pulses they actually burned.
func (e *Executor) RunTile(op string, ref func() Checksum, attempt Attempt) (systolic.Stats, error) {
	var total systolic.Stats
	if err := e.init(); err != nil {
		return total, err
	}
	reg := e.registry()
	l := obs.Labels{"op": op}
	reg.Counter("fault_tiles_total", l).Inc()

	// The reference checksum is computed on first use and reused across
	// retries of this tile.
	var refsum *Checksum
	reference := func() Checksum {
		if refsum == nil {
			stop := reg.Timer("fault_verify_seconds", nil).Start()
			c := ref()
			stop()
			refsum = &c
		}
		return *refsum
	}

	// one try: run (possibly twice, for dual mode) and verify.
	try := func(wrap systolic.Wrap, dual bool) (Verdict, error) {
		got, st, err := attempt(wrap)
		total.Pulses += st.Pulses
		total.CellSteps += st.CellSteps
		total.ActiveSteps += st.ActiveSteps
		total.Cells = max(total.Cells, st.Cells)
		if err != nil {
			return Verdict{OK: false, Reason: err.Error()}, err
		}
		switch {
		case dual:
			got2, st2, err := attempt(wrap)
			total.Pulses += st2.Pulses
			total.CellSteps += st2.CellSteps
			total.ActiveSteps += st2.ActiveSteps
			if err != nil {
				return Verdict{OK: false, Mode: VerifyDual, Reason: err.Error()}, err
			}
			if got != got2 {
				return Verdict{OK: false, Mode: VerifyDual,
					Reason: fmt.Sprintf("dual runs disagree (%#x vs %#x)", got.Parity, got2.Parity)}, nil
			}
			return Verdict{OK: true, Mode: VerifyDual}, nil
		case e.Verify == VerifyChecksum:
			return Verify(VerifyChecksum, got, reference()), nil
		}
		return Verdict{OK: true, Mode: VerifyNone}, nil
	}

	for n := 0; n < e.Retry.MaxAttempts; n++ {
		d := e.pickDevice()
		if d < 0 {
			break // every device quarantined; host fallback or give up
		}
		dev := e.Devices[d]
		var wrap systolic.Wrap
		var before int64
		if inj := e.injectors[d]; inj != nil {
			before = inj.Injected()
			wrap = inj.NewRun()
		}
		if n > 0 {
			reg.Counter("fault_retries_total", l).Inc()
			e.sleep(e.Retry.Delay(n))
		}
		v, _ := try(wrap, e.Verify == VerifyDual)
		if inj := e.injectors[d]; inj != nil {
			if delta := inj.Injected() - before; delta > 0 {
				reg.Counter("fault_injections_total",
					obs.Labels{"mode": dev.Plan.Mode.String(), "device": dev.Name}).Add(delta)
			}
		}
		if v.OK {
			e.Health.RecordSuccess(dev.Name)
			return total, nil
		}
		reg.Counter("fault_verify_failures_total", obs.Labels{"op": op, "mode": v.Mode.String()}).Inc()
		if e.Health.RecordFailure(dev.Name) {
			reg.Counter("fault_quarantine_events_total", obs.Labels{"device": dev.Name}).Inc()
			reg.Gauge("fault_quarantined_devices", nil).Set(float64(len(e.Health.QuarantinedNames())))
		}
	}

	if e.HostFallback {
		// Degradation ladder, last rung before giving up: pristine cells,
		// no injection. Verified under the configured mode so a host bug
		// cannot hide behind the fallback.
		reg.Counter("fault_host_fallback_total", l).Inc()
		v, err := try(nil, e.Verify == VerifyDual)
		if v.OK {
			return total, nil
		}
		if err != nil {
			return total, fmt.Errorf("%w: host fallback failed: %v", ErrExhausted, err)
		}
		return total, fmt.Errorf("%w: host fallback unverified: %s", ErrExhausted, v.Reason)
	}
	if e.pickDevice() < 0 {
		return total, fmt.Errorf("%w for %s tile (quarantined: %v)",
			ErrNoHealthyDevice, op, e.Health.QuarantinedNames())
	}
	return total, fmt.Errorf("%w after %d attempts (%s tile)", ErrExhausted, e.Retry.MaxAttempts, op)
}
