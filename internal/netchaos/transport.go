package netchaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"systolicdb/internal/chaos"
	"systolicdb/internal/obs"
)

// Error is the failure a chaos injection surfaces to the caller. It is a
// transport-level error (not an HTTP status), so the cluster client
// classifies it the same way it classifies a real connection reset:
// retryable.
type Error struct {
	Kind string // which injection fired (KindDrop, KindPartition, ...)
	Host string // the target host the request was headed for
}

func (e *Error) Error() string {
	return fmt.Sprintf("netchaos: injected %s (host %s)", e.Kind, e.Host)
}

// Per-kind salts mixed into the decision hash so one request's drop and
// corrupt decisions are independent coin flips. The values are part of the
// replayable decision stream (0x9e90_0003 belonged to a retired coin and
// stays unused).
const (
	saltDrop     = 0x9e90_0001
	saltDropResp = 0x9e90_0002
	saltJitter   = 0x9e90_0004
	saltCorrupt  = 0x9e90_0005
	saltCorrByte = 0x9e90_0006
	saltDup      = 0x9e90_0007
)

// Transport is an http.RoundTripper that applies a Spec's faults to every
// request passing through it. All decisions are pure functions of
// (spec.Seed, request ordinal), so a campaign replays identically given
// the same request order.
type Transport struct {
	spec *Spec
	base http.RoundTripper

	n      atomic.Uint64 // request ordinal
	ledger *chaos.Ledger

	// The partition clock epoch, set lazily at the first RoundTrip so
	// PartitionSpec.After is measured from first activation, not from
	// transport construction (a coordinator may be built long before
	// traffic starts).
	startOnce sync.Once
	start     time.Time

	// Injectable clocks for tests; production uses time.Now and a
	// context-aware sleep.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// NewTransport wraps base (nil selects http.DefaultTransport) with the
// spec's faults, recording injection counts into reg (nil selects
// obs.Default). The partition clock starts at the first request through
// the transport: a window with delay 5s opens five seconds after first
// activation.
func NewTransport(spec *Spec, base http.RoundTripper, reg *obs.Registry) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		spec:   spec,
		base:   base,
		ledger: chaos.NewLedger(reg, "netchaos", Kinds()),
		now:    time.Now,
		sleep:  sleepCtx,
	}
}

// partitioned reports whether a partition window covers host right now,
// and whether that window is one-way (deliver request, drop response).
func (t *Transport) partitioned(host string) (hit, oneWay bool) {
	if len(t.spec.Partitions) == 0 {
		return false, false
	}
	elapsed := t.now().Sub(t.start)
	for _, p := range t.spec.Partitions {
		// Targets are substrings ("shard1", "127.0.0.1:7001"), matching how
		// operators name shards in -shards specs.
		if p.Target == "" || !strings.Contains(host, p.Target) {
			continue
		}
		if elapsed < p.After {
			continue
		}
		if p.For > 0 && elapsed >= p.After+p.For {
			continue
		}
		if !p.OneWay {
			return true, false // a symmetric window dominates
		}
		hit, oneWay = true, true
	}
	return hit, oneWay
}

// sleepCtx blocks for d or until ctx is done, whichever comes first: an
// injected delay must not hold a canceled request's goroutine hostage
// for the full duration.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RoundTrip applies the spec's faults around one request.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.startOnce.Do(func() { t.start = t.now() })
	i := t.n.Add(1) - 1
	host := req.URL.Host

	// Latency first: a partitioned network is still a slow one.
	if t.spec.Latency > 0 {
		d := t.spec.Latency
		if t.spec.Jitter > 0 {
			span := uint64(2*t.spec.Jitter) + 1
			d += time.Duration(chaos.Draw(t.spec.Seed, i, saltJitter, span)) - t.spec.Jitter
		}
		if d > 0 {
			t.ledger.Record(KindLatency)
			if err := t.sleep(req.Context(), d); err != nil {
				closeBody(req)
				return nil, err
			}
		}
	}

	dropResp := false
	if hit, oneWay := t.partitioned(host); hit {
		t.ledger.Record(KindPartition)
		if !oneWay {
			closeBody(req)
			return nil, &Error{Kind: KindPartition, Host: host}
		}
		dropResp = true // one-way: deliver the request, drop the response below
	}

	if chaos.Fires(t.spec.Seed, i, saltDrop, t.spec.Drop) {
		t.ledger.Record(KindDrop)
		closeBody(req)
		return nil, &Error{Kind: KindDrop, Host: host}
	}

	if chaos.Fires(t.spec.Seed, i, saltDropResp, t.spec.DropResp) {
		t.ledger.Record(KindDropResp)
		dropResp = true
	}

	// Duplicate delivery: send a full copy first and discard its
	// response, so the shard observes the request twice. Only possible
	// when the body is replayable (GetBody) or absent.
	if chaos.Fires(t.spec.Seed, i, saltDup, t.spec.Dup) {
		if dup := cloneRequest(req); dup != nil {
			t.ledger.Record(KindDup)
			if resp, err := t.base.RoundTrip(dup); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}

	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}

	if dropResp {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &Error{Kind: KindDropResp, Host: host}
	}

	if chaos.Fires(t.spec.Seed, i, saltCorrupt, t.spec.Corrupt) {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if len(body) > 0 {
			pos := chaos.Draw(t.spec.Seed, i, saltCorrByte, uint64(len(body)))
			body[pos] ^= 1 << chaos.Draw(t.spec.Seed, i, saltCorrByte+1, 8)
			t.ledger.Record(KindCorrupt)
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
	}

	return resp, nil
}

// closeBody discharges the RoundTripper contract (the transport owns the
// request body, even on error) for requests dropped before delivery.
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// cloneRequest builds an independent copy of req for duplicate delivery,
// or nil if the body cannot be replayed.
func cloneRequest(req *http.Request) *http.Request {
	dup := req.Clone(req.Context())
	switch {
	case req.Body == nil || req.Body == http.NoBody:
		return dup
	case req.GetBody != nil:
		body, err := req.GetBody()
		if err != nil {
			return nil
		}
		dup.Body = body
		return dup
	}
	return nil
}
