// Package netchaos is the network-level sibling of internal/fault: a
// deterministic, seeded fault layer injected between the cluster
// coordinator and its shard daemons. Where fault corrupts tokens inside
// one systolic grid (the paper's §2/§8 "identical cells, detect and
// retire" argument), netchaos corrupts the crossbar that stands between
// devices once the crossbar is a real network — dropped requests, torn
// acks, injected latency, partitions, flipped response bytes, duplicate
// delivery.
//
// The injection point is Transport, an http.RoundTripper wrapping the
// coordinator's shard transport. Every decision (drop? how much latency?
// corrupt which byte?) is internal/chaos's seeded hash of the request
// ordinal, so a chaos run is exactly reproducible from its spec.
//
// Specs are an internal/chaos grammar, like -fault's and -diskchaos's:
//
//	seed=7,drop=0.05,latency=20ms±10ms,partition=shard1:30s,corrupt=0.01,dup=0.02
package netchaos

import (
	"fmt"
	"strings"
	"time"

	"systolicdb/internal/chaos"
)

// PartitionSpec is one partition window: requests to hosts matching
// Target fail while the window is active.
type PartitionSpec struct {
	// Target is matched as a substring of the request's URL host (an
	// address like "127.0.0.1:7001", or any operator-chosen label baked
	// into shard hostnames).
	Target string
	// After is the window's start, measured from the transport's first
	// activation; zero starts partitioned.
	After time.Duration
	// For is the window length; zero means the partition never heals.
	For time.Duration
	// OneWay makes the partition asymmetric: the request is delivered
	// (the shard performs its side effects) but the response is dropped —
	// the torn-ack case that makes retried writes double-apply unless
	// they are idempotent.
	OneWay bool
}

// Spec describes one network-chaos campaign. The zero value injects
// nothing; build specs with ParseSpec or fill fields and call Validate.
type Spec struct {
	// Seed makes the campaign reproducible: two transports built from the
	// same spec make identical decisions in request order.
	Seed int64

	// Drop is the probability a request is dropped before it reaches the
	// shard (connection refused / reset analogue).
	Drop float64

	// DropResp is the probability the request is delivered but its
	// response is dropped — the shard applied the mutation, the caller
	// saw a network error (the classic retry/double-apply trap).
	DropResp float64

	// Latency and Jitter delay each request by Latency ± uniform Jitter.
	Latency time.Duration
	Jitter  time.Duration

	// Corrupt is the probability one byte of the response body is
	// flipped (position chosen deterministically).
	Corrupt float64

	// Dup is the probability the request is delivered twice (the
	// duplicate's response is discarded) — at-least-once delivery.
	Dup float64

	// Partitions are timed unreachability windows per target.
	Partitions []PartitionSpec
}

// grammar is the spec format, declared once: ParseSpec, Validate, String
// and SpecHelp all read this table, in this (canonical) order.
func (s *Spec) grammar() chaos.Grammar {
	return chaos.Grammar{Layer: "netchaos", Fields: []chaos.Field{
		chaos.Seed(&s.Seed),
		chaos.Prob(KindDrop, &s.Drop),
		chaos.Prob(KindDropResp, &s.DropResp),
		{Key: KindLatency, Usage: "DUR[±DUR]",
			Parse: s.parseLatency, Check: s.checkLatency, Render: s.renderLatency},
		chaos.Prob(KindCorrupt, &s.Corrupt),
		chaos.Prob(KindDup, &s.Dup),
		{Key: KindPartition, Usage: "TARGET:[DELAY+]DUR[:oneway]",
			Parse: s.parsePartition, Check: s.checkPartitions, Render: s.renderPartitions},
	}}
}

// Validate checks the spec's fields.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("netchaos: nil spec")
	}
	return s.grammar().Validate()
}

// String renders the spec in the grammar ParseSpec accepts (canonical
// form: fixed key order, "±" jitter, "delay+dur" windows).
func (s *Spec) String() string { return s.grammar().String() }

// ParseSpec parses a chaos spec of the form
//
//	key=value,key=value,...
//
// with keys
//
//	seed=<int>                 determinism seed
//	drop=<0..1>                drop the request before delivery
//	dropresp=<0..1>            deliver, then drop the response (torn ack)
//	latency=<dur>[±<dur>]      per-request delay, base ± uniform jitter
//	                           ("+-" is accepted for "±")
//	corrupt=<0..1>             flip one response-body byte
//	dup=<0..1>                 deliver the request twice
//	partition=<target>:[<delay>+]<dur>[:oneway]
//	                           requests to hosts matching <target> fail
//	                           from <delay> (default 0) for <dur> (0 =
//	                           forever); :oneway delivers the request but
//	                           drops the response (repeatable)
//
// Example: "seed=7,drop=0.05,latency=20ms±10ms,partition=shard1:30s,corrupt=0.01,dup=0.02".
func ParseSpec(spec string) (*Spec, error) {
	s := &Spec{}
	if err := s.grammar().Parse(spec); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Spec) parseLatency(val string) (err error) {
	// "+-" is the ASCII spelling of "±"; no valid duration contains either.
	base, jitter, hasJitter := strings.Cut(strings.Replace(val, "+-", "±", 1), "±")
	if s.Latency, err = time.ParseDuration(base); err == nil && hasJitter {
		s.Jitter, err = time.ParseDuration(jitter)
	}
	return err
}

func (s *Spec) checkLatency() error {
	if s.Latency < 0 || s.Jitter < 0 {
		return fmt.Errorf("negative latency/jitter")
	}
	if s.Jitter > 0 && s.Latency == 0 {
		return fmt.Errorf("jitter without base latency")
	}
	return nil
}

func (s *Spec) renderLatency() []string {
	l := s.Latency.String()
	if s.Jitter > 0 {
		l += "±" + s.Jitter.String()
	}
	return chaos.If(s.Latency > 0, l)
}

// parsePartition appends one "<target>:[<delay>+]<dur>[:oneway]" window.
// Targets are host substrings, so they never contain the spec's commas.
func (s *Spec) parsePartition(val string) error {
	var p PartitionSpec
	parts := strings.Split(val, ":")
	// The target itself may contain a colon (host:port), so the window is
	// the first segment that parses as a timing spec, scanning from the
	// right; everything before it is the target.
	winIdx := -1
	for i := len(parts) - 1; i > 0; i-- {
		seg := parts[i]
		if seg == "oneway" {
			if i != len(parts)-1 {
				return fmt.Errorf(":oneway must be last")
			}
			p.OneWay = true
			continue
		}
		if after, dur, err := parseWindow(seg); err == nil {
			// Only :oneway may follow the window; anything else skipped on
			// the way here would otherwise be dropped silently.
			if tail := len(parts) - 1 - i; tail > 1 || tail == 1 && !p.OneWay {
				return fmt.Errorf("unexpected segment after window")
			}
			p.After, p.For, winIdx = after, dur, i
			break
		}
	}
	if winIdx <= 0 {
		return fmt.Errorf("want <target>:[<delay>+]<dur>[:oneway]")
	}
	p.Target = strings.Join(parts[:winIdx], ":")
	s.Partitions = append(s.Partitions, p)
	return nil
}

func (s *Spec) checkPartitions() error {
	for _, p := range s.Partitions {
		if p.Target == "" {
			return fmt.Errorf("empty target")
		}
		if p.After < 0 || p.For < 0 {
			return fmt.Errorf("%q has negative timing", p.Target)
		}
	}
	return nil
}

func (s *Spec) renderPartitions() []string {
	var out []string
	for _, p := range s.Partitions {
		w := p.Target + ":"
		if p.After > 0 {
			w += p.After.String() + "+"
		}
		w += p.For.String()
		if p.OneWay {
			w += ":oneway"
		}
		out = append(out, w)
	}
	return out
}

// parseWindow parses "[<delay>+]<dur>".
func parseWindow(s string) (after, dur time.Duration, err error) {
	if d, rest, ok := strings.Cut(s, "+"); ok {
		if after, err = time.ParseDuration(d); err != nil {
			return 0, 0, err
		}
		s = rest
	}
	dur, err = time.ParseDuration(s)
	return after, dur, err
}

// Kinds of injection, for metrics and test accounting.
const (
	KindDrop      = "drop"
	KindDropResp  = "dropresp"
	KindLatency   = "latency"
	KindCorrupt   = "corrupt"
	KindDup       = "dup"
	KindPartition = "partition"
)

// Kinds lists every injection kind (sorted), for metric pre-registration.
func Kinds() []string {
	return []string{KindCorrupt, KindDrop, KindDropResp, KindDup, KindLatency, KindPartition}
}

// SpecHelp is a one-line usage string for -netchaos flags.
func SpecHelp() string {
	return "chaos spec: " + new(Spec).grammar().Usage() +
		", e.g. seed=7,drop=0.05,latency=20ms±10ms,partition=shard1:30s"
}
