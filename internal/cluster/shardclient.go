package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"systolicdb/internal/relation"
	"systolicdb/internal/wal"
)

// TableParser decodes a typed text table (leading `#% types:` directive)
// into a relation. The coordinator passes its catalog's parser, so every
// gathered partial interns into one shared domain pool and partials from
// different shards stay union-compatible.
type TableParser func(text string) (*relation.Relation, error)

// ClientOptions tunes a ShardClient.
type ClientOptions struct {
	// Timeout bounds each individual HTTP call. Default 30s.
	Timeout time.Duration

	// MaxIdlePerHost sizes the connection pool to one shard. It should be
	// at least the coordinator's fan-out so a scatter never stalls
	// re-dialling. Default 16.
	MaxIdlePerHost int

	// Backend, when non-empty, is sent with every sub-query ("pulse" or
	// "bitset") overriding the shard's default engine.
	Backend string

	// Wrap, when non-nil, wraps the client's HTTP transport — the hook the
	// netchaos layer injects through, so every coordinator↔shard byte can
	// be dropped, delayed, corrupted or duplicated deterministically.
	Wrap func(http.RoundTripper) http.RoundTripper
}

// deadlineMargin is subtracted from the caller's remaining budget before
// it is forwarded as timeout_ms: the shard should give up slightly before
// the coordinator does, so the coordinator sees a clean shard-side
// timeout instead of a torn transport error.
const deadlineMargin = 50 * time.Millisecond

// minForwardTimeout is the floor on a forwarded budget — a nearly
// exhausted deadline still gives the shard a beat to answer.
const minForwardTimeout = 10 * time.Millisecond

// ShardClient speaks the systolicdbd HTTP API on behalf of the
// coordinator: sub-queries, relation staging, log shipping and health.
// It implements ShardExec.
type ShardClient struct {
	base  string
	hc    *http.Client
	parse TableParser
	opt   ClientOptions
}

// NewShardClient builds a client for one daemon at base (e.g.
// "http://127.0.0.1:8080"). The transport keeps a warm connection pool
// sized for scatter fan-out.
func NewShardClient(base string, parse TableParser, opt ClientOptions) *ShardClient {
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.MaxIdlePerHost <= 0 {
		opt.MaxIdlePerHost = 16
	}
	tr := &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          4 * opt.MaxIdlePerHost,
		MaxIdleConnsPerHost:   opt.MaxIdlePerHost,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: opt.Timeout,
	}
	var rt http.RoundTripper = tr
	if opt.Wrap != nil {
		rt = opt.Wrap(tr)
	}
	return &ShardClient{
		base:  strings.TrimRight(base, "/"),
		hc:    &http.Client{Transport: rt, Timeout: opt.Timeout},
		parse: parse,
		opt:   opt,
	}
}

// Addr returns the daemon base URL this client talks to.
func (c *ShardClient) Addr() string { return c.base }

// shardHTTPError is a non-transport failure from a shard, carrying the
// HTTP status so callers can tell a sick shard (5xx, retryable elsewhere)
// from a rejected request (4xx, the query itself is wrong). retryAfter
// carries the shard's Retry-After hint when it sent one (429/503
// backpressure).
type shardHTTPError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *shardHTTPError) Error() string {
	return fmt.Sprintf("shard answered %d: %s", e.code, e.msg)
}

// shardBodyError is a response that arrived but cannot be trusted: a
// malformed JSON envelope, an unparseable result table, or a table whose
// checksum does not match the shard's stamp. Under a corrupting network
// these are transient — the retry (possibly against a promoted replica)
// fetches a clean copy — so they are classified retryable.
type shardBodyError struct {
	msg string
}

func (e *shardBodyError) Error() string {
	return fmt.Sprintf("cluster: untrusted shard response: %s", e.msg)
}

// RetryableShardError reports whether err looks like shard or network
// sickness rather than a caller mistake. Retryable errors feed the
// failover ladder; the rest fail the query. The classification:
//
//   - connection refused / reset / timed out → retryable (the crash model
//     the replica ladder exists for)
//   - 5xx and 429 → retryable (sick or overloaded shard)
//   - malformed or checksum-failed response body → retryable (corrupt
//     network path; a retry re-fetches)
//   - other 4xx → fatal (the query itself is wrong)
//   - context.Canceled → fatal (the caller gave up; retrying would
//     outlive the request it belongs to)
func RetryableShardError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var he *shardHTTPError
	if errors.As(err, &he) {
		return he.code >= 500 || he.code == http.StatusTooManyRequests
	}
	var be *shardBodyError
	if errors.As(err, &be) {
		return true
	}
	// Transport-level failures (refused, reset, timed out) are exactly the
	// crash model the replica ladder exists for.
	return true
}

// RetryAfterHint extracts the shard's Retry-After backpressure hint from
// err, if it carried one. The failover ladder stretches its backoff to at
// least the hint, so an overloaded shard is not hammered on the schedule
// it just asked the coordinator to avoid.
func RetryAfterHint(err error) (time.Duration, bool) {
	var he *shardHTTPError
	if errors.As(err, &he) && he.retryAfter > 0 {
		return he.retryAfter, true
	}
	return 0, false
}

// parseRetryAfter decodes a Retry-After header value: delta-seconds or an
// HTTP-date. Returns 0 when absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func (c *ShardClient) do(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(body))
		var env struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &env) == nil && env.Error != "" {
			msg = env.Error
		}
		return nil, &shardHTTPError{
			code:       resp.StatusCode,
			msg:        msg,
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	return body, nil
}

// Query runs plan text on the shard and parses the typed result table.
// The caller's remaining deadline budget (minus a margin) is forwarded as
// timeout_ms so the shard gives up before the coordinator does, and the
// shard's table_crc32 stamp is verified before the table is parsed —
// a corrupted-in-flight response is rejected as retryable instead of
// being silently merged into a gather.
func (c *ShardClient) Query(ctx context.Context, plan string) (*relation.Relation, error) {
	fields := map[string]any{
		"plan":        plan,
		"table_types": true,
		"backend":     c.opt.Backend,
	}
	if dl, ok := ctx.Deadline(); ok {
		budget := time.Until(dl) - deadlineMargin
		if budget < minForwardTimeout {
			budget = minForwardTimeout
		}
		fields["timeout_ms"] = budget.Milliseconds()
	}
	payload, err := json.Marshal(fields)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/query", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	var out struct {
		Table      string  `json:"table"`
		TableCRC32 *uint32 `json:"table_crc32"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, &shardBodyError{msg: fmt.Sprintf("bad query response: %v", err)}
	}
	if out.TableCRC32 != nil {
		if got := crc32.ChecksumIEEE([]byte(out.Table)); got != *out.TableCRC32 {
			return nil, &shardBodyError{msg: fmt.Sprintf(
				"table checksum mismatch: got %08x, shard stamped %08x", got, *out.TableCRC32)}
		}
	}
	rel, err := c.parse(out.Table)
	if err != nil {
		return nil, &shardBodyError{msg: fmt.Sprintf("parsing sub-query result: %v", err)}
	}
	return rel, nil
}

// Put uploads rel under name (typed table body, so the shard reconstructs
// the exact column domains).
func (c *ShardClient) Put(ctx context.Context, name string, rel *relation.Relation) error {
	return c.PutKeyed(ctx, name, "", rel)
}

// PutKeyed uploads rel under name with an idempotency key: the shard
// commits the write at most once per key, so a retry after a torn ack
// (request delivered, response dropped) acks without re-applying.
func (c *ShardClient) PutKeyed(ctx context.Context, name, key string, rel *relation.Relation) error {
	var sb strings.Builder
	if err := relation.FormatTableTypes(&sb, rel); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		c.base+"/relations/"+url.PathEscape(name), strings.NewReader(sb.String()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain; charset=utf-8")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	_, err = c.do(req)
	return err
}

// Delete drops a relation; deleting a name the shard doesn't hold is not
// an error (idempotent cleanup).
func (c *ShardClient) Delete(ctx context.Context, name string) error {
	return c.DeleteKeyed(ctx, name, "")
}

// DeleteKeyed drops a relation with an idempotency key (see PutKeyed).
func (c *ShardClient) DeleteKeyed(ctx context.Context, name, key string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.base+"/relations/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	_, err = c.do(req)
	var he *shardHTTPError
	if errors.As(err, &he) && he.code == http.StatusNotFound {
		return nil
	}
	return err
}

// PutTemp and DeleteTemp complete ShardExec; staging uses the same
// relation endpoints (the shard recognises the __tmp_ prefix and skips
// its WAL).
func (c *ShardClient) PutTemp(ctx context.Context, name string, rel *relation.Relation) error {
	return c.Put(ctx, name, rel)
}

func (c *ShardClient) DeleteTemp(ctx context.Context, name string) error {
	return c.Delete(ctx, name)
}

// ShipPayload mirrors the shard's GET /wal/ship response.
type ShipPayload struct {
	Seq     uint64            `json:"seq"`
	Full    bool              `json:"full"`
	Records []wal.ShipRecord  `json:"records"`
	State   map[string]string `json:"state"`
}

// Ship fetches the primary's log-shipping feed past afterSeq.
func (c *ShardClient) Ship(ctx context.Context, afterSeq uint64) (*ShipPayload, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/wal/ship?after=%d", c.base, afterSeq), nil)
	if err != nil {
		return nil, err
	}
	body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	var out ShipPayload
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("cluster: bad ship response: %w", err)
	}
	return &out, nil
}

// ShipState folds a ship payload into the durable catalog state it
// describes, as relation name → typed text table. A full payload is its
// state verbatim; an incremental one folds put-over-del in log order —
// the same fold a follower applies, minus the durability. The scrub
// loop's read repair uses this to reconstruct "what the replica holds"
// for cross-checking a damaged primary.
func ShipState(p *ShipPayload) map[string]string {
	out := make(map[string]string, len(p.State)+len(p.Records))
	if p.Full {
		for name, table := range p.State {
			out[name] = table
		}
		return out
	}
	for _, rec := range p.Records {
		switch rec.Op {
		case "put":
			out[rec.Name] = rec.Table
		case "del":
			delete(out, rec.Name)
		}
	}
	return out
}

// State fetches the shard's full durable state (via the log-shipping feed
// from sequence zero) as relation name → typed text table.
func (c *ShardClient) State(ctx context.Context) (map[string]string, error) {
	p, err := c.Ship(ctx, 0)
	if err != nil {
		return nil, err
	}
	return ShipState(p), nil
}
