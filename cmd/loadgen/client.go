package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"strings"
	"time"

	"systolicdb/internal/fault"
)

// oracleEvery is the sampling stride of the full answer check: every
// response is checked for status, row count and CRC, and one in oracleEvery
// is parsed and compared with the host oracle.
const oracleEvery = 16

// sample is one timed request.
type sample struct {
	ms    float64
	class class
	mode  mode
}

// queryReply is the part of the POST /query response loadgen reads.
type queryReply struct {
	Rows       int     `json:"rows"`
	Table      string  `json:"table"`
	TableCRC32 *uint32 `json:"table_crc32"`
	Pulses     int     `json:"pulses"`
	WordOps    int     `json:"word_ops"`
	PeakTuples int     `json:"peak_tuples"`
	Machine    *struct {
		MakespanSeconds float64 `json:"makespan_seconds"`
		Concurrency     float64 `json:"concurrency"`
		Events          int     `json:"events"`
	} `json:"machine"`
}

// tally accumulates what the responses of one phase reported about the
// layers behind them.
type tally struct {
	queries    int
	wordOps    int
	rowsIn     int
	rowsOut    int
	peak       [numModes]int
	perMode    [numModes]int
	makespan   float64
	concur     float64
	events     int
	machine    int
	tableRows  int // rows and bytes of every table sent or returned
	tableBytes int
	putBytes   int // bytes of PUT bodies: the user data the WAL is charged for
}

func (t *tally) add(o *tally) {
	t.queries += o.queries
	t.wordOps += o.wordOps
	t.rowsIn += o.rowsIn
	t.rowsOut += o.rowsOut
	for m := range t.peak {
		t.peak[m] += o.peak[m]
		t.perMode[m] += o.perMode[m]
	}
	t.makespan += o.makespan
	t.concur += o.concur
	t.events += o.events
	t.machine += o.machine
	t.tableRows += o.tableRows
	t.tableBytes += o.tableBytes
	t.putBytes += o.putBytes
}

// conn is one keep-alive HTTP/1.1 connection driven from a single
// goroutine: write the request, read the reply. net/http's Transport would
// do the same through two more goroutines per connection, and at several
// thousand requests a second their hand-offs made the generator the largest
// consumer of the 2-core sandbox; this keeps it a small share.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

// roundTrip sends one request and reads the whole reply body into buf. A
// connection the daemon closed while idle (or by restarting) is re-dialled
// once.
func (k *conn) roundTrip(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	reused := k.c != nil
	status, err := k.try(method, path, body, buf)
	if err != nil && reused {
		status, err = k.try(method, path, body, buf)
	}
	return status, err
}

func (k *conn) try(method, path string, body []byte, buf *bytes.Buffer) (status int, err error) {
	if k.c == nil {
		if k.c, err = net.DialTimeout("tcp", k.addr, 5*time.Second); err != nil {
			return 0, err
		}
		k.br = bufio.NewReaderSize(k.c, 64<<10)
	}
	defer func() {
		if err != nil {
			k.c.Close()
			k.c = nil
		}
	}()
	if err = k.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, err
	}
	buf.Reset()
	fmt.Fprintf(buf, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n", method, path, k.addr, len(body))
	buf.Write(body)
	if _, err = k.c.Write(buf.Bytes()); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		k.c.Close()
		k.c = nil
	}
	return resp.StatusCode, err
}

// client is one closed-loop caller: it owns one keep-alive connection and
// sends its next request only after the previous reply is fully read.
type client struct {
	conn conn
	in   *inputs
	gen  generator

	sent int // requests sent over the client's lifetime; drives oracle sampling
	buf  bytes.Buffer

	samples   []sample
	pulses    []int // per-query simulated pulses, in send order
	tally     tally
	attempted int
	failed    int
	errs      []string // first few failures, for the report
}

// newHTTPClient returns the client for everything outside the timed loops
// (set-up PUTs, scrapes, health probes): at most one connection per host.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

func newClient(d *daemon, in *inputs, gen generator) *client {
	return &client{conn: conn{addr: d.addr}, in: in, gen: gen}
}

// reset drops the recorded samples and tallies (after warm-up) but keeps
// the generator's state and the failure count.
func (c *client) reset() {
	c.samples, c.pulses, c.tally = c.samples[:0], c.pulses[:0], tally{}
}

func (c *client) fail(r request, format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		what := r.plan.text
		if r.class != classQuery {
			what = r.class.route() + " " + r.name
		}
		c.errs = append(c.errs, what+": "+fmt.Sprintf(format, args...))
	}
}

// runUntil sends requests back to back until the deadline passes.
func (c *client) runUntil(deadline time.Time) {
	for time.Now().Before(deadline) {
		c.do(c.gen.next(), false)
	}
}

// runAtLeast sends requests until it has sent n and d has passed.
func (c *client) runAtLeast(n int, d time.Duration) {
	deadline := time.Now().Add(d)
	for i := 0; i < n || time.Now().Before(deadline); i++ {
		c.do(c.gen.next(), false)
	}
}

// do sends one request, times it, and checks the answer. full forces the
// oracle comparison regardless of the sampling stride. It returns the
// request's latency.
func (c *client) do(r request, full bool) time.Duration {
	method, path, body := r.wire(c.in)
	c.attempted++
	c.sent++
	full = full || c.sent%oracleEvery == 0

	start := time.Now()
	status, err := c.conn.roundTrip(method, path, body, &c.buf)
	took := time.Since(start)
	if err != nil {
		c.fail(r, "%v", err)
		return took
	}
	c.samples = append(c.samples, sample{ms: float64(took.Nanoseconds()) / 1e6, class: r.class, mode: r.mode})
	c.check(r, status, full)
	return took
}

// check verifies one reply; any mismatch counts in failed.
func (c *client) check(r request, status int, full bool) {
	want := http.StatusOK
	if r.class == classDelete {
		want = http.StatusNoContent
	}
	if status != want {
		c.fail(r, "status %d: %s", status, firstLine(c.buf.String()))
		return
	}
	switch r.class {
	case classPut:
		var ack struct {
			Rows int `json:"rows"`
		}
		if err := json.Unmarshal(c.buf.Bytes(), &ack); err != nil || ack.Rows != c.in.bodies[r.body].rel.Cardinality() {
			c.fail(r, "PUT acked %d rows (%v), sent %d", ack.Rows, err, c.in.bodies[r.body].rel.Cardinality())
		}
		c.tally.tableRows += ack.Rows
		c.tally.tableBytes += len(c.in.bodies[r.body].text)
		c.tally.putBytes += len(c.in.bodies[r.body].text)
	case classGet:
		text := c.buf.String()
		want := c.in.bodies[r.scanBody]
		if rows := tableRows(text); rows != want.rel.Cardinality() {
			c.fail(r, "GET returned %d rows, last acked body has %d", rows, want.rel.Cardinality())
			return
		}
		c.tally.tableRows += want.rel.Cardinality()
		c.tally.tableBytes += len(text)
		if full {
			if err := c.differs(text, want.sum); err != nil {
				c.fail(r, "%v", err)
			}
		}
	case classQuery:
		var q queryReply
		if err := json.Unmarshal(c.buf.Bytes(), &q); err != nil {
			c.fail(r, "bad reply: %v", err)
			return
		}
		if q.TableCRC32 == nil || crc32.ChecksumIEEE([]byte(q.Table)) != *q.TableCRC32 {
			c.fail(r, "table_crc32 does not match the table")
			return
		}
		if rows := tableRows(q.Table); rows != q.Rows {
			c.fail(r, "rows says %d, table holds %d", q.Rows, rows)
			return
		}
		c.pulses = append(c.pulses, q.Pulses)
		t := &c.tally
		t.queries++
		t.wordOps += q.WordOps
		t.rowsIn += r.plan.rowsIn
		t.rowsOut += q.Rows
		t.peak[r.mode] += q.PeakTuples
		t.perMode[r.mode]++
		t.tableRows += q.Rows
		t.tableBytes += len(q.Table)
		if q.Machine != nil {
			t.machine++
			t.makespan += q.Machine.MakespanSeconds
			t.concur += q.Machine.Concurrency
			t.events += q.Machine.Events
		}
		if full {
			want, err := c.in.expected(r)
			if err == nil {
				err = c.differs(q.Table, want)
			}
			if err != nil {
				c.fail(r, "%v", err)
			}
		}
	}
}

// differs parses a returned table and reports how its order-independent
// checksum differs from the expected one; nil when it does not.
func (c *client) differs(text string, want fault.Checksum) error {
	rel, err := c.in.cat.ParseTable(strings.NewReader(text), "")
	if err != nil {
		return fmt.Errorf("unparsable table: %w", err)
	}
	got, err := fault.RelationChecksum(rel)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("answer differs from the host oracle: got %d rows parity %x, want %d rows parity %x",
			got.Count, got.Parity, want.Count, want.Parity)
	}
	return nil
}

// tableRows counts the data rows of a text table: its non-comment lines
// minus the header.
func tableRows(text string) int {
	rows := -1
	for len(text) > 0 {
		line, rest, _ := strings.Cut(text, "\n")
		text = rest
		if line != "" && line[0] != '#' {
			rows++
		}
	}
	return max(rows, 0)
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	if len(line) > 200 {
		line = line[:200]
	}
	return line
}
