package server

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"systolicdb/internal/query"
	"systolicdb/internal/relation"
)

// Catalog is the server's concurrency-safe collection of named base
// relations. Reads are cheap (RWMutex read lock); writes publish by
// building a fresh map (copy-on-write), so a query.Catalog snapshot handed
// to an in-flight query is never mutated underneath it — the contract
// query.Execute documents.
//
// Relations stored in a Catalog must be treated as immutable from the
// moment they are Put.
type Catalog struct {
	mu      sync.RWMutex
	rels    query.Catalog // current published snapshot; never mutated in place
	domains *DomainPool

	// version counts visible-relation mutations: it is bumped by every
	// Put/Delete of a non-hidden name. Plan caches stamp entries with the
	// version they were prepared against and drop them on mismatch —
	// equal versions guarantee the visible catalog maps the same names to
	// the same (immutable) relation values, so a prepared plan (schemas,
	// widths, even compiled task lists holding relation pointers) is
	// still exact. Hidden (`__`-prefixed) names — cluster membership,
	// shuffle temps — don't bump it, and plans reading them are never
	// cached.
	version uint64
}

// NewCatalog returns an empty catalog with a fresh domain pool.
func NewCatalog() *Catalog {
	return &Catalog{rels: query.Catalog{}, domains: NewDomainPool()}
}

// Snapshot returns the current published relation map. The returned
// query.Catalog is immutable by construction — Put/Delete build new maps —
// so callers may hold and read it for as long as they like (e.g. for the
// whole run of a query) without locking.
func (c *Catalog) Snapshot() query.Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rels
}

// SnapshotVersion returns the relation map and the version it was
// published at, atomically — the pair a plan cache needs: a plan
// prepared against this snapshot is valid exactly as long as lookups
// still observe this version.
func (c *Catalog) SnapshotVersion() (query.Catalog, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rels, c.version
}

// Get returns the named relation, or false.
func (c *Catalog) Get(name string) (*relation.Relation, bool) {
	r, ok := c.Snapshot()[name]
	return r, ok
}

// Names returns the sorted relation names.
func (c *Catalog) Names() []string {
	snap := c.Snapshot()
	out := make([]string, 0, len(snap))
	for name := range snap {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CheckPut validates a put without publishing it — the same checks Put
// performs. The durable-commit path runs it before write-ahead logging,
// so the WAL never records a mutation the catalog would then refuse.
func (c *Catalog) CheckPut(name string, rel *relation.Relation) error {
	if name == "" {
		return fmt.Errorf("server: relation name must not be empty")
	}
	if rel == nil {
		return fmt.Errorf("server: nil relation")
	}
	return nil
}

// Put publishes rel under name, replacing any previous relation of that
// name. In-flight queries keep whatever snapshot they started with.
func (c *Catalog) Put(name string, rel *relation.Relation) error {
	if err := c.CheckPut(name, rel); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next := make(query.Catalog, len(c.rels)+1)
	for k, v := range c.rels {
		next[k] = v
	}
	next[name] = rel
	c.rels = next
	if !strings.HasPrefix(name, hiddenPrefix) {
		c.version++
	}
	return nil
}

// Delete removes the named relation, reporting whether it existed.
func (c *Catalog) Delete(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.rels[name]; !ok {
		return false
	}
	next := make(query.Catalog, len(c.rels)-1)
	for k, v := range c.rels {
		if k != name {
			next[k] = v
		}
	}
	c.rels = next
	if !strings.HasPrefix(name, hiddenPrefix) {
		c.version++
	}
	return true
}

// DomainPool interns relation domains by spec, so every column declared
// with the same spec — across relations and across loads — shares one
// *relation.Domain. Domain identity is what the relation layer uses for
// union compatibility (§2.4), so two relations loaded through the same
// pool with matching column specs can be intersected, unioned and joined.
//
// A spec is "kind" or "kind:name": int, dict:names, bool:flags, date.
// Omitting the name pools on the bare kind (all `int` columns share one
// integer domain, etc.).
type DomainPool struct {
	mu    sync.Mutex
	pool  map[string]*relation.Domain
	kinds map[string]func(string) *relation.Domain
}

// NewDomainPool returns an empty pool supporting the four built-in domain
// kinds.
func NewDomainPool() *DomainPool {
	return &DomainPool{
		pool: make(map[string]*relation.Domain),
		kinds: map[string]func(string) *relation.Domain{
			"int":  relation.IntDomain,
			"dict": relation.DictDomain,
			"bool": relation.BoolDomain,
			"date": relation.DateDomain,
		},
	}
}

// Domain resolves one spec to its pooled domain, creating it on first use.
func (p *DomainPool) Domain(spec string) (*relation.Domain, error) {
	kind, name, _ := strings.Cut(strings.TrimSpace(spec), ":")
	kind = strings.ToLower(strings.TrimSpace(kind))
	name = strings.TrimSpace(name)
	mk, ok := p.kinds[kind]
	if !ok {
		return nil, fmt.Errorf("server: unknown domain kind %q (want int, dict, bool or date)", kind)
	}
	if name == "" {
		name = kind
	}
	key := kind + ":" + name
	p.mu.Lock()
	defer p.mu.Unlock()
	if d, ok := p.pool[key]; ok {
		return d, nil
	}
	d := mk(name)
	p.pool[key] = d
	return d, nil
}

// Schema builds a relation schema from parallel column names and domain
// specs.
func (p *DomainPool) Schema(names, specs []string) (*relation.Schema, error) {
	if len(names) != len(specs) {
		return nil, fmt.Errorf("server: %d column names but %d domain specs", len(names), len(specs))
	}
	cols := make([]relation.Column, len(names))
	for i := range names {
		d, err := p.Domain(specs[i])
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", names[i], err)
		}
		cols[i] = relation.Column{Name: names[i], Domain: d}
	}
	return relation.NewSchema(cols...)
}

// typesDirective is the in-band column-type declaration of a table file:
//
//	#% types: int, dict:names, bool, date
//	id	name	active	hired
//	1	alice	true	1980-05-14
//
// It rides in a comment line, so relation.ParseTable (which needs a
// ready-made schema) skips it unchanged.
const typesDirective = "#%"

// ParseTable reads a relation in the text-table format, building its
// schema from the header line plus column-type specs. The specs come from
// the explicit types argument (comma-separated, as in "int, dict:names"),
// or — when types is empty — from a `#% types:` directive line in the
// input itself; with neither, every column defaults to the pooled `int`
// domain. Domains are interned in the pool (see DomainPool).
func (c *Catalog) ParseTable(r io.Reader, types string) (*relation.Relation, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("server: reading table: %w", err)
	}
	text := string(raw)
	header, directive, err := tableShape(text)
	if err != nil {
		return nil, err
	}
	if types == "" {
		types = directive
	}
	var specs []string
	if types == "" {
		specs = make([]string, len(header))
		for i := range specs {
			specs[i] = "int"
		}
	} else {
		for _, s := range strings.Split(types, ",") {
			specs = append(specs, strings.TrimSpace(s))
		}
	}
	schema, err := c.domains.Schema(header, specs)
	if err != nil {
		return nil, err
	}
	return relation.ParseTable(strings.NewReader(text), schema)
}

// LoadFile reads one table file into the catalog under the given name,
// with column types taken from the file's `#% types:` directive (or all
// int). Shared by the HTTP PUT handler's file-less cousin: the
// `systolicdb -rel name=file.tbl` flag.
func (c *Catalog) LoadFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("server: relation %q: %w", name, err)
	}
	defer f.Close()
	rel, err := c.ParseTable(f, "")
	if err != nil {
		return fmt.Errorf("server: relation %q (%s): %w", name, path, err)
	}
	return c.Put(name, rel)
}

// tableShape extracts the header column names and the optional `#% types:`
// directive from a table's text without building tuples.
func tableShape(text string) (header []string, types string, err error) {
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, typesDirective); ok {
			rest = strings.TrimSpace(rest)
			if v, ok := strings.CutPrefix(rest, "types:"); ok {
				if types != "" {
					return nil, "", fmt.Errorf("server: line %d: duplicate #%% types directive", lineNo+1)
				}
				types = strings.TrimSpace(v)
				continue
			}
			return nil, "", fmt.Errorf("server: line %d: unknown directive %q", lineNo+1, line)
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		header, err = splitHeader(line)
		if err != nil {
			return nil, "", fmt.Errorf("server: line %d: %w", lineNo+1, err)
		}
		return header, types, nil
	}
	return nil, "", fmt.Errorf("server: table has no header line")
}

// splitHeader splits the header line the same way relation.ParseTable
// will: TAB-separated if any TAB is present, comma-separated otherwise.
// Quoted column names are not supported at this layer; header names are
// identifiers in practice.
func splitHeader(line string) ([]string, error) {
	sep := ","
	if strings.Contains(line, "\t") {
		sep = "\t"
	}
	parts := strings.Split(line, sep)
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
		if out[i] == "" {
			return nil, fmt.Errorf("empty header column %d", i)
		}
	}
	return out, nil
}
