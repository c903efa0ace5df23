package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"systolicdb/internal/cluster"
	"systolicdb/internal/relation"
)

// store is where a server's relations live and its plans run. Each
// handler decodes, admits or refuses, makes one store call and encodes the
// answer; every difference between a single node and a coordinator is a
// store's, and New is the one place that picks it. A *Server is the local
// store: its catalog, commit path, WAL and read-only latch. A clusterStore
// partitions user relations across a coordinator's shards and hands the
// reserved "__" names to its server's local store.
type store interface {
	// put publishes rel under name and returns the PUT response body.
	put(ctx context.Context, name, key string, rel *relation.Relation) (map[string]any, error)
	// delete drops name and reports whether it existed.
	delete(ctx context.Context, name, key string) (bool, error)
	get(ctx context.Context, name string) (*relation.Relation, error)
	// list is the user-visible namespace, without the reserved names.
	list() []relationInfo
	// options settles a query's execution options before it is admitted.
	options(req *queryRequest) error
	execute(ctx context.Context, req *queryRequest) (*queryResponse, error)
	// healthz adds the store's part to a /healthz body and reports whether
	// the store is degraded.
	healthz(body map[string]any) (degraded bool)
}

// relationInfo is one catalog entry in the listing.
type relationInfo struct {
	Name    string   `json:"name"`
	Rows    int      `json:"rows"`
	Columns []string `json:"columns"`
	Domains []string `json:"domains"`
}

// statusError is a store refusal that names its own HTTP status.
type statusError struct {
	code int
	error
}

func unknownRelation(name string) error {
	return statusError{http.StatusNotFound, fmt.Errorf("unknown relation %q", name)}
}

// storeFailed answers a store error. A write the WAL could not make durable
// is a retryable 503: it was refused, not half-applied, since the WAL
// truncated the failed frame back out. A statusError names its status, and
// anything else is the catalog refusing the relation.
func (s *Server) storeFailed(w http.ResponseWriter, err error) {
	var se statusError
	switch {
	case errors.Is(err, errWAL):
		s.reject(w, http.StatusServiceUnavailable, "read_only", "%v", err)
	case errors.As(err, &se):
		writeError(w, se.code, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func putResponse(name string, rel *relation.Relation) map[string]any {
	return map[string]any{"name": name, "rows": rel.Cardinality(), "columns": rel.Schema().Names()}
}

func (s *Server) put(_ context.Context, name, key string, rel *relation.Relation) (map[string]any, error) {
	return putResponse(name, rel), s.ApplyPut(name, key, rel)
}

func (s *Server) get(_ context.Context, name string) (*relation.Relation, error) {
	if rel, ok := s.cat.Get(name); ok {
		return rel, nil
	}
	return nil, unknownRelation(name)
}

func (s *Server) list() []relationInfo {
	snap := s.cat.Snapshot()
	out := make([]relationInfo, 0, len(snap))
	for _, name := range s.cat.Names() {
		rel := snap[name]
		if rel == nil { // deleted between Names and Snapshot; skip
			continue
		}
		if strings.HasPrefix(name, hiddenPrefix) {
			// Reserved namespace: cluster membership and staged temps are
			// catalog entries, not user relations.
			continue
		}
		info := relationInfo{Name: name, Rows: rel.Cardinality(), Columns: rel.Schema().Names()}
		for i := 0; i < rel.Schema().Width(); i++ {
			info.Domains = append(info.Domains, rel.Schema().Col(i).Domain.Name())
		}
		out = append(out, info)
	}
	return out
}

func (s *Server) options(*queryRequest) error { return nil }

// healthz: the local store's degradations (read-only storage, quarantined
// devices) are server-wide, so /healthz reports them itself.
func (s *Server) healthz(map[string]any) bool { return false }

// clusterStore is a coordinator's store. User relations are partitioned
// across the shards, so the coordinator's own answers differ from a single
// node's: PUT reports the shard count, an unreachable shard is a 502, GET
// gathers the partitions, the listing is the relation directory, and
// queries scatter as written through the distributed executor.
type clusterStore struct {
	local *Server
	co    *cluster.Coordinator
}

func (c *clusterStore) put(ctx context.Context, name, key string, rel *relation.Relation) (map[string]any, error) {
	if strings.HasPrefix(name, hiddenPrefix) {
		return c.local.put(ctx, name, key, rel)
	}
	// Hash-partition across the shards; the ack requires every shard's
	// primary AND replica to have committed. The client's Idempotency-Key
	// (or a coordinator-generated one) stamps each shard part, so a
	// retried storm PUT cannot double-apply.
	if err := c.co.PutKeyed(ctx, name, key, rel); err != nil {
		return nil, statusError{http.StatusBadGateway, err}
	}
	resp := putResponse(name, rel)
	resp["shards"] = c.co.Shards()
	return resp, nil
}

func (c *clusterStore) delete(ctx context.Context, name, key string) (bool, error) {
	if strings.HasPrefix(name, hiddenPrefix) {
		return c.local.delete(ctx, name, key)
	}
	existed, err := c.co.DeleteKeyed(ctx, name, key)
	if err != nil {
		return existed, statusError{http.StatusBadGateway, err}
	}
	return existed, nil
}

func (c *clusterStore) get(ctx context.Context, name string) (*relation.Relation, error) {
	if strings.HasPrefix(name, hiddenPrefix) {
		return c.local.get(ctx, name)
	}
	if _, known := c.co.Rows(name); !known {
		return nil, unknownRelation(name)
	}
	rel, err := c.co.Gather(ctx, name)
	if err != nil {
		return nil, statusError{http.StatusBadGateway, err}
	}
	return rel, nil
}

// list is the directory PUT traffic recorded; the tuples themselves live
// on the shards.
func (c *clusterStore) list() []relationInfo {
	out := make([]relationInfo, 0)
	for _, name := range c.co.Names() {
		rows, _ := c.co.Rows(name)
		out = append(out, relationInfo{Name: name, Rows: rows})
	}
	return out
}

// options: a coordinator forwards neither "streaming" (its scatter/gather
// engine does not run the host iterator executor) nor a backend override.
// Its shards and its local fallback operators run the coordinator's own
// backend, so that is the backend a response reports.
func (c *clusterStore) options(req *queryRequest) error {
	req.backend = c.local.cfg.Backend
	if req.Streaming {
		return errStreaming
	}
	return nil
}

// execute scatters the plan as written: the optimizer needs catalog
// cardinalities the coordinator doesn't hold, and the executor's own
// strategies (co-partition, broadcast, shuffle) do the distributed
// planning. The plan cache still skips Parse; a parsed plan depends on its
// text alone, so every entry carries the same constant version and no PUT
// invalidates it (shard daemons invalidate their own sub-plan caches
// through their catalog counters).
func (c *clusterStore) execute(ctx context.Context, req *queryRequest) (*queryResponse, error) {
	resp := &queryResponse{}
	plan, err := c.local.preparePlan(req, resp, nil, 0, false)
	if err != nil {
		return nil, err
	}
	resp.Optimized = resp.Plan
	resp.Backend = req.backend.String()
	resp.Distributed = true
	rel, err := c.co.Execute(ctx, plan)
	if err != nil {
		return nil, err
	}
	return resp, resp.setResult(rel, req)
}

// healthz adds the cluster topology: per-shard primary/replica addressing,
// who has been promoted, who is quarantined. A promoted or quarantined
// shard degrades the cluster (it lost its failover headroom) even though
// queries still answer.
func (c *clusterStore) healthz(body map[string]any) bool {
	topo := c.co.Topology()
	serving := true
	for _, sh := range topo {
		if sh.Quarantined {
			serving = false
		}
	}
	body["cluster"] = map[string]any{
		"shards":  topo,
		"serving": serving,
	}
	return c.co.Degraded()
}
