package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"syscall"

	"systolicdb/internal/cluster"
	"systolicdb/internal/obs"
	"systolicdb/internal/relation"
)

// errWAL marks a mutation refused because it could not be made durable
// (as opposed to one the catalog itself rejected).
var errWAL = errors.New("write-ahead log append failed")

// TempPrefix marks ephemeral relations: the staging area the cluster
// coordinator's shuffle and broadcast strategies write into. Temp
// relations are never write-ahead logged (they are mid-query scratch
// state, recreated on retry) and are hidden from catalog listings.
const TempPrefix = "__tmp_"

// hiddenPrefix marks reserved relations (cluster membership, temps) that
// exist in the catalog but are not part of the user-visible namespace.
const hiddenPrefix = "__"

// IsTemp reports whether name is an ephemeral staging relation.
func IsTemp(name string) bool { return strings.HasPrefix(name, TempPrefix) }

// ApplyPut publishes one relation, write-ahead logging it first when the
// server is durable. The commit mutex makes log order equal publish order.
// Temp relations bypass the log entirely. key, when non-empty, is the
// write's idempotency key: a key the server has already committed makes
// the whole call a successful no-op (the earlier commit IS this write),
// so a retried dual-write or a shipped record the replica already applied
// cannot double-apply. Every durable put commits here: PUT traffic, the
// replication follower's shipped records (see Replicator), the
// coordinator's persisted cluster state and scrub read repair.
func (s *Server) ApplyPut(name, key string, rel *relation.Relation) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.dedup.Seen(key) {
		s.reg.Counter("server_idempotent_dedup_total", obs.Labels{"op": "put"}).Inc()
		return nil
	}
	// Validate before logging so the WAL never records a mutation the
	// catalog would refuse (CheckPut performs the same name/relation
	// validation Put does, without publishing).
	if err := s.cat.CheckPut(name, rel); err != nil {
		return err
	}
	if s.wal != nil && !IsTemp(name) {
		if err := s.appendDurable(func() error { return s.wal.AppendPutKeyed(name, key, rel) }); err != nil {
			return err
		}
	}
	if err := s.cat.Put(name, rel); err != nil {
		return err
	}
	if !IsTemp(name) {
		s.dedup.Add(key)
	}
	s.maybeSnapshot()
	return nil
}

// delete removes a relation, write-ahead logging the delete first.
// It reports whether the relation existed; a delete of a missing relation
// is not logged, and temp relations are never logged. A replayed key is a
// successful no-op reporting existed=true: the first application already
// removed the relation, and "already deleted by this very write" must not
// surface as 404 to a retrying client.
func (s *Server) delete(_ context.Context, name, key string) (bool, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.dedup.Seen(key) {
		s.reg.Counter("server_idempotent_dedup_total", obs.Labels{"op": "delete"}).Inc()
		return true, nil
	}
	if _, ok := s.cat.Get(name); !ok {
		return false, nil
	}
	if s.wal != nil && !IsTemp(name) {
		if err := s.appendDurable(func() error { return s.wal.AppendDeleteKeyed(name, key) }); err != nil {
			return true, err
		}
	}
	ok := s.cat.Delete(name)
	if !IsTemp(name) {
		s.dedup.Add(key)
	}
	s.maybeSnapshot()
	return ok, nil
}

// ApplyDelete is delete without the existence report: to the
// replication follower, a delete of a missing relation is a no-op.
func (s *Server) ApplyDelete(name, key string) error {
	_, err := s.delete(context.TODO(), name, key)
	return err
}

// Names lists every relation the catalog holds, reserved names included.
func (s *Server) Names() []string { return s.cat.Names() }

// Replicator is this server's durable commit path as the cluster
// follower's Applier: a replica daemon replays the primary's shipped WAL
// records through the same append-then-publish ordering as its own PUT
// traffic, so promotion hands over an equally durable copy. Shipped
// idempotency keys flow into the same dedup window the direct dual-write
// path uses, so a record that arrived both ways applies once.
func (s *Server) Replicator() cluster.Applier { return s }

// maybeSnapshot kicks off a background snapshot once the WAL lag crosses
// the configured threshold. Caller holds commitMu; the snapshot itself
// runs off-thread so the triggering request is not held up. At most one
// snapshot runs at a time.
func (s *Server) maybeSnapshot() {
	if s.wal == nil || s.wal.Lag() < int64(s.cfg.SnapshotEvery) {
		return
	}
	if !s.snapshotting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.snapshotting.Store(false)
		if err := s.WriteSnapshot(); err != nil {
			s.reg.Counter("server_wal_errors_total", nil).Inc()
		}
	}()
}

// WriteSnapshot rotates the WAL and persists the current catalog as the
// new recovery base, garbage-collecting the log segments it supersedes.
// No-op without a WAL. The daemon also calls this on graceful shutdown so
// restarts recover from a snapshot instead of replaying a long log.
func (s *Server) WriteSnapshot() error {
	if s.wal == nil {
		return nil
	}
	// Rotate and capture under the commit mutex: every record in the
	// sealed generations is then ≤ the captured state, so the snapshot
	// supersedes them. The actual file write happens after unlock —
	// snapshotting a large catalog must not stall mutations.
	s.commitMu.Lock()
	gen, err := s.wal.Rotate()
	if err != nil {
		s.commitMu.Unlock()
		return err
	}
	state := s.cat.Snapshot()
	s.commitMu.Unlock()
	return s.wal.WriteSnapshot(gen, state)
}

// appendDurable runs one WAL append, absorbing what it can: an ENOSPC
// gets one shot at an emergency compacting snapshot (rotation + snapshot
// GC frees every superseded segment) before the append is retried; a
// failure that sticks trips read-only mode and refuses the mutation.
// Caller holds commitMu — which is why the compaction inlines the
// rotate+write rather than calling WriteSnapshot (it would deadlock
// re-taking the mutex).
func (s *Server) appendDurable(append func() error) error {
	err := append()
	if err == nil {
		return nil
	}
	cause := "append"
	if errors.Is(err, syscall.ENOSPC) {
		cause = "enospc"
		if cerr := s.compactLocked(); cerr == nil {
			if err = append(); err == nil {
				s.reg.Counter("server_enospc_compactions_total", nil).Inc()
				return nil
			}
		}
	}
	s.reg.Counter("server_wal_errors_total", nil).Inc()
	s.tripReadOnly(cause)
	return fmt.Errorf("%w: %v", errWAL, err)
}

// compactLocked is the emergency snapshot path: rotate + snapshot with
// commitMu already held. The snapshot's GC deletes every superseded
// segment and snapshot, which under disk pressure is the space that lets
// the retried append through.
func (s *Server) compactLocked() error {
	gen, err := s.wal.Rotate()
	if err != nil {
		return err
	}
	return s.wal.WriteSnapshot(gen, s.cat.Snapshot())
}
