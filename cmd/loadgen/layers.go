package main

import (
	"runtime"
	"sort"
)

// layerReport derives the workload's per-layer metrics from three sources:
// the spans of the traced pass (rp), the responses and /metrics deltas of
// the untraced window (win), and the traced client's own samples (tc). The
// kernel and §8 tables are added separately (kernelTables). A layer this
// workload never exercised reports 0.
func layerReport(wl *workload, in *inputs, top *topology, win *window, rp *replayer, tc *client) map[string]float64 {
	l := map[string]float64{}
	// med is the median duration (ms) of the replay spans of one name.
	med := func(name string) float64 { return median(rp.dur[name]) }

	// front is the window's counter delta on the daemon the clients talk
	// to; fleet is the sum over every daemon of the workload.
	front := delta(win.before[top.front], win.after[top.front])
	fleet := scrape{}
	for _, d := range top.all {
		fleet.add(delta(win.before[d], win.after[d]))
	}
	// timerMS is the mean of a obs timer over the window, in ms.
	timerMS := func(s scrape, name string, labels ...string) float64 {
		return 1000 * ratio(s.sum(name+"_sum", labels...), s.sum(name+"_count", labels...))
	}
	queries := float64(win.tally.queries)

	// server
	l["server.overhead_ms"] = median(rp.overheadMS)
	l["server.queue_wait_ms"] = timerMS(front, "server_queue_wait_seconds")
	l["server.rejected"] = front.sum("server_rejected_total")
	l["server.catalog_put_us"] = 1000 * med("Catalog.Put")
	byClass := map[class][]float64{}
	for _, s := range win.samples {
		byClass[s.class] = append(byClass[s.class], s.ms)
	}
	for c := class(0); c < numClasses; c++ {
		l["server.route_p50_ms."+c.route()] = median(byClass[c])
	}

	// relation
	l["relation.parse_table_us_per_row"] = ratio(rp.parseNS/1000, float64(rp.parseRows))
	l["relation.format_table_us_per_row"] = ratio(rp.formatNS/1000, float64(rp.formatRows))
	l["relation.bytes_per_row"] = ratio(float64(win.tally.tableBytes), float64(win.tally.tableRows))

	// query: plan preparation
	l["query.parse_us"] = 1000 * med("query.Parse")
	l["query.optimize_us"] = 1000 * med("query.Optimize")
	l["query.cache_lookup_us"] = 1000 * med("PlanCache.Lookup")
	hits, misses := front.sum("query_plan_cache_hits_total"), front.sum("query_plan_cache_misses_total")
	l["query.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["query.cache_invalidations"] = front.sum("query_plan_cache_invalidations_total")
	l["query.cache_evictions"] = front.sum("query_plan_cache_evictions_total")

	// query: execution
	byMode := map[mode][]float64{}
	for _, s := range win.samples {
		if s.class == classQuery {
			byMode[s.mode] = append(byMode[s.mode], s.ms)
		}
	}
	for m := modeMaterializing; m < modeMachine; m++ {
		l["query.execute_ms."+modeNames[m]] = median(rp.executeMS[m])
		l["query.mode_p50_ms."+modeNames[m]] = median(byMode[m])
		l["query.peak_tuples."+modeNames[m]] = ratio(float64(win.tally.peak[m]), float64(win.tally.perMode[m]))
	}
	l["query.executor_self_ms"] = median(rp.selfMS)
	l["query.word_ops_per_query"] = ratio(float64(win.tally.wordOps), queries)
	l["query.rows_in_per_row_out"] = ratio(float64(win.tally.rowsIn), float64(win.tally.rowsOut))
	for _, op := range nodeOps {
		l["query.op_ms."+op] = timerMS(fleet, "query_node_host_seconds", `node="`+op+`"`)
	}

	// machine (§9) and the tiler under it
	mq := float64(win.tally.machine)
	l["machine.makespan_s"] = ratio(win.tally.makespan, mq)
	l["machine.concurrency"] = ratio(win.tally.concur, mq)
	l["machine.events_per_query"] = ratio(float64(win.tally.events), mq)
	l["machine.host_ms"] = med("query.ExecuteOnMachine")
	// decompose.tiles_per_query comes from the replay (see tracedPass).

	// wal: the scratch log for append time, the daemons' own counters for
	// the rest, the data directories for space.
	l["wal.append_ms"] = med("wal.AppendPutKeyed")
	l["wal.fsync_ms"] = timerMS(fleet, "wal_fsync_seconds")
	l["wal.fsyncs_per_mutation"] = ratio(fleet.sum("wal_fsync_seconds_count"), fleet.sum("wal_appends_total"))
	l["wal.bytes_per_user_byte"] = ratio(fleet.sum("wal_append_bytes_total"), float64(win.tally.putBytes))
	l["wal.disk_bytes_per_live_byte"] = ratio(float64(win.diskBytes), float64(win.liveBytes))
	l["wal.snapshots"] = fleet.sum("wal_snapshots_total")
	l["wal.snapshot_ms"] = timerMS(fleet, "wal_snapshot_seconds")
	// wal.recover_ms and wal.recovered_records are read after the crash step.

	// cluster: the coordinator's own counters, and the direct shard calls
	// of the traced pass.
	cq := front.sum("server_queries_total")
	l["cluster.partition_us_per_row"] = ratio(rp.partNS/1000, float64(rp.partRows))
	l["cluster.shard_query_ms"] = med("ShardClient.Query")
	l["cluster.coord_overhead_ms"] = median(rp.coordMS)
	l["cluster.scatter_ms"] = timerMS(front, "cluster_scatter_seconds")
	if len(top.primaries) > 0 {
		l["cluster.subqueries_per_query"] = ratio(front.sum("cluster_subqueries_total"), cq)
		l["cluster.broadcast_rows_per_query"] = ratio(front.sum("cluster_broadcast_rows_total"), cq)
		l["cluster.shuffle_rows_per_query"] = ratio(front.sum("cluster_shuffle_rows_total"), cq)
		l["cluster.gather_rows_per_query"] = ratio(front.sum("cluster_gather_rows_total"), cq)
		l["cluster.gather_dedup_skipped_ratio"] = ratio(front.sum("cluster_gather_dedup_skipped_total"), cq)
	}
	l["cluster.shard_put_ms"] = med("ShardClient.PutKeyed")
	l["cluster.dual_write_overhead_ms"] = median(rp.dualMS)
	l["cluster.shard_failures"] = front.sum("cluster_shard_failures_total")
	l["cluster.hedged"] = front.sum("cluster_hedged_requests_total")
	l["cluster.breaker_denials"] = front.sum("cluster_breaker_denials_total")
	l["cluster.follow_records"] = fleet.sum("cluster_follow_records_total")

	// loadgen itself: the generator must stay a small share of the machine,
	// and the traced pass's requests should cost what the window's did.
	l["loadgen.client_cpu_share"] = ratio(win.cpu.Seconds(), win.wall.Seconds()*float64(runtime.NumCPU()))
	traced := make([]float64, 0, len(tc.samples))
	for _, s := range tc.samples[:min(len(tc.samples), tracedRequests)] {
		traced = append(traced, s.ms)
	}
	all := make([]float64, len(win.samples))
	for i, s := range win.samples {
		all[i] = s.ms
	}
	sort.Float64s(all)
	l["loadgen.trace_overhead_ratio"] = ratio(median(traced), median(all))
	return l
}
