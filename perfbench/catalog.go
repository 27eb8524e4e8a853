package main

// endToEnd lists the metrics the untraced run reports: the cost of each
// operation and of holding the data. BENCHMARK.json must list the same
// names and units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"point_ref_ms", "ms"},
	{"scan_ref_ms", "ms"},
	{"sum_ref_ms", "ms"},
	{"append_ref_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"db_bytes_per_xml_byte", "B/B"},
}

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workload that shows it.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

const (
	allReads    = "point_ref_ms, scan_ref_ms, sum_ref_ms"
	smallBoth   = "local-small, remote-small"
	remoteSmall = "remote-small; no change on local-small"
	everyOp     = "every *_ref_ms"
	// The fsync wait is not CPU time; it shows in the append latency of
	// the run record.
	appendWait = "wall_ms.append_p50 (run record)"
)

// perLayer is every per-layer metric, grouped by the module it measures.
var perLayer = func() []layerMetric {
	ms := []layerMetric{
		// engine and the client side of filter/secshare/prg/ring/gf
		{"engine.self_ms_per_op", "ms", "lower", "point_ref_ms, sum_ref_ms", smallBoth},
		{"engine.self_ms_per_op.point", "ms", "lower", "point_ref_ms", smallBoth},
		{"engine.self_ms_per_op.scan", "ms", "lower", "scan_ref_ms", smallBoth},
		{"engine.self_ms_per_op.sum", "ms", "lower", "sum_ref_ms", smallBoth},
		{"engine.nodes_visited_per_op", "count", "lower", "point_ref_ms, sum_ref_ms", smallBoth},
		{"engine.nodes_fetched_per_op", "count", "lower", "point_ref_ms, sum_ref_ms", smallBoth},
		{"filter.evaluations_per_op", "count", "lower", "point_ref_ms, scan_ref_ms", smallBoth},
		{"filter.reconstructions_per_op", "count", "lower", "point_ref_ms, sum_ref_ms", smallBoth},
		{"filter.client_decodes_per_op", "count", "lower", "point_ref_ms, sum_ref_ms", smallBoth},
		{"filter.folds_per_op", "count", "lower", "sum_ref_ms", smallBoth},
		// rmi
		{"rmi.frames_per_op", "count", "lower", allReads, remoteSmall},
		{"rmi.frames_per_op.point", "count", "lower", "point_ref_ms", remoteSmall},
		{"rmi.frames_per_op.scan", "count", "lower", "scan_ref_ms", remoteSmall},
		{"rmi.frames_per_op.sum", "count", "lower", "sum_ref_ms", remoteSmall},
		{"rmi.frame_ms_per_op", "ms", "lower", allReads, remoteSmall},
		{"rmi.frame_ms_per_op.point", "ms", "lower", "point_ref_ms", remoteSmall},
		{"rmi.frame_ms_per_op.scan", "ms", "lower", "scan_ref_ms", remoteSmall},
		{"rmi.frame_ms_per_op.sum", "ms", "lower", "sum_ref_ms", remoteSmall},
		{"rmi.wire_ms_per_op", "ms", "lower", allReads, remoteSmall},
		{"rmi.request_kb_per_op", "KB", "lower", allReads, remoteSmall},
		{"rmi.reply_kb_per_op", "KB", "lower", allReads, remoteSmall},
		// server runtime
		{"server.handler_ms_per_op", "ms", "lower", "scan_ref_ms, sum_ref_ms", remoteSmall},
	}
	for _, m := range serverMethods {
		moves, on := "scan_ref_ms, sum_ref_ms", remoteSmall
		if writeMethods[m] {
			moves, on = "append_ref_ms", "remote-small"
		}
		ms = append(ms,
			layerMetric{"server.handler_ms_per_op." + m, "ms", "lower", moves, on},
			layerMetric{"server.calls_per_op." + m, "count", "lower", moves, on})
	}
	ms = append(ms, []layerMetric{
		// server side of filter
		{"filter.server_evals_per_op", "count", "lower", "sum_ref_ms", remoteSmall},
		{"filter.cache_hit_ratio", "ratio", "higher", "sum_ref_ms, live_heap_mb", "remote-small (each append purges the cache)"},
		{"filter.server_decodes_per_op", "count", "lower", "sum_ref_ms", remoteSmall},
		{"filter.aggregates_per_op", "count", "lower", "sum_ref_ms", remoteSmall},
		// store
		{"store.pool_hit_ratio", "ratio", "higher", "sum_ref_ms", remoteSmall},
		{"store.pool_misses_per_op", "count", "lower", "sum_ref_ms", remoteSmall},
		{"store.pool_evictions_per_op", "count", "lower", "sum_ref_ms", "remote-small; 0 while the document fits the pool"},
		{"store.pool_resident_pages", "count", "lower", "live_heap_mb", remoteSmall},
		// wal and the append path
		{"wal.appends_per_append", "count", "lower", "append_ref_ms", "remote-small; 0 on local-small"},
		{"wal.syncs_per_append", "count", "lower", "append_ref_ms", "remote-small; 0 on local-small"},
		{"wal.fsync_ms_mean", "ms", "lower", appendWait, "remote-small; 0 on local-small"},
		{"append.frames_per_append", "count", "lower", "append_ref_ms", "remote-small"},
		{"append.handler_ms_per_append", "ms", "lower", "append_ref_ms", "remote-small"},
		{"append.wal_fsync_ms_per_append", "ms", "lower", appendWait, "remote-small"},
		{"append.client_ms_per_append", "ms", "lower", "append_ref_ms", "local-small, remote-small"},
		// Go runtime (client and server share the process)
		{"go.allocs_per_op", "count", "lower", everyOp, "all"},
		{"go.alloc_kb_per_op", "KB", "lower", everyOp, "all"},
		{"go.gc_cycles_per_op", "count", "lower", everyOp, "all"},
		// CPU profile of the traced run, samples by innermost layer on the stack
		{"cpu.ring_frac", "frac", "lower", "point_ref_ms, sum_ref_ms", smallBoth},
		{"cpu.gf_frac", "frac", "lower", "point_ref_ms, sum_ref_ms", smallBoth},
		{"cpu.prg_frac", "frac", "lower", "point_ref_ms, sum_ref_ms", smallBoth},
		{"cpu.secshare_frac", "frac", "lower", "point_ref_ms, sum_ref_ms", smallBoth},
		{"cpu.filter_frac", "frac", "lower", allReads, "all"},
		{"cpu.engine_frac", "frac", "lower", allReads, smallBoth},
		{"cpu.rmi_frac", "frac", "lower", allReads, remoteSmall},
		{"cpu.gob_frac", "frac", "lower", allReads, remoteSmall},
		{"cpu.store_frac", "frac", "lower", "sum_ref_ms", remoteSmall},
		{"cpu.wal_frac", "frac", "lower", "append_ref_ms", "remote-small"},
		{"cpu.gc_frac", "frac", "lower", everyOp, "all"},
		{"cpu.other_frac", "frac", "lower", "-", "all"},
		// the benchmark itself
		{"trace.overhead_frac", "frac", "lower", "-", "all"},
		{"trace.bracket_ms_per_op", "ms", "lower", "-", "remote-small"},
		{"budget.residual_frac", "frac", "lower", "-", "all"},
		{"bench.failed_frac", "frac", "lower", "-", "all"},
	}...)
	return ms
}()
