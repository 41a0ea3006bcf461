package main

// endToEnd lists the end-to-end metrics in BENCHMARK.json order; every
// untraced run reports exactly these.
var endToEnd = []string{
	"setup_s", "updates_per_s", "fresh_p50_ms", "exec_p50_us", "query_p50_us",
	"allocs_per_update", "alloc_kb_per_update", "cpu_ms_per_update", "heap_live_mb",
}

// perLayer lists the per-layer metrics; every traced run reports exactly
// these. A metric whose mechanism a workload does not have reads 0.
var perLayer = []string{
	"source.exec_us",
	"integrator.busy_us", "integrator.wait_us", "integrator.msgs_out",
	"viewmgr.busy_us", "viewmgr.wait_us", "viewmgr.als_out", "viewmgr.updates_per_al",
	"expr.delta_us", "expr.delta_tuples_out", "expr.allocs_per_delta",
	"relation.apply_us", "relation.cow_commit_us", "relation.lookup_ns", "relation.scan_us",
	"merge.busy_us", "merge.wait_us", "merge.msgs_in", "merge.txns_out", "merge.rows_per_txn",
	"merge.time_in_vut_us", "merge.vut_depth_max",
	"warehouse.busy_us", "warehouse.wait_us", "warehouse.tuples_per_txn", "warehouse.read_us",
	"repl.apply_us", "repl.commit_to_apply_us", "repl.epoch_lag_max",
	"wire.encode_us", "wire.decode_us", "wire.bytes_per_update",
	"durable.append_us", "durable.bytes_per_update", "durable.checkpoint_ms", "durable.recover_ms",
	"query.miss_us", "query.hit_us", "query.cache_hit_ratio",
	"runtime.msgs_per_update", "runtime.hop_wait_us",
	"proc.gc_pause_ms", "gen.late_p99_us", "trace.overhead_pct", "trace.unattributed_pct",
	// The two tail latencies the issue listed as end-to-end metrics. Their
	// run-to-run quartile spread (15–35% in calibration) does not fit inside
	// any bound the contract allows, so — as the issue prescribes — they are
	// diagnostics, reported by every run's text output and by the traced
	// run's result line.
	"e2e.fresh_p99_ms", "e2e.query_p99_us",
}

// units gives every metric's unit, as BENCHMARK.json states it.
var units = map[string]string{
	"setup_s": "s", "updates_per_s": "1/s", "fresh_p50_ms": "ms", "e2e.fresh_p99_ms": "ms",
	"exec_p50_us": "us", "query_p50_us": "us", "e2e.query_p99_us": "us",
	"allocs_per_update": "count", "alloc_kb_per_update": "KB", "cpu_ms_per_update": "ms",
	"heap_live_mb": "MB",

	"source.exec_us":     "us",
	"integrator.busy_us": "us", "integrator.wait_us": "us", "integrator.msgs_out": "count",
	"viewmgr.busy_us": "us", "viewmgr.wait_us": "us", "viewmgr.als_out": "count", "viewmgr.updates_per_al": "count",
	"expr.delta_us": "us", "expr.delta_tuples_out": "count", "expr.allocs_per_delta": "count",
	"relation.apply_us": "us", "relation.cow_commit_us": "us", "relation.lookup_ns": "ns", "relation.scan_us": "us",
	"merge.busy_us": "us", "merge.wait_us": "us", "merge.msgs_in": "count", "merge.txns_out": "count",
	"merge.rows_per_txn": "count", "merge.time_in_vut_us": "us", "merge.vut_depth_max": "count",
	"warehouse.busy_us": "us", "warehouse.wait_us": "us", "warehouse.tuples_per_txn": "count", "warehouse.read_us": "us",
	"repl.apply_us": "us", "repl.commit_to_apply_us": "us", "repl.epoch_lag_max": "count",
	"wire.encode_us": "us", "wire.decode_us": "us", "wire.bytes_per_update": "B",
	"durable.append_us": "us", "durable.bytes_per_update": "B", "durable.checkpoint_ms": "ms", "durable.recover_ms": "ms",
	"query.miss_us": "us", "query.hit_us": "us", "query.cache_hit_ratio": "ratio",
	"runtime.msgs_per_update": "count", "runtime.hop_wait_us": "us",
	"proc.gc_pause_ms": "ms", "gen.late_p99_us": "us", "trace.overhead_pct": "%", "trace.unattributed_pct": "%",
}
