package main

// metric names one reported figure. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatches keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd are the figures a user of WiClean sees, reported by untraced
// runs. Every workload reports all of them. An operation is one /suggest
// request on suggest-zipf and one pipeline pass on the other workloads.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
}

// perLayer is the traced run's ledger: work, busy time and allocation per
// layer, named after the modules. A layer a workload does not enter
// reports 0.
var perLayer = []metric{
	{name: "ledger.wall_s", unit: "s", better: "lower"},
	{name: "ledger.rows_s", unit: "s", better: "lower"},
	{name: "ledger.gap_share", unit: "ratio", better: "lower"},

	{name: "dump.ingest_s", unit: "s", better: "lower"},
	{name: "dump.revisions", unit: "count", better: "lower"},
	{name: "dump.actions", unit: "count", better: "lower"},
	{name: "dump.alloc_mb", unit: "MB", better: "lower"},

	{name: "windows.run_s", unit: "s", better: "lower"},
	{name: "windows.steps", unit: "count", better: "lower"},
	{name: "windows.jobs", unit: "count", better: "lower"},
	{name: "windows.merge_s", unit: "s", better: "lower"},

	{name: "mining.window_busy_s", unit: "s", better: "lower"},
	{name: "mining.candidates", unit: "count", better: "lower"},
	{name: "mining.frequent", unit: "count", better: "higher"},
	{name: "mining.admit_ratio", unit: "ratio", better: "higher"},
	{name: "mining.alloc_mb", unit: "MB", better: "lower"},
	{name: "mining.allocs", unit: "count", better: "lower"},
	{name: "mining.gc_cycles", unit: "count", better: "lower"},
	{name: "mining.gc_pause_ms", unit: "ms", better: "lower"},

	{name: "relational.joins", unit: "count", better: "lower"},
	{name: "relational.comparisons", unit: "count", better: "lower"},
	{name: "relational.rows_out", unit: "count", better: "lower"},
	{name: "relational.nested_loop_share", unit: "ratio", better: "lower"},
	{name: "relational.arena_reuse_ratio", unit: "ratio", better: "higher"},

	{name: "store.fetches", unit: "count", better: "lower"},
	{name: "store.fetch_busy_s", unit: "s", better: "lower"},
	{name: "store.actions_returned", unit: "count", better: "lower"},

	{name: "coord.dispatches", unit: "count", better: "lower"},
	{name: "coord.redispatches", unit: "count", better: "lower"},
	{name: "coord.dispatch_busy_s", unit: "s", better: "lower"},
	{name: "coord.worker_busy_s", unit: "s", better: "lower"},
	{name: "coord.wire_overhead_s", unit: "s", better: "lower"},
	{name: "coord.req_bytes", unit: "bytes", better: "lower"},
	{name: "coord.resp_bytes", unit: "bytes", better: "lower"},

	{name: "detect.s", unit: "s", better: "lower"},
	{name: "detect.tasks", unit: "count", better: "lower"},
	{name: "detect.partials", unit: "count", better: "higher"},
	{name: "detect.alloc_mb", unit: "MB", better: "lower"},
	{name: "detect.rows_scanned", unit: "count", better: "lower"},

	{name: "periodic.s", unit: "s", better: "lower"},
	{name: "periodic.patterns", unit: "count", better: "higher"},

	{name: "model.save_s", unit: "s", better: "lower"},
	{name: "model.load_s", unit: "s", better: "lower"},
	{name: "model.bytes", unit: "bytes", better: "lower"},

	{name: "plugin.build_s", unit: "s", better: "lower"},
	{name: "plugin.cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "plugin.coalesced", unit: "count", better: "higher"},
	{name: "plugin.non_200", unit: "count", better: "lower"},
	{name: "plugin.p50_ms", unit: "ms", better: "lower"},
	{name: "plugin.p99_ms", unit: "ms", better: "lower"},

	{name: "assist.suggest_p50_ms", unit: "ms", better: "lower"},
	{name: "assist.suggest_p99_ms", unit: "ms", better: "lower"},
	{name: "assist.candidates_per_call", unit: "count", better: "lower"},

	{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},

	{name: "gen.lag_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.open.p50_ms", unit: "ms", better: "lower"},
	{name: "gen.open.p99_ms", unit: "ms", better: "lower"},
	{name: "gen.closed.p99_ms", unit: "ms", better: "lower"},
	{name: "gen.closed.sent", unit: "count", better: "higher"},
	{name: "gen.closed.ok", unit: "count", better: "higher"},
	{name: "gen.closed.failed", unit: "count", better: "lower"},
	{name: "gen.open.sent", unit: "count", better: "higher"},
	{name: "gen.open.ok", unit: "count", better: "higher"},
	{name: "gen.open.failed", unit: "count", better: "lower"},

	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}
