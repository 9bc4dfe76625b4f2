package main

// metric is one reported figure: its name in the output object and its
// unit. The lists below are the benchmark's whole vocabulary; the
// names must match the end_to_end and per_layer entries of
// BENCHMARK.json (TestMetricNamesMatchBenchmarkJSON).
type metric struct{ name, unit string }

// endToEnd is what an untraced run reports on every workload. An
// "operation" is one sweep on grid-cold and ring-flood and one HTTP
// request on serve-mix.
var endToEnd = []metric{
	{"setup_s", "s"},      // median of the workload's set-ups in this run
	{"peak_rss_mb", "MB"}, // VmHWM of the benchmark process
	{"p50_ms", "ms"},      // median operation latency
	{"rate_per_s", "1/s"}, // scenarios per second of sweep time; closed-loop requests per second on serve-mix
}

// perLayer is what a traced run reports on every workload; a layer the
// workload does not exercise reads 0. Times and work counts are per
// operation so that a faster layer does not read as more work; counts
// of operations, ratios and percentiles are as named.
var perLayer = []metric{
	{"sim.run_s", "s"},
	{"sim.run_s.rbroadcast", "s"},
	{"sim.run_s.rotor", "s"},
	{"sim.run_s.consensus", "s"},
	{"sim.run_s.approx", "s"},
	{"sim.run_s.parallel", "s"},
	{"sim.run_s.dynamic", "s"},
	{"sim.run_s.ring", "s"},
	{"sim.rounds", "count"},
	{"sim.msgs", "count"},
	{"sim.msgs_per_s", "1/s"},

	{"engine.build_s", "s"},
	{"engine.computed", "count"},
	{"engine.cached", "count"},
	{"engine.aggregate_s", "s"},
	{"engine.digest_us", "us"},
	{"engine.canonical_s", "s"},

	{"store.open_s", "s"},
	{"store.gets", "count"},
	{"store.get_s", "s"},
	{"store.hit_ratio", "ratio"},
	{"store.hot_hit_ratio", "ratio"},
	{"store.appends", "count"},
	{"store.append_s", "s"},
	{"store.puts", "count"},
	{"store.records_per_append", "count"},
	{"store.coalesced", "count"},
	{"store.log_bytes", "bytes"},
	{"store.warm_sweep_s", "s"},

	{"service.requests", "count"},
	{"service.request_s", "s"},
	{"service.sweep_s", "s"},
	{"service.self_s", "s"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"service.dup_recompute_ratio", "ratio"},

	{"request.hot_p50_ms", "ms"},
	{"request.dup_p50_ms", "ms"},
	{"request.cold_p50_ms", "ms"},
	{"request.p90_ms", "ms"},
	{"request.p99_ms", "ms"},
	{"request.samples", "count"},

	{"gen.attempted", "count"},
	{"gen.lag_p99_ms", "ms"},

	{"span.self_s.client", "s"},
	{"span.self_s.service", "s"},
	{"span.self_s.store", "s"},
	{"span.self_s.engine", "s"},
	{"span.self_s.sim", "s"},

	{"trace.overhead_ratio", "ratio"},
}
