package main

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same catalog; TestCatalogMatchesBenchmarkJSON pins the two
// together.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator sees, reported with --trace 0
// on every workload. A "job" is a workload's unit of user-visible work:
// one fig3 run (a defection rate's population, runner and rounds) or
// one daemon grid job. README.md defines each metric per workload.
var endToEnd = []metricDef{
	{"rounds_per_s", "1/s"},
	{"round_ms_p50", "ms"},
	{"round_ms_tail", "ms"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"job_ms_p50", "ms"},
	{"job_ms_tail", "ms"},
	{"cached_job_ms_p50", "ms"},
	{"cached_job_ms_tail", "ms"},
	{"ttfr_ms_p50", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer is reported with --trace 1. A layer a workload does not
// exercise reports 0 (no work), never a guess.
var perLayer = []metricDef{
	{"sim.events_per_round", "count"},
	{"sim.far_frac", "frac"},
	{"sim.migrated_per_round", "count"},
	{"sim.ns_per_event", "ns"},
	{"network.pushes_per_round", "count"},
	{"network.deliveries_per_round", "count"},
	{"network.dup_frac", "frac"},
	{"network.dropped_per_round", "count"},
	{"network.ns_per_push", "ns"},
	{"protocol.preamble_ms", "ms"},
	{"protocol.steps_ms", "ms"},
	{"protocol.finalize_ms", "ms"},
	{"protocol.handler_ms_derived", "ms"},
	{"protocol.voters_per_round", "count"},
	{"protocol.proposers_per_round", "count"},
	{"protocol.decided_frac", "frac"},
	{"protocol.alloc_bytes_per_round", "bytes"},
	{"sortition.selects_per_round", "count"},
	{"sortition.cache_hit_frac", "frac"},
	{"sortition.ns_per_select", "ns"},
	{"weight.refresh_us_per_round", "us"},
	{"weight.index_updates_per_round", "count"},
	{"ledger.resyncs_per_round", "count"},
	{"ledger.desynced_per_round", "count"},
	{"ledger.clone_view_ns", "ns"},
	{"setup.population_ms", "ms"},
	{"setup.new_runner_ms", "ms"},
	{"setup.first_round_ms", "ms"},
	{"adversary.safety_violations", "count"},
	{"adversary.audit_events_per_job", "count"},
	{"experiments.sink_us_per_row", "us"},
	{"experiments.rows_per_job", "count"},
	{"experiments.wire_bytes_per_row", "bytes"},
	{"runpool.worker_busy_frac", "frac"},
	{"simd.cache_hit_frac", "frac"},
	{"simd.submit_ms", "ms"},
	{"simd.stream_bytes_per_job", "bytes"},
	{"simd.retained_heap_mb_per_job", "MB"},
	{"obs.overhead_frac", "frac"},
}

// zeroLayers seeds a traced report with 0 for every per-layer metric;
// workloads overwrite the layers they exercise.
func zeroLayers(rep *report) {
	for _, m := range perLayer {
		rep.values[m.name] = 0
	}
}
