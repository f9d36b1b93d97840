package main

// perLayerMetric is one metric of the traced run. Every workload
// reports every one; a layer that does no work on a workload reads 0.
type perLayerMetric struct{ name, unit string }

// perLayerMetrics lists them in BENCHMARK.json order: the ledger's
// self times, the counts read from the program, the timings of the
// traced run's untraced baseline repetition, and the benchmark's own
// validity numbers.
var perLayerMetrics = func() []perLayerMetric {
	var m []perLayerMetric
	for _, b := range ledgerBuckets {
		m = append(m, perLayerMetric{selfMetric(b), "s"})
	}
	return append(m, []perLayerMetric{
		{"ledger.cpu_s", "s"},
		{"ledger.covered_frac", "ratio"},
		{"sim.engine.events", "count"},
		{"sim.medium.uplinks", "count"},
		{"sim.medium.decoded_frac", "ratio"},
		{"sim.medium.ns_per_uplink", "ns"},
		{"sim.lanes.count", "count"},
		{"sim.lanes.busy_frac", "ratio"},
		{"sim.node_days_per_s", "node-days/s"},
		{"mac.decisions", "count"},
		{"mac.drop_frac", "ratio"},
		{"mac.table_hit_frac", "ratio"},
		{"netserver.packets", "count"},
		{"netserver.reports", "count"},
		{"netserver.recomputes", "count"},
		{"lns.ingest_busy_s", "s"},
		{"lns.recompute_ms", "ms"},
		{"lns.queue_depth_max", "count"},
		{"lns.refused_frac", "ratio"},
		{"lns.ingest_p50_ms", "ms"},
		{"lns.ingest_p99_ms", "ms"},
		{"lns.ingest_max_ups", "uplinks/s"},
		{"lns.wu_publish_p50_ms", "ms"},
		{"lns.wu_publish_p90_ms", "ms"},
		{"runner.busy_frac", "ratio"},
		{"figs.sweep_s", "s"},
		{"figs.faults_s", "s"},
		{"figs.fig9_s", "s"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.alloc_mb", "MB"},
		{"obs.overhead_frac", "ratio"},
		{"loadgen.late_p99_ms", "ms"},
	}...)
}()

var perLayerUnits = func() map[string]string {
	m := map[string]string{}
	for _, pm := range perLayerMetrics {
		m[pm.name] = pm.unit
	}
	return m
}()
