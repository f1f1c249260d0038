package main

import "time"

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"diagnose_ms", "ms", "lower"},
	{"diagnose_warm_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the metrics every traced run prints, on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"compile.busy_s", "s", "lower"},
	{"compile.calls", "count", "lower"},
	{"vm.bare_s", "s", "lower"},
	{"vm.ticks", "count", "lower"},
	{"sampler.busy_s", "s", "lower"},
	{"sampler.runs", "count", "lower"},
	{"sampler.value_samples", "count", "lower"},
	{"sampler.alloc_mb", "MB", "lower"},
	{"sampler.overhead_x", "x", "lower"},
	{"merge.busy_s", "s", "lower"},
	{"merge.alloc_mb", "MB", "lower"},
	{"analysis.busy_s", "s", "lower"},
	{"analysis.warm_s", "s", "lower"},
	{"analysis.alloc_mb", "MB", "lower"},
	{"analysis.service_s", "s", "lower"},
	{"render.busy_s", "s", "lower"},
	{"histdisc.busy_s", "s", "lower"},
	{"baselines.busy_s", "s", "lower"},
	{"coz.busy_s", "s", "lower"},
	{"profilefmt.encode_s", "s", "lower"},
	{"profilefmt.bytes", "B", "lower"},
	{"store.put_s", "s", "lower"},
	{"store.puts", "count", "lower"},
	{"store.get_s", "s", "lower"},
	{"store.sketch_get_s", "s", "lower"},
	{"store.corpus_s", "s", "lower"},
	{"store.decode_cache_hit_ratio", "ratio", "higher"},
	{"store.sketch_rebuilds", "count", "lower"},
	{"store.dedup_hits", "count", "lower"},
	{"cluster.put_s", "s", "lower"},
	{"cluster.read_s", "s", "lower"},
	{"cluster.corpus_s", "s", "lower"},
	{"cluster.node_errors", "count", "lower"},
	{"cluster.read_repairs", "count", "lower"},
	{"cluster.quorum_failures", "count", "lower"},
	{"service.http_overhead_ms", "ms", "lower"},
	{"service.memo_hit_ratio", "ratio", "higher"},
	{"service.pool_queue_depth_max", "count", "lower"},
	{"service.shed", "count", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// complete returns exactly the declared metrics: values the run measured,
// 0 for the rest.
func complete(specs []metricSpec, got map[string]metric) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{got[s.name].Value, s.unit}
	}
	return out
}

// spanCost measures what recording one span costs, on a scratch tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin("x", "x", 0, 0).end()
	}
	return time.Since(start) / n
}

// traceOverhead estimates the tracing overhead of spans recorded in a timed
// region: their count times the measured per-span cost.
func (r *result) traceOverhead(spans int) {
	r.layer["trace.overhead_s"] = metric{(time.Duration(spans) * spanCost()).Seconds(), "s"}
	r.info["trace.spans"] = metric{float64(spans), "count"}
}
