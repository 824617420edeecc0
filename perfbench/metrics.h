// Every metric the benchmark prints, with its unit. An untraced run
// prints kEndToEnd; a traced run prints kLayers. BENCHMARK.json lists
// the same names and units (perfbench/run.py checks that they agree),
// and README.md in this directory says what each one means on each
// workload and which end-to-end metric a layer metric should move.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"p50_ms", "ms"},
    {"batch_s", "s"},
    {"quality", "1"},
};

/// Per-layer metrics. A layer a workload does not exercise reports 0.
inline constexpr MetricSpec kLayers[] = {
    // Whole run.
    {"stage_coverage", "1"},
    {"fail_frac", "1"},
    {"overhead.setup_s", "s"},
    {"overhead.peak_rss_mb", "MiB"},
    {"overhead.p50_ms", "ms"},
    {"overhead.batch_s", "s"},
    {"overhead.quality", "1"},
    // Self time and span count of every layer in the traced run.
    {"gp.self_s", "s"},
    {"gp.spans", "count"},
    {"eval.self_s", "s"},
    {"eval.spans", "count"},
    {"io.self_s", "s"},
    {"io.spans", "count"},
    {"api.self_s", "s"},
    {"api.spans", "count"},
    {"matcher.self_s", "s"},
    {"matcher.spans", "count"},
    {"serve.self_s", "s"},
    {"serve.spans", "count"},
    {"live.self_s", "s"},
    {"live.spans", "count"},
    {"loadgen.self_s", "s"},
    {"loadgen.spans", "count"},
    // gp / eval (learn_link).
    {"gp.learn_s", "s"},
    {"gp.generation_s.p50", "s"},
    {"gp.generation_s.max", "s"},
    {"gp.breed_s", "s"},
    {"gp.learn_val_f1", "1"},
    {"eval.evaluate_batch_s", "s"},
    {"eval.rules_evaluated", "count"},
    {"eval.fitness_hit_rate", "1"},
    {"eval.distance_row_hit_rate", "1"},
    {"eval.distance_rows_computed", "count"},
    {"eval.value_plans_compiled", "count"},
    {"eval.values_interned", "count"},
    // io / api / matcher, batch side (learn_link).
    {"io.csv_decode_s", "s"},
    {"io.links_encode_s", "s"},
    {"api.build_s", "s"},
    {"api.store_bytes", "B"},
    {"matcher.blocking_postings", "count"},
    {"matcher.join_s", "s"},
    {"matcher.probe_s", "s"},
    {"matcher.candidates", "count"},
    {"matcher.link_yield", "1"},
    {"matcher.pairs_completeness", "1"},
    {"matcher.link_f1", "1"},
    // Request path, replayed in-process (serve, live_mixed).
    {"serve.http_parse_us.p50", "us"},
    {"serve.http_parse_us.p99", "us"},
    {"io.csv_decode_us.p50", "us"},
    {"io.csv_decode_us.p99", "us"},
    {"serve.snapshot_us.p50", "us"},
    {"serve.snapshot_us.p99", "us"},
    {"api.match_us.p50", "us"},
    {"api.match_us.p99", "us"},
    {"matcher.probe_us.p50", "us"},
    {"matcher.probe_us.p99", "us"},
    {"api.score_us.p50", "us"},
    {"api.score_us.p99", "us"},
    {"serve.encode_us.p50", "us"},
    {"serve.encode_us.p99", "us"},
    {"matcher.candidates_per_query", "count"},
    {"api.links_per_query", "count"},
    {"serve.transport_queue_us", "us"},
    {"serve.shed", "count"},
    {"serve.deadline_hits", "count"},
    {"serve.max_rps", "req/s"},
    {"serve.match_p95_ms", "ms"},
    {"serve.match_p99_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    // live (live_mixed).
    {"live.match_us.p50", "us"},
    {"live.match_us.p99", "us"},
    {"live.read_overhead", "1"},
    {"live.write_p50_ms", "ms"},
    {"live.write_p99_ms", "ms"},
    {"live.apply_batch_us.p50", "us"},
    {"live.apply_batch_us.p99", "us"},
    {"live.compact_s", "s"},
    {"live.compactions", "count"},
    {"live.epochs", "count"},
    {"live.delta_entities", "count"},
    {"live.tombstones", "count"},
    {"live.delta_store_bytes", "B"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
