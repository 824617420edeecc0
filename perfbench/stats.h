// The benchmark's own arithmetic: percentiles with an explicit
// sample-support rule, medians, and the open-loop rate-ladder search.
// perfbench/selftest.cc covers every function here.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// above it; otherwise the tail it claims to describe is one or two
/// outliers.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank index (1-based) of the p-th percentile (0 < p <= 100)
/// among n samples: ceil(p/100 * n), at least 1.
size_t NearestRank(size_t n, double p);

/// True when the p-th percentile of n samples has at least
/// kMinSamplesBeyond samples above its rank.
bool PercentileSupported(size_t n, double p);

/// The p-th percentile by nearest rank, or nullopt when the sample does
/// not support it (see PercentileSupported). `samples` is copied and
/// sorted.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// The median (mean of the two middle values for even n); 0 for an
/// empty sample.
double Median(std::vector<double> samples);

/// The lower quartile (linear interpolation between order statistics
/// at rank (n-1)/4) of repeated measurements of one quantity; 0 for an
/// empty sample. Interference from a shared host only ever adds time,
/// so the lower quartile of several rounds estimates the undisturbed
/// figure, where the median moves as soon as half the rounds are hit.
/// A change that slows every round moves it in full.
double LowerQuartile(std::vector<double> samples);

/// One fixed-rate step of the open-loop ladder.
struct RateStep {
  double rate = 0.0;  // requests per second offered
  size_t sent = 0;
  size_t ok = 0;      // 200 with the expected body
  size_t failed = 0;  // everything else, including transport errors
  /// Latency of every answered request, in ms, in due order; failures
  /// are absent here and counted in `failed`.
  std::vector<double> latency_ms;
};

/// A step shows a growing backlog when the requests due in its last
/// quarter waited clearly longer than those due in its first quarter:
/// p50(last) > 2 * p50(first) + 1 ms. A steady queue keeps the two
/// alike; a queue that grows without bound makes the last quarter wait
/// for everything before it.
bool BacklogGrowing(const std::vector<double>& latency_ms_in_due_order);

/// The latency a step reports against the limit: its p99, with every
/// failed request counted as infinitely late. nullopt when the step
/// sent too few requests to support a p99.
std::optional<double> StepP99(const RateStep& step);

/// True when the step meets the limit: no failure, a supported p99 at
/// or below `p99_limit_ms`, and no growing backlog.
bool StepMeetsLimit(const RateStep& step, double p99_limit_ms);

/// The highest rate of an ascending ladder such that it and every
/// lower step meet the limit; 0 when the first step already fails.
double MaxRate(const std::vector<RateStep>& ascending_steps,
               double p99_limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
