#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1,
                            std::max<size_t>(n, 1));
}

bool PercentileSupported(size_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= kMinSamplesBeyond;
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (!PercentileSupported(samples.size(), p)) return std::nullopt;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double LowerQuartile(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = 0.25 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

bool BacklogGrowing(const std::vector<double>& latency_ms_in_due_order) {
  const size_t n = latency_ms_in_due_order.size();
  if (n < 8) return false;
  const size_t quarter = n / 4;
  std::vector<double> first(latency_ms_in_due_order.begin(),
                            latency_ms_in_due_order.begin() + quarter);
  std::vector<double> last(latency_ms_in_due_order.end() - quarter,
                           latency_ms_in_due_order.end());
  return Median(std::move(last)) > 2.0 * Median(std::move(first)) + 1.0;
}

std::optional<double> StepP99(const RateStep& step) {
  std::vector<double> all = step.latency_ms;
  all.insert(all.end(), step.failed,
             std::numeric_limits<double>::infinity());
  return Percentile(std::move(all), 99.0);
}

bool StepMeetsLimit(const RateStep& step, double p99_limit_ms) {
  if (step.failed > 0) return false;
  const std::optional<double> p99 = StepP99(step);
  return p99.has_value() && *p99 <= p99_limit_ms &&
         !BacklogGrowing(step.latency_ms);
}

double MaxRate(const std::vector<RateStep>& ascending_steps,
               double p99_limit_ms) {
  double best = 0.0;
  for (const RateStep& step : ascending_steps) {
    if (!StepMeetsLimit(step, p99_limit_ms)) break;
    best = step.rate;
  }
  return best;
}

}  // namespace perfbench
