// Shared pieces of the benchmark program: the run configuration, the
// result of one workload run, the pinned linkage rule, CSV encoding of
// generated datasets, F1 against generated ground truth, and memory
// and clock helpers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "matcher/matcher.h"
#include "model/dataset.h"
#include "model/reference_links.h"
#include "rule/linkage_rule.h"
#include "trace.h"

namespace perfbench {

/// Threads and connections: the daemon's workers plus the load
/// generator's one thread and its connections stay within the 4 cores
/// the benchmark is sized for.
inline constexpr size_t kThreads = 4;

/// Records per side of the synthetic person corpus every workload
/// matches. At this size the matching cost of one /match request is
/// close to the cost of its HTTP and CSV edge, so a gain in either
/// shows.
inline constexpr size_t kPersonEntities = 20000;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Scratch directory inside the checkout for CSV inputs and outputs.
  std::string workdir;
};

/// What one workload run measured. End-to-end metrics are always
/// filled; layer metrics only when the run was traced.
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable failure reasons (printed to stderr).
  std::vector<std::string> errors;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layers;
  /// Input fingerprints, e.g. {"synthetic", FingerprintTask(...)}.
  std::vector<std::pair<std::string, uint64_t>> fingerprints;
  /// Report lines printed before the result (per-workload metric names,
  /// per-rate counts, sample sizes).
  std::vector<std::string> report;

  void Fail(std::string reason) {
    correct = false;
    errors.push_back(std::move(reason));
  }
};

/// Seconds since `start_ns` (NowNs()).
double SecondsSince(int64_t start_ns);

/// Resets the kernel's peak-RSS mark for this process (best effort) so
/// a later PeakRssMb() covers only what ran after the reset.
void ResetPeakRss();
/// Peak resident memory in MiB since the last reset (or process start).
double PeakRssMb();

/// The linkage rule of the link, serve and live_mixed phases. Written
/// here, never learned, so a change to the learner cannot change what
/// those phases cost. It has the shape of a learned rule — three
/// comparisons over transformation chains under a nested max/min
/// aggregation — and reads only `name` and `phone`, whose tokens keep
/// blocking candidate sets small (`address` and `city` tokens are
/// shared by thousands of records).
genlink::LinkageRule PinnedRule();

/// The CSV header line of `schema`: an `id` column, then one column per
/// property.
std::string CsvHeader(const genlink::Schema& schema);

/// One CSV line for `entity`, multi-valued cells joined with
/// `value_separator`. When `ok` is non-null, sets it to false if a value
/// contains the separator (the line would not decode back).
std::string CsvRow(const genlink::Entity& entity, const genlink::Schema& schema,
                   char value_separator = '|', bool* ok = nullptr);

/// Serializes a dataset as CSV (CsvHeader, then a CsvRow per entity).
/// Sets `*ok` to false when a value contains the separator.
std::string DatasetToCsv(const genlink::Dataset& dataset, char value_separator,
                         bool* ok);

/// True when both lists hold the same links (ids and scores) in the
/// same order.
bool SameLinks(const std::vector<genlink::GeneratedLink>& x,
               const std::vector<genlink::GeneratedLink>& y);

/// Writes `content` to `path`; false on failure.
bool WriteFile(const std::string& path, const std::string& content);

/// Links emitted against the ground-truth positives they should find.
struct LinkQuality {
  size_t emitted = 0;
  size_t true_positive = 0;
  size_t expected = 0;
  double F1() const;
};
LinkQuality ScoreLinks(const std::vector<genlink::GeneratedLink>& links,
                       const std::vector<genlink::ReferenceLink>& positives);

/// Adds <layer>.self_s and <layer>.spans for every layer the tracer
/// saw (the benchmark's own "bench" root spans excluded).
void AddLayerTotals(const Tracer& tracer, WorkloadResult& result);

/// "%.6g"-style formatting for report lines.
std::string Fmt(double value);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
