// In-memory span recorder for the traced run. Every span wraps a call
// the benchmark makes into one layer's public functions; the layer is
// the span name up to its first '.' ("gp.learn" -> "gp"). Spans are
// kept in memory while the workload runs and written out once at the
// end (WriteJsonLines), so recording costs two clock reads and one
// vector append.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the span that caused this one; -1 for a root.
  int64_t parent = -1;
  /// Spans of one request share an id; 0 = not request-scoped.
  uint64_t request = 0;

  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// The layer a span belongs to: its name up to the first '.'.
std::string LayerOf(const std::string& span_name);

/// Self time of every span, in seconds: its duration minus the part of
/// its interval covered by its children (overlapping children counted
/// once, parts outside the parent ignored).
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Per-layer totals over a set of spans.
struct LayerTotals {
  size_t spans = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, LayerTotals> TotalsByLayer(const std::vector<Span>& spans);

/// Stage coverage of one root span: the summed self time of its
/// descendants (the layer spans under it) over the root's duration.
/// 1.0 means the layer spans account for the whole end-to-end time.
double Coverage(const std::vector<Span>& spans, int64_t root);

/// Thread-safe span recorder. When disabled, Begin returns -1 and
/// nothing is kept.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; End closes it. Returns -1 when disabled.
  int64_t Begin(std::string name, int64_t parent = -1, uint64_t request = 0);
  void End(int64_t id);
  /// Records a span whose interval was measured elsewhere (e.g. from
  /// callback timestamps). Returns -1 when disabled.
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent = -1, uint64_t request = 0);

  /// Copy of every span recorded so far.
  std::vector<Span> Spans() const;

  /// Writes one JSON object per span to `path`. False on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span over one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int64_t parent = -1,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
