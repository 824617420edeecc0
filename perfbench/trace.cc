#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Child intervals clipped to the parent, merged, then subtracted.
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) covered_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered_ns += run_hi - run_lo;
    self[i] = static_cast<double>(span.end_ns - span.start_ns - covered_ns) *
              1e-9;
  }
  return self;
}

std::map<std::string, LayerTotals> TotalsByLayer(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& layer = totals[LayerOf(spans[i].name)];
    ++layer.spans;
    layer.total_s += spans[i].Seconds();
    layer.self_s += self[i];
  }
  return totals;
}

double Coverage(const std::vector<Span>& spans, int64_t root) {
  if (root < 0 || static_cast<size_t>(root) >= spans.size()) return 0.0;
  const double duration = spans[static_cast<size_t>(root)].Seconds();
  if (duration <= 0.0) return 0.0;
  const std::vector<double> self = SelfSeconds(spans);
  // Spans are appended after their parents, so one forward pass marks
  // every descendant of `root`.
  std::vector<bool> under(spans.size(), false);
  under[static_cast<size_t>(root)] = true;
  double covered = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < i &&
        under[static_cast<size_t>(parent)]) {
      under[i] = true;
      covered += self[i];
    }
  }
  return covered / duration;
}

int64_t Tracer::Begin(std::string name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Add(std::move(name), now, now, parent, request);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t Tracer::Add(std::string name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
