// Self-tests of the benchmark's own arithmetic (stats.h, trace.h):
// percentile support, the rate-ladder search with backlog detection,
// and self time from nested spans. Exits non-zero on the first failed
// check. Run: python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED (line %d): %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void TestPercentiles() {
  using perfbench::NearestRank;
  using perfbench::Percentile;
  using perfbench::PercentileSupported;
  CHECK(NearestRank(100, 50) == 50);
  CHECK(NearestRank(1000, 99) == 990);
  CHECK(NearestRank(7, 1) == 1);
  // p50 of 20 samples: rank 10, exactly ten beyond it.
  CHECK(PercentileSupported(20, 50));
  CHECK(!PercentileSupported(19, 50));
  CHECK(Near(*Percentile(Iota(20), 50), 10.0));
  // p99 needs 1000 samples: rank 990 leaves ten above.
  CHECK(PercentileSupported(1000, 99));
  CHECK(!PercentileSupported(999, 99));
  CHECK(!Percentile(Iota(999), 99).has_value());
  CHECK(Near(*Percentile(Iota(1000), 99), 990.0));
  // Input order does not matter.
  std::vector<double> shuffled = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10,
                                  15, 13, 19, 11, 17, 12, 18, 14, 16, 20};
  CHECK(Near(*Percentile(shuffled, 50), 10.0));
  CHECK(!Percentile({}, 50).has_value());
  CHECK(Near(perfbench::Median({3, 1, 2}), 2.0));
  CHECK(Near(perfbench::Median({4, 1, 3, 2}), 2.5));
  CHECK(Near(perfbench::Median({}), 0.0));
  CHECK(Near(perfbench::LowerQuartile({5, 1, 4, 2, 3}), 2.0));
  CHECK(Near(perfbench::LowerQuartile({4, 1, 3, 2}), 1.75));
  CHECK(Near(perfbench::LowerQuartile({7}), 7.0));
  CHECK(Near(perfbench::LowerQuartile({}), 0.0));
}

perfbench::RateStep Step(double rate, size_t n, double base_ms,
                         double growth_ms_per_request) {
  perfbench::RateStep step;
  step.rate = rate;
  step.sent = n;
  step.ok = n;
  for (size_t i = 0; i < n; ++i) {
    step.latency_ms.push_back(base_ms +
                              growth_ms_per_request * static_cast<double>(i));
  }
  return step;
}

void TestRateSearch() {
  using perfbench::BacklogGrowing;
  using perfbench::MaxRate;
  using perfbench::StepMeetsLimit;
  // Flat latency: no backlog. Linearly growing latency: backlog.
  CHECK(!BacklogGrowing(std::vector<double>(1000, 1.0)));
  CHECK(BacklogGrowing(Step(1, 1000, 1.0, 0.05).latency_ms));
  CHECK(!BacklogGrowing({1, 50, 2}));  // too short to judge

  const double limit = 20.0;
  std::vector<perfbench::RateStep> ladder = {
      Step(100, 1000, 1.0, 0.0), Step(200, 1000, 2.0, 0.0),
      Step(400, 1000, 5.0, 0.0), Step(800, 1000, 1.0, 0.1)};
  CHECK(StepMeetsLimit(ladder[0], limit));
  CHECK(!StepMeetsLimit(ladder[3], limit));  // p99 ~ 100 ms, growing
  CHECK(Near(MaxRate(ladder, limit), 400.0));

  // A step over the limit stops the search even if a later one passes.
  ladder[1].latency_ms.assign(1000, 30.0);
  ladder[3] = Step(800, 1000, 1.0, 0.0);
  CHECK(Near(MaxRate(ladder, limit), 100.0));

  // One failed request fails the step and counts as infinitely late.
  perfbench::RateStep failing = Step(100, 1000, 1.0, 0.0);
  failing.failed = 1;
  CHECK(!StepMeetsLimit(failing, limit));
  failing.latency_ms.resize(994);
  failing.failed = 6;
  CHECK(std::isinf(*perfbench::StepP99(failing)) == false);
  failing.failed = 11;
  CHECK(std::isinf(*perfbench::StepP99(failing)));

  // Too few samples for a p99: the step cannot meet the limit.
  CHECK(!StepMeetsLimit(Step(100, 500, 1.0, 0.0), limit));
  CHECK(Near(MaxRate({}, limit), 0.0));
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100] with children a [10,40] and b [30,60] (overlapping)
  // and c [90,120] (sticking out); a has child a1 [15,25].
  std::vector<Span> spans = {
      {"learn.root", 0, 100, -1, 0},   {"gp.a", 10, 40, 0, 0},
      {"eval.b", 30, 60, 0, 0},        {"io.c", 90, 120, 0, 0},
      {"gp.a1", 15, 25, 1, 0},
  };
  const std::vector<double> self = perfbench::SelfSeconds(spans);
  // root covered by [10,60] and [90,100] = 60 ns -> 40 ns self.
  CHECK(Near(self[0], 40e-9));
  CHECK(Near(self[1], 20e-9));
  CHECK(Near(self[2], 30e-9));
  CHECK(Near(self[3], 30e-9));
  CHECK(Near(self[4], 10e-9));

  const auto totals = perfbench::TotalsByLayer(spans);
  CHECK(totals.at("gp").spans == 2);
  CHECK(Near(totals.at("gp").self_s, 30e-9));
  CHECK(Near(totals.at("gp").total_s, 40e-9));
  CHECK(perfbench::LayerOf("matcher.probe_us") == "matcher");
  CHECK(perfbench::LayerOf("loadgen") == "loadgen");

  // Descendants' self time over root duration: a, b, a1 inside; c's
  // self time counts in full (it is the root's child), 20+30+30+10=90.
  CHECK(Near(perfbench::Coverage(spans, 0), 0.9));
  CHECK(Near(perfbench::Coverage(spans, 7), 0.0));

  perfbench::Tracer off(false);
  CHECK(off.Begin("gp.x") == -1);
  CHECK(off.Spans().empty());
  perfbench::Tracer on(true);
  {
    perfbench::ScopedSpan outer(on, "gp.outer");
    perfbench::ScopedSpan inner(on, "eval.inner", outer.id(), 7);
  }
  const std::vector<Span> recorded = on.Spans();
  CHECK(recorded.size() == 2);
  CHECK(recorded[1].parent == 0 && recorded[1].request == 7);
  CHECK(recorded[0].end_ns >= recorded[1].end_ns);
}

}  // namespace

int main() {
  TestPercentiles();
  TestRateSearch();
  TestSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
