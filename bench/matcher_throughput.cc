// Matcher throughput bench (the full self-join over a data set, the
// `learn --match` scenario): a per-pair operator-tree baseline
// (LinkageRule::Evaluate over the same candidates, in this file) vs
// GenerateLinks, which scores through the value store
// (eval/value_store.h), with token blocking and over the exhaustive
// cross product, at one worker thread.
//
// The rule has a filter plan (matcher/rule_filter.h), which leaves
// about one candidate per record, too few to time a scorer by. The
// token-blocked family therefore scores an unplanned copy of the rule
// (the same comparisons under a weighted mean: the same value plans and
// target properties, so the same token candidates), and the planned
// rule's blocked join is its own `matcher/value-store/filter` record.
//
// Doubles as a CI gate: the two paths must produce bit-identical link
// sets (ids, scores and order), and the filter's links must equal the
// cross join (`links_equal_cross_join`, held at 1.0 in CI); any
// divergence exits non-zero.
//
// Emits BENCH_matcher_throughput.json; `extra.pairs_per_second` is the
// regression metric tools/compare_bench_json.py tracks,
// `extra.speedup_vs_operator_tree` the machine-independent ratio of the
// two scorers over the same candidates (>= 5x at 1 thread was the
// value store's target on the token-blocked config), and
// `extra.candidates_per_query` the pairs scored per source record.
//
// A second dataset, the synthetic person corpus under perfbench's
// pinned rule (2k x 2k at smoke scale, 20k x 20k above), reports the
// filter's build and join seconds and candidates per query beside the
// token index's, and whether its blocked links equal the cross join.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "datasets/restaurant.h"
#include "datasets/synthetic.h"
#include "harness.h"
#include "api/matcher_index.h"
#include "matcher/blocking.h"
#include "matcher/matcher.h"
#include "rule/builder.h"

using namespace genlink;
using namespace genlink::bench;

namespace {

struct PathMeasurement {
  std::string system;
  const LinkageRule* rule = nullptr;
  bool use_blocking = true;
  bool operator_tree = false;
  size_t pairs = 0;
  double seconds = 0.0;
  std::vector<GeneratedLink> links = {};
};

// A representative learned rule: transform chains on both comparisons
// (tokenize feeds a set measure, lowercase feeds an edit distance), so
// the operator-tree path pays per-pair transformation costs the way a
// real learned rule does. Under "min" it has a filter plan (the address
// comparison's); under "wmean" the jaccard operand has no filter, so
// the rule has none and takes token blocking.
LinkageRule MatchRule(const char* aggregation) {
  auto rule = RuleBuilder()
                  .Aggregate(aggregation)
                  .Compare("jaccard", 0.8, Prop("name").Lower().Tokenize(),
                           Prop("name").Lower().Tokenize())
                  .Compare("levenshtein", 3.0, Prop("address").Lower(),
                           Prop("address").Lower())
                  .End()
                  .Build();
  if (!rule.ok()) {
    std::fprintf(stderr, "rule construction failed: %s\n",
                 rule.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(rule).value();
}

// The operator-tree baseline: GenerateLinks' self-join (each pair once,
// id_a < id_b, sorted by score, id_a, id_b) with every candidate pair
// scored by LinkageRule::Evaluate, so transformations run per pair.
// Candidates come from the same TokenBlockingIndex GenerateLinks
// builds for an unplanned rule, and its build is timed here as it is
// there.
std::vector<GeneratedLink> OperatorTreeSelfJoin(const LinkageRule& rule,
                                                const Dataset& data,
                                                const MatchOptions& options) {
  std::unique_ptr<TokenBlockingIndex> index;
  if (options.use_blocking) {
    index = std::make_unique<TokenBlockingIndex>(data, TargetProperties(rule));
  }
  std::vector<GeneratedLink> links;
  for (const Entity& a : data.entities()) {
    auto consider = [&](size_t j) {
      const Entity& b = data.entity(j);
      if (a.id() >= b.id()) return;
      const double score = rule.Evaluate(a, b, data.schema(), data.schema());
      if (score >= options.threshold) links.push_back({a.id(), b.id(), score});
    };
    if (index != nullptr) {
      for (size_t j : index->Candidates(a, data.schema())) consider(j);
    } else {
      for (size_t j = 0; j < data.size(); ++j) consider(j);
    }
  }
  std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
    if (x.score != y.score) return x.score > y.score;
    if (x.id_a != y.id_a) return x.id_a < y.id_a;
    return x.id_b < y.id_b;
  });
  return links;
}

// perfbench's pinned person rule (perfbench/common.cc PinnedRule): an
// exact phone match after removeDashes, or a name within two edits
// together with a phone within four. Its filter plan is an exact phone
// lookup plus a q-gram probe on the name.
LinkageRule PersonRule() {
  const auto name = [] {
    return Prop("name").Transform("stripPunctuation").Lower();
  };
  const auto phone = [] { return Prop("phone").Transform("removeDashes"); };
  auto rule = RuleBuilder()
                  .Aggregate("max")
                  .Compare("levenshtein", 1.0, phone(), phone())
                  .Aggregate("min")
                  .Compare("levenshtein", 4.0, name(), name())
                  .Compare("levenshtein", 8.0, phone(), phone())
                  .End()
                  .End()
                  .Build();
  if (!rule.ok()) {
    std::fprintf(stderr, "rule construction failed: %s\n",
                 rule.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(rule).value();
}

bool SameLinks(const std::vector<GeneratedLink>& x,
               const std::vector<GeneratedLink>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].id_a != y[i].id_a || x[i].id_b != y[i].id_b ||
        x[i].score != y[i].score) {
      return false;
    }
  }
  return true;
}

// The full join of the synthetic person corpus (2k entities at smoke
// scale, 20k above) under the pinned rule, at one worker thread: the
// filter's build and join time and candidates per query, the token
// index's candidates per query on the same corpus for reference, and
// whether the blocked links equal the cross join.
BenchRecord PersonJoin(const BenchScale& scale, bool* equal_cross_join) {
  SyntheticConfig config;
  config.num_entities = scale.name == "smoke" ? 2000 : 20000;
  config.seed = 1;
  config.num_threads = 0;
  const MatchingTask task = GenerateSynthetic(config);
  const LinkageRule rule = PersonRule();
  MatchOptions options;
  options.num_threads = 1;

  auto start = std::chrono::steady_clock::now();
  const auto index = MatcherIndex::Build(task.a, task.b, rule, options);
  const double build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  start = std::chrono::steady_clock::now();
  const std::vector<GeneratedLink> links = index->MatchDataset();
  const double join_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const TokenBlockingIndex tokens(task.b, TargetProperties(rule));
  size_t candidates = 0;
  size_t token_candidates = 0;
  for (const Entity& query : task.a.entities()) {
    candidates += index->Candidates(query, task.a.schema()).size();
    token_candidates += tokens.Candidates(query, task.a.schema()).size();
  }
  MatchOptions cross = options;
  cross.use_blocking = false;
  cross.num_threads = 0;
  const std::vector<GeneratedLink> cross_links =
      MatcherIndex::Build(task.a, task.b, rule, cross)->MatchDataset();
  *equal_cross_join = SameLinks(links, cross_links) && !links.empty();

  const double n = static_cast<double>(task.a.size());
  std::printf(
      "person %zux%zu: filter build %.3fs, join %.3fs, %.1f candidates per "
      "query (token blocking: %.1f), %zu links, cross join %zu links, "
      "equal=%d\n",
      task.a.size(), task.b.size(), build_seconds, join_seconds,
      static_cast<double>(candidates) / n,
      static_cast<double>(token_candidates) / n, links.size(),
      cross_links.size(), *equal_cross_join ? 1 : 0);
  BenchRecord record;
  record.dataset = "synthetic-person";
  record.system = "matcher/value-store/filter";
  record.data_scale = n;
  record.runs = 1;
  record.seconds = {build_seconds + join_seconds, 0.0};
  record.extra = {
      {"threads", 1.0},
      {"build_seconds", build_seconds},
      {"join_seconds", join_seconds},
      {"links", static_cast<double>(links.size())},
      {"candidates_per_query", static_cast<double>(candidates) / n},
      {"token_candidates_per_query", static_cast<double>(token_candidates) / n},
      {"links_equal_cross_join", *equal_cross_join ? 1.0 : 0.0},
  };
  return record;
}

}  // namespace

int main() {
  BenchScale scale = GetBenchScale();
  RestaurantConfig data;
  data.scale = scale.name == "smoke" ? 0.3 : 1.0;
  MatchingTask task = GenerateRestaurant(data);
  const LinkageRule planned_rule = MatchRule("min");
  const LinkageRule token_rule = MatchRule("wmean");
  const double records_n = static_cast<double>(task.a.size());

  MatchOptions blocked_options;
  blocked_options.num_threads = 1;
  const auto filter_index =
      MatcherIndex::Build(task.a, planned_rule, blocked_options);
  const auto token_index =
      MatcherIndex::Build(task.a, token_rule, blocked_options);
  if (filter_index->filter_plan() == nullptr ||
      token_index->filter_plan() != nullptr) {
    std::fprintf(stderr,
                 "ERROR: the min rule must have a filter plan and the wmean "
                 "copy none\n");
    return 1;
  }

  // Candidate-pair counts per family, for the throughput metric: the
  // token-blocked paths evaluate the token candidates, the exhaustive
  // paths the full self cross product, the filter path its plan's
  // candidates.
  size_t token_pairs = 0;
  size_t filter_pairs = 0;
  for (const Entity& entity : task.a.entities()) {
    token_pairs += token_index->Candidates(entity, task.a.schema()).size();
    filter_pairs += filter_index->Candidates(entity, task.a.schema()).size();
  }
  const size_t cross_pairs = task.a.size() * task.a.size();
  std::printf("restaurant: %zu records, %zu token-blocked / %zu filter / %zu "
              "cross candidate pairs\n",
              task.a.size(), token_pairs, filter_pairs, cross_pairs);

  // Best-of-3 even at smoke scale: single-sample wall times on a
  // millisecond-long join are too noisy for the CI ratio gate.
  const size_t reps = 3;
  std::vector<PathMeasurement> runs = {
      {"matcher/operator-tree/blocking", &token_rule, true, true, token_pairs},
      {"matcher/value-store/blocking", &token_rule, true, false, token_pairs},
      {"matcher/operator-tree/cross", &planned_rule, false, true, cross_pairs},
      {"matcher/value-store/cross", &planned_rule, false, false, cross_pairs},
      {"matcher/value-store/filter", &planned_rule, true, false, filter_pairs},
  };
  for (PathMeasurement& run : runs) {
    MatchOptions options;
    options.use_blocking = run.use_blocking;
    options.num_threads = 1;
    double best = 0.0;
    for (size_t r = 0; r < reps; ++r) {
      auto start = std::chrono::steady_clock::now();
      auto links = run.operator_tree
                       ? OperatorTreeSelfJoin(*run.rule, task.a, options)
                       : GenerateLinks(*run.rule, task.a, task.a, options);
      double elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (r == 0 || elapsed < best) best = elapsed;
      run.links = std::move(links);
    }
    run.seconds = best;
    std::printf("%-34s %8.3fs  %10.0f pairs/s  %zu links\n",
                run.system.c_str(), run.seconds,
                run.seconds > 0.0 ? run.pairs / run.seconds : 0.0,
                run.links.size());
  }

  // Bit-identity gate: value-store links == operator-tree links, per
  // family over the same candidates; and the filter loses no link of
  // the cross join.
  bool identical = SameLinks(runs[0].links, runs[1].links) &&
                   SameLinks(runs[2].links, runs[3].links) &&
                   !runs[1].links.empty() && !runs[3].links.empty();
  if (!identical) {
    std::fprintf(stderr,
                 "ERROR: value-store links differ from operator-tree links "
                 "(or no links were generated)\n");
  }
  const bool equal_cross_join = SameLinks(runs[4].links, runs[3].links);
  if (!equal_cross_join) {
    std::fprintf(stderr,
                 "ERROR: filter links (%zu) differ from the cross join "
                 "(%zu)\n",
                 runs[4].links.size(), runs[3].links.size());
  }

  auto operator_tree_seconds = [&](const PathMeasurement& of) {
    for (const PathMeasurement& run : runs) {
      if (run.operator_tree && run.rule == of.rule &&
          run.use_blocking == of.use_blocking) {
        return run.seconds;
      }
    }
    return 0.0;
  };

  std::vector<BenchRecord> records;
  for (const PathMeasurement& run : runs) {
    BenchRecord record;
    record.dataset = "restaurant";
    record.system = run.system;
    record.data_scale = data.scale;
    record.runs = reps;
    record.seconds = {run.seconds, 0.0};
    record.extra = {
        {"threads", 1.0},
        {"pairs", static_cast<double>(run.pairs)},
        {"links", static_cast<double>(run.links.size())},
        {"candidates_per_query", static_cast<double>(run.pairs) / records_n},
    };
    const double baseline = operator_tree_seconds(run);
    if (baseline > 0.0) {
      // A scorer pair over the same candidates.
      record.extra.push_back(
          {"pairs_per_second",
           run.seconds > 0.0 ? static_cast<double>(run.pairs) / run.seconds
                             : 0.0});
      record.extra.push_back({"speedup_vs_operator_tree",
                              run.seconds > 0.0 ? baseline / run.seconds : 0.0});
      record.extra.push_back({"links_identical", identical ? 1.0 : 0.0});
    } else {
      record.extra.push_back(
          {"links_equal_cross_join", equal_cross_join ? 1.0 : 0.0});
    }
    records.push_back(std::move(record));
  }
  bool person_equal_cross_join = false;
  records.push_back(PersonJoin(scale, &person_equal_cross_join));
  if (!person_equal_cross_join) {
    std::fprintf(stderr,
                 "ERROR: person join blocked links differ from the cross "
                 "join\n");
  }
  WriteBenchJson("matcher_throughput", scale, records);

  for (const PathMeasurement& run : runs) {
    const double baseline = operator_tree_seconds(run);
    if (!run.operator_tree && baseline > 0.0 && run.seconds > 0.0) {
      std::printf("value-store speedup (%s): %.2fx\n",
                  run.use_blocking ? "token blocking" : "cross",
                  baseline / run.seconds);
    }
  }
  return identical && equal_cross_join && person_equal_cross_join ? 0 : 1;
}
