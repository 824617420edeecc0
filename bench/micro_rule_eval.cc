// Microbenchmarks for linkage-rule evaluation: the inner loop of GP
// fitness computation (rule x labelled pair), at several rule sizes.

#include <cmath>

#include <benchmark/benchmark.h>

#include "datasets/cora.h"
#include "eval/engine.h"
#include "eval/fitness.h"
#include "rule/builder.h"

namespace genlink {
namespace {

const MatchingTask& CoraTask() {
  static MatchingTask* task = [] {
    CoraConfig config;
    config.scale = 0.1;
    return new MatchingTask(GenerateCora(config));
  }();
  return *task;
}

LinkageRule SmallRule() {
  return std::move(RuleBuilder()
                       .Compare("levenshtein", 2.0, Prop("title"), Prop("title"))
                       .Build())
      .value();
}

LinkageRule MediumRule() {
  return std::move(
             RuleBuilder()
                 .Aggregate("min")
                 .Compare("levenshtein", 2.0, Prop("title").Lower(),
                          Prop("title").Lower())
                 .Compare("date", 365.0, Prop("date"), Prop("date"))
                 .End()
                 .Build())
      .value();
}

LinkageRule LargeRule() {
  return std::move(
             RuleBuilder()
                 .Aggregate("max")
                 .Aggregate("min")
                 .Compare("jaccard", 0.8, Prop("title").Lower().Tokenize(),
                          Prop("title").Lower().Tokenize())
                 .Compare("date", 365.0, Prop("date"), Prop("date"))
                 .End()
                 .Aggregate("wmean")
                 .Compare("levenshtein", 3.0, Prop("author"), Prop("author"), 2.0)
                 .Compare("levenshtein", 2.0, Prop("venue").Lower(),
                          Prop("venue").Lower(), 1.0)
                 .End()
                 .End()
                 .Build())
      .value();
}

void RunRuleBench(benchmark::State& state, const LinkageRule& rule) {
  const MatchingTask& task = CoraTask();
  auto pairs = task.links.Resolve(task.Source(), task.Target());
  size_t i = 0;
  for (auto _ : state) {
    const LabeledPair& pair = (*pairs)[i++ % pairs->size()];
    benchmark::DoNotOptimize(rule.Evaluate(*pair.a, *pair.b,
                                           task.Source().schema(),
                                           task.Target().schema()));
  }
}

void BM_RuleEvalSmall(benchmark::State& state) {
  RunRuleBench(state, SmallRule());
}
BENCHMARK(BM_RuleEvalSmall);

void BM_RuleEvalMedium(benchmark::State& state) {
  RunRuleBench(state, MediumRule());
}
BENCHMARK(BM_RuleEvalMedium);

void BM_RuleEvalLarge(benchmark::State& state) {
  RunRuleBench(state, LargeRule());
}
BENCHMARK(BM_RuleEvalLarge);

// Whole-fitness evaluation (one rule against all training pairs).
void BM_FitnessEvaluation(benchmark::State& state) {
  const MatchingTask& task = CoraTask();
  auto pairs = task.links.Resolve(task.Source(), task.Target());
  FitnessEvaluator evaluator(*pairs, task.Source().schema(),
                             task.Target().schema());
  LinkageRule rule = MediumRule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(rule));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs->size()));
}
BENCHMARK(BM_FitnessEvaluation);

// Same evaluation through the engine with a warm distance cache: no
// string distance is computed, only thresholding and aggregation.
// Every iteration scores the rule at a threshold not seen before: the
// canonical rule hash includes thresholds and the comparison signature
// does not, so the fitness memo misses (every iteration does the full
// per-pair pass, not a hash lookup) while the distance row stays warm.
void BM_EngineFitnessEvaluationWarm(benchmark::State& state) {
  const MatchingTask& task = CoraTask();
  auto pairs = task.links.Resolve(task.Source(), task.Target());
  EngineConfig config;
  config.num_threads = 1;
  EvaluationEngine engine(*pairs, task.Source().schema(),
                          task.Target().schema(), {}, config);
  LinkageRule rule = MediumRule();
  ComparisonOperator* varied = CollectComparisons(rule).front();
  engine.Evaluate(rule);  // warm the distance rows
  for (auto _ : state) {
    varied->set_threshold(std::nextafter(varied->threshold(), 1e9));
    benchmark::DoNotOptimize(engine.Evaluate(rule));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs->size()));
  state.counters["fitness_hits"] =
      static_cast<double>(engine.stats().fitness_hits);
  state.counters["distance_rows_computed"] =
      static_cast<double>(engine.stats().distance_rows_computed);
}
BENCHMARK(BM_EngineFitnessEvaluationWarm);

}  // namespace
}  // namespace genlink
