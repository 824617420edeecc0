// Thread-scaling of the evaluation engine (eval/engine.h): one Cora
// learning run per thread count, identical seed, measuring wall time
// and asserting that the learned rule and F1 do not depend on the
// thread count (the engine's determinism invariant). Cora, not
// Restaurant: a Restaurant learn lasts 20-60 ms even at default scale,
// too short for a speedup to rise above timer and scheduler noise; a
// default-scale 1-thread Cora learn lasts well over half a second.
//
// A further untimed 1-thread run checks, every generation, that each
// individual's engine FitnessResult equals FitnessEvaluator's
// (eval/fitness.h, which recomputes every distance). Breeding reads
// only the fitness and the RNG, so this proves a recompute-only learner
// would follow the same trajectory.
//
// Emits BENCH_scaling_threads.json with one record per thread count;
// `extra` carries the thread count, whether the learned rule matched
// the 1-thread rule bit for bit, and — at default scale and above — the
// measured speedup vs the single-thread run. At smoke scale one learn
// is far too short to time, so the ratio is not recorded there. Exit status is non-zero when determinism is
// violated, so CI's bench-smoke step doubles as a regression gate.
//
// Interpreting the speedup requires knowing the hardware: the engine
// parallelizes over individuals and distance rows with no serial
// reduction, so on an N-core machine the speedup approaches
// min(threads, N). `extra.hardware_concurrency` records what the
// machine offered; on a single-core container all speedups are ~1.

#include <chrono>
#include <cstdio>
#include <thread>

#include "datasets/cora.h"
#include "harness.h"
#include "rule/rule_hash.h"
#include "rule/serialize.h"

using namespace genlink;
using namespace genlink::bench;

namespace {

constexpr uint64_t kSeed = 8003;

struct RunMeasurement {
  size_t threads = 0;
  bool ok = false;
  double seconds = 0.0;
  double train_f1 = 0.0;
  double val_f1 = 0.0;
  uint64_t rule_hash = 0;
  std::string rule_sexpr;
};

GenLinkConfig MakeConfig(const BenchScale& scale, size_t threads) {
  GenLinkConfig config = MakeGenLinkConfig(scale);
  config.num_threads = threads;
  // Disable early stopping: a seed that reaches full training F1 early
  // would leave less to measure. A scaling bench needs fixed work per
  // configuration.
  config.stop_f_measure = 1.1;
  return config;
}

RunMeasurement RunOnce(const MatchingTask& task, const BenchScale& scale,
                       size_t threads) {
  GenLinkConfig config = MakeConfig(scale, threads);

  // Same seed for every thread count: fold split and evolution draw
  // from the same stream, so any divergence comes from evaluation.
  Rng rng(kSeed);
  auto folds = task.links.SplitFolds(2, rng);
  GenLink learner(task.Source(), task.Target(), config);

  auto start = std::chrono::steady_clock::now();
  auto result = learner.Learn(folds[0], &folds[1], rng);
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  RunMeasurement m;
  m.threads = threads;
  m.seconds = elapsed;
  if (!result.ok()) {
    std::fprintf(stderr, "learn failed at %zu threads: %s\n", threads,
                 result.status().ToString().c_str());
    return m;
  }
  m.ok = true;
  const IterationStats& last = result->trajectory.iterations.back();
  m.train_f1 = last.train_f1;
  m.val_f1 = last.val_f1;
  m.rule_hash = CanonicalRuleHash(result->best_rule);
  m.rule_sexpr = ToSexpr(result->best_rule);
  std::printf(
      "threads=%zu  %6.2fs  train F1 %.3f  val F1 %.3f  "
      "fitness-hit %4.1f%%  distance-row-hit %4.1f%%\n",
      threads, elapsed, m.train_f1, m.val_f1,
      100.0 * result->eval_stats.FitnessHitRate(),
      100.0 * result->eval_stats.DistanceRowHitRate());
  return m;
}

// The 1-thread run once more, untimed, comparing every individual of
// every generation with FitnessEvaluator. Returns false on a failed run
// or on any difference in fitness, MCC, F-measure or confusion counts.
bool MatchesFitnessEvaluatorEveryGeneration(const MatchingTask& task,
                                            const BenchScale& scale) {
  GenLinkConfig config = MakeConfig(scale, 1);
  Rng rng(kSeed);
  auto folds = task.links.SplitFolds(2, rng);
  auto pairs = folds[0].Resolve(task.Source(), task.Target());
  if (!pairs.ok()) return false;
  FitnessEvaluator serial(*pairs, task.Source().schema(),
                          task.Target().schema(), config.fitness);
  size_t mismatches = 0;
  size_t checked = 0;
  GenLink learner(task.Source(), task.Target(), config);
  auto result = learner.Learn(
      folds[0], &folds[1], rng,
      [&](const IterationStats& stats, const Population& population) {
        for (const Individual& individual : population.individuals()) {
          ++checked;
          FitnessResult reference = serial.Evaluate(individual.rule);
          const FitnessResult& engine = individual.fitness;
          if (engine.fitness != reference.fitness ||
              engine.mcc != reference.mcc ||
              engine.f_measure != reference.f_measure ||
              engine.confusion.tp != reference.confusion.tp ||
              engine.confusion.tn != reference.confusion.tn ||
              engine.confusion.fp != reference.confusion.fp ||
              engine.confusion.fn != reference.confusion.fn) {
            if (mismatches++ == 0) {
              std::fprintf(stderr,
                           "engine fitness %.17g != reference %.17g at "
                           "generation %zu for %s\n",
                           engine.fitness, reference.fitness, stats.iteration,
                           ToSexpr(individual.rule).c_str());
            }
          }
        }
      });
  if (!result.ok()) return false;
  std::printf("engine == FitnessEvaluator for %zu individuals over %zu "
              "generations: %s\n",
              checked, result->trajectory.iterations.size(),
              mismatches == 0 ? "yes" : "NO");
  return mismatches == 0;
}

}  // namespace

int main() {
  BenchScale scale = GetBenchScale();

  CoraConfig data;
  // Cora is small (1879 records); only shrink for smoke.
  data.scale = scale.name == "smoke" ? 0.2 : 1.0;
  MatchingTask task = GenerateCora(data);
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("cora: %zu records, %zu/%zu reference links, "
              "%u hardware threads\n",
              task.a.size(), task.links.positives().size(),
              task.links.negatives().size(), hardware);

  // Warm-up run so first-touch costs (page faults, allocator growth) do
  // not bias the 1-thread measurement.
  RunOnce(task, scale, 1);

  std::vector<RunMeasurement> runs;
  for (size_t threads : {1, 2, 4, 8}) {
    runs.push_back(RunOnce(task, scale, threads));
  }
  const double t1 = runs.front().seconds;
  const bool timed = scale.name != "smoke";

  bool deterministic = true;
  std::vector<BenchRecord> records;
  for (const RunMeasurement& m : runs) {
    // A failed run fails the gate too — all-zero measurements must not
    // pass it vacuously.
    bool identical = m.ok && runs.front().ok &&
                     m.rule_hash == runs.front().rule_hash &&
                     m.train_f1 == runs.front().train_f1 &&
                     m.val_f1 == runs.front().val_f1;
    deterministic = deterministic && identical;
    if (!identical && m.ok && runs.front().ok) {
      std::fprintf(stderr,
                   "divergent rule at threads=%zu:\n  t1:  %s\n  now: %s\n",
                   m.threads, runs.front().rule_sexpr.c_str(),
                   m.rule_sexpr.c_str());
    }
    BenchRecord record;
    record.dataset = "cora";
    record.system = "genlink/threads=" + std::to_string(m.threads);
    record.data_scale = data.scale;
    record.population = scale.population;
    record.iterations = scale.iterations;
    record.runs = 1;
    record.train_f1 = {m.train_f1, 0.0};
    record.val_f1 = {m.val_f1, 0.0};
    record.seconds = {m.seconds, 0.0};
    record.extra = {
        {"threads", static_cast<double>(m.threads)},
        {"rule_identical_to_t1", identical ? 1.0 : 0.0},
        {"hardware_concurrency", static_cast<double>(hardware)},
    };
    if (timed) {
      record.extra.emplace_back("speedup_vs_t1",
                                m.seconds > 0.0 ? t1 / m.seconds : 0.0);
    }
    records.push_back(std::move(record));
  }

  if (timed) {
    std::printf("\nspeedup vs the 1-thread run:");
    for (const RunMeasurement& m : runs) {
      std::printf("  t%zu: %.2fx", m.threads,
                  m.seconds > 0.0 ? t1 / m.seconds : 0.0);
    }
    std::printf("\n");
  }

  deterministic =
      MatchesFitnessEvaluatorEveryGeneration(task, scale) && deterministic;
  if (!deterministic) {
    std::fprintf(stderr,
                 "ERROR: a run failed, the learned rule/F1 differs across "
                 "thread counts, or the engine's fitness differs from "
                 "FitnessEvaluator's\n");
  } else {
    std::printf("learned rule identical across all thread counts\n");
  }

  WriteBenchJson("scaling_threads", scale, records);
  return deterministic ? 0 : 1;
}
