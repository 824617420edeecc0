// Island-count scaling of the GenLink search (gp/islands.h): one
// learning run per island count on Restaurant and Cora at the SAME
// total evaluation budget — the base population is split evenly across
// the islands, so every configuration breeds and scores the same number
// of rules per generation — measuring wall time and gating two
// invariants:
//
//   1. num_islands = 1 must reproduce the retired single-population
//      loop bit for bit: its FingerprintLearnResult (best rule,
//      initial mean F1, every iteration's stats) must equal the pin
//      that loop recorded for the (task, scale). A divergence makes the
//      bench exit non-zero, so CI's bench-smoke step doubles as the
//      island model's regression gate.
//   2. Results must not depend on the thread count (checked for the
//      4-island configuration at explicit 1 vs 4 threads, on any
//      machine).
//
// Emits BENCH_scaling_islands.json; `extra` carries the island count,
// the per-island population, the speedup vs the 1-island run and the
// gate outcomes. Wall-clock speedup comes from breeding in parallel
// (one task per island) and from the cross-island fitness memo, so it
// needs real cores: `extra.hardware_concurrency` records what the
// machine offered — on a 1-core container all speedups are ~1.

#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>
#include <vector>

#include "datasets/cora.h"
#include "datasets/restaurant.h"
#include "gp/islands.h"
#include "harness.h"
#include "rule/serialize.h"

using namespace genlink;
using namespace genlink::bench;

namespace {

constexpr uint64_t kSeed = 8017;

// FingerprintLearnResult of the single-population loop (the paper's
// Algorithm 1 before the island model took it over) for RunIslands'
// protocol at the full base population, recorded at commit 61442ca.
// After an intended change to the search, re-pin from the
// "1-island fingerprint" lines this bench prints.
struct LegacyPin {
  std::string_view task;
  std::string_view scale;
  uint64_t fingerprint;
};
constexpr LegacyPin kLegacyPins[] = {
    {"restaurant", "smoke", 0xcc03e7c11f583894ULL},
    {"cora", "smoke", 0x0373be5bf883140fULL},
    {"restaurant", "default", 0x6bfa63ba08890fc5ULL},
    {"cora", "default", 0xd406a7d0ecf01754ULL},
    {"restaurant", "paper", 0x28cb20172e609111ULL},
    {"cora", "paper", 0x2d4325cc282d191cULL},
};

// The pin for (task, scale); 0 (never a real fingerprint of a
// successful run, so the gate fails) when none was recorded.
uint64_t LegacyFingerprint(std::string_view task, std::string_view scale) {
  for (const LegacyPin& pin : kLegacyPins) {
    if (pin.task == task && pin.scale == scale) return pin.fingerprint;
  }
  return 0;
}

// The deterministic outcome of one learning run plus its wall time.
struct RunMeasurement {
  bool ok = false;
  double seconds = 0.0;
  double train_f1 = 0.0;
  double val_f1 = 0.0;
  uint64_t fingerprint = 0;
  std::string rule_sexpr;
};

RunMeasurement Measure(const Result<LearnResult>& result, double seconds) {
  RunMeasurement m;
  m.seconds = seconds;
  if (!result.ok()) {
    std::fprintf(stderr, "learn failed: %s\n",
                 result.status().ToString().c_str());
    return m;
  }
  m.ok = true;
  const IterationStats& last = result->trajectory.iterations.back();
  m.train_f1 = last.train_f1;
  m.val_f1 = last.val_f1;
  m.fingerprint = FingerprintLearnResult(*result);
  m.rule_sexpr = ToSexpr(result->best_rule);
  return m;
}

GenLinkConfig MakeConfig(const BenchScale& scale, size_t base_population,
                         size_t num_islands, size_t threads) {
  GenLinkConfig config = MakeGenLinkConfig(scale);
  config.num_islands = num_islands;
  // Same total budget for every island count: splitting the base
  // population keeps rules-bred-per-generation constant.
  config.population_size = base_population / num_islands;
  config.num_threads = threads;
  // Disable early stopping: Restaurant reaches full training F1 within
  // a couple of generations, which would leave nothing to measure.
  config.stop_f_measure = 1.1;
  return config;
}

// Same seed for every configuration: fold split and evolution draw from
// the same master stream, so any divergence comes from the search
// organization itself.
RunMeasurement RunIslands(const MatchingTask& task, const GenLinkConfig& config) {
  Rng rng(kSeed);
  auto folds = task.links.SplitFolds(2, rng);
  GenLink learner(task.Source(), task.Target(), config);
  auto start = std::chrono::steady_clock::now();
  auto result = learner.Learn(folds[0], &folds[1], rng);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return Measure(result, seconds);
}

bool Identical(const RunMeasurement& a, const RunMeasurement& b) {
  return a.ok && b.ok && a.fingerprint == b.fingerprint;
}

}  // namespace

int main() {
  BenchScale scale = GetBenchScale();
  const unsigned hardware = std::thread::hardware_concurrency();
  // Round the base population up to a multiple of 8 so it splits evenly
  // across every island count.
  const size_t base_population = ((scale.population + 7) / 8) * 8;

  RestaurantConfig restaurant_config;
  restaurant_config.scale = scale.name == "smoke" ? 0.3 : 1.0;
  CoraConfig cora_config;
  cora_config.scale = scale.name == "smoke" ? 0.05 : scale.data_scale;

  std::vector<MatchingTask> tasks;
  tasks.push_back(GenerateRestaurant(restaurant_config));
  tasks.push_back(GenerateCora(cora_config));
  const double data_scales[] = {restaurant_config.scale, cora_config.scale};

  std::printf("base population %zu, %zu iterations, %u hardware threads\n",
              base_population, scale.iterations, hardware);

  bool gates_pass = true;
  std::vector<BenchRecord> records;
  for (size_t t = 0; t < tasks.size(); ++t) {
    const MatchingTask& task = tasks[t];
    std::printf("\n%s: %zu source records, %zu/%zu reference links\n",
                task.name.c_str(), task.a.size(),
                task.links.positives().size(),
                task.links.negatives().size());

    // Warm-up first so first-touch costs do not bias the 1-island
    // time every speedup is taken against.
    RunIslands(task, MakeConfig(scale, base_population, 1, 0));
    const uint64_t legacy_fingerprint =
        LegacyFingerprint(task.name, scale.name);

    double island1_seconds = 0.0;
    for (size_t num_islands : {1, 2, 4, 8}) {
      GenLinkConfig config =
          MakeConfig(scale, base_population, num_islands, 0);
      RunMeasurement m = RunIslands(task, config);
      if (num_islands == 1) {
        island1_seconds = m.seconds;
        std::printf("  1-island fingerprint 0x%016llx (pin 0x%016llx)\n",
                    static_cast<unsigned long long>(m.fingerprint),
                    static_cast<unsigned long long>(legacy_fingerprint));
      }

      // Gate 1: one island == the pinned single-population run.
      bool identical_to_legacy =
          num_islands != 1 || (m.ok && m.fingerprint == legacy_fingerprint);
      if (!identical_to_legacy) {
        gates_pass = false;
        std::fprintf(stderr,
                     "ERROR: 1-island run diverged from the pinned "
                     "single-population run on %s at %s scale; learned:\n"
                     "  %s\n",
                     task.name.c_str(), scale.name.c_str(),
                     m.rule_sexpr.c_str());
      }
      // Gate 2: thread-count invariance of the migrating configuration,
      // at explicit thread counts so it runs on a 1-core machine too.
      bool thread_invariant = true;
      if (num_islands == 4) {
        GenLinkConfig serial = config;
        serial.num_threads = 1;
        GenLinkConfig quad = config;
        quad.num_threads = 4;
        const RunMeasurement at1 = RunIslands(task, serial);
        thread_invariant =
            Identical(at1, RunIslands(task, quad)) && Identical(at1, m);
        if (!thread_invariant) {
          gates_pass = false;
          std::fprintf(stderr,
                       "ERROR: 4-island result depends on the thread count "
                       "on %s\n",
                       task.name.c_str());
        }
      }

      double speedup = m.seconds > 0.0 ? island1_seconds / m.seconds : 0.0;
      std::printf(
          "  islands=%zu   %6.2fs  train F1 %.3f  val F1 %.3f  "
          "speedup vs 1 island %.2fx%s\n",
          num_islands, m.seconds, m.train_f1, m.val_f1, speedup,
          num_islands == 1 && identical_to_legacy ? "  [== legacy pin]" : "");

      BenchRecord record;
      record.dataset = task.name;
      record.system = "genlink/islands=" + std::to_string(num_islands);
      record.data_scale = data_scales[t];
      record.population = config.population_size;
      record.iterations = scale.iterations;
      record.runs = 1;
      record.train_f1 = {m.train_f1, 0.0};
      record.val_f1 = {m.val_f1, 0.0};
      record.seconds = {m.seconds, 0.0};
      record.extra = {
          {"num_islands", static_cast<double>(num_islands)},
          {"per_island_population",
           static_cast<double>(config.population_size)},
          {"speedup_vs_i1", speedup},
          {"identical_to_legacy", identical_to_legacy ? 1.0 : 0.0},
          {"thread_invariant", thread_invariant ? 1.0 : 0.0},
          {"hardware_concurrency", static_cast<double>(hardware)},
      };
      records.push_back(std::move(record));
    }
  }

  WriteBenchJson("scaling_islands", scale, records);
  if (!gates_pass) {
    std::fprintf(stderr, "ERROR: island gates failed (see above)\n");
    return 1;
  }
  std::printf("\nisland gates passed: 1 island == legacy pin, results "
              "thread-invariant\n");
  return 0;
}
