// Microbenchmarks for the distance-measure library (not a paper table;
// characterizes the substrate that dominates GP fitness evaluation).
//
// The string kernels come in old/new pairs across length buckets
// (8/32/64/256 chars): *Ref runs the reference implementation
// (two-row DP Levenshtein, heap-flag Jaro, hash-set token Jaccard) and
// the unsuffixed bench runs the production kernel (Myers bit-parallel,
// mask/stack-flag Jaro, sorted token-id merge). items_per_second is set
// on all of them so BENCH_micro_distances.json exposes the ratio to
// tools/compare_bench_json.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "datasets/noise.h"
#include "distance/registry.h"
#include "distance/string_distances.h"
#include "distance/token_distances.h"
#include "eval/value_store.h"

namespace genlink {
namespace {

ValueSet MakeValues(size_t count, size_t length, uint64_t seed) {
  Rng rng(seed);
  ValueSet values;
  for (size_t i = 0; i < count; ++i) {
    values.push_back(RandomWord(length, rng));
  }
  return values;
}

void SetPairRate(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// ------------------------------------------------- Levenshtein old/new

void BM_LevenshteinRef(benchmark::State& state) {
  ValueSet a = MakeValues(1, static_cast<size_t>(state.range(0)), 1);
  ValueSet b = MakeValues(1, static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinEditDistanceReference(a[0], b[0]));
  }
  SetPairRate(state);
}
BENCHMARK(BM_LevenshteinRef)->Arg(8)->Arg(32)->Arg(64)->Arg(256);

void BM_Levenshtein(benchmark::State& state) {
  ValueSet a = MakeValues(1, static_cast<size_t>(state.range(0)), 1);
  ValueSet b = MakeValues(1, static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinEditDistance(a[0], b[0]));
  }
  SetPairRate(state);
}
BENCHMARK(BM_Levenshtein)->Arg(8)->Arg(32)->Arg(64)->Arg(256);

// The banded kernel at the measure's default threshold range.
void BM_LevenshteinBounded(benchmark::State& state) {
  ValueSet a = MakeValues(1, static_cast<size_t>(state.range(0)), 1);
  ValueSet b = MakeValues(1, static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedLevenshteinEditDistance(a[0], b[0], 5));
  }
  SetPairRate(state);
}
BENCHMARK(BM_LevenshteinBounded)->Arg(8)->Arg(32)->Arg(64)->Arg(256);

// The measure surface every scorer calls: BoundedValueDistance at the
// default threshold range, on a random pair (range(1) == 0) and on a
// near pair two substitutions apart (range(1) == 1), the typical
// candidate a filter lets through.
void BM_LevenshteinBoundedValue(benchmark::State& state) {
  const LevenshteinDistance measure;
  const size_t length = static_cast<size_t>(state.range(0));
  ValueSet a = MakeValues(1, length, 1);
  ValueSet b = MakeValues(1, length, 2);
  if (state.range(1) != 0) {
    b[0] = a[0];
    b[0][0] = b[0][0] == 'x' ? 'y' : 'x';
    b[0][length / 2] = b[0][length / 2] == 'x' ? 'y' : 'x';
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure.BoundedValueDistance(a[0], b[0], 5.0));
  }
  SetPairRate(state);
}
BENCHMARK(BM_LevenshteinBoundedValue)->ArgsProduct({{8, 32, 64, 256}, {0, 1}});

// ------------------------------------------------------- Jaro old/new

void BM_JaroRef(benchmark::State& state) {
  ValueSet a = MakeValues(1, static_cast<size_t>(state.range(0)), 3);
  ValueSet b = MakeValues(1, static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroSimilarityReference(a[0], b[0]));
  }
  SetPairRate(state);
}
BENCHMARK(BM_JaroRef)->Arg(8)->Arg(32)->Arg(64)->Arg(256);

void BM_Jaro(benchmark::State& state) {
  ValueSet a = MakeValues(1, static_cast<size_t>(state.range(0)), 3);
  ValueSet b = MakeValues(1, static_cast<size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroSimilarity(a[0], b[0]));
  }
  SetPairRate(state);
}
BENCHMARK(BM_Jaro)->Arg(8)->Arg(32)->Arg(64)->Arg(256);

// ----------------------------------------------- token Jaccard old/new

// Old: hash-set construction + probing per call over owning strings.
void BM_JaccardTokensRef(benchmark::State& state) {
  const DistanceMeasure* m = DistanceRegistry::Default().Find("jaccard");
  ValueSet a = MakeValues(static_cast<size_t>(state.range(0)), 6, 5);
  ValueSet b = MakeValues(static_cast<size_t>(state.range(0)), 6, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->Distance(a, b));
  }
  SetPairRate(state);
}
BENCHMARK(BM_JaccardTokensRef)->Arg(4)->Arg(16)->Arg(64);

// New: merge over pre-interned sorted token-id spans (what the value
// store hands the engine and the matcher).
void BM_JaccardTokenIds(benchmark::State& state) {
  const DistanceMeasure* m = DistanceRegistry::Default().Find("jaccard");
  ValueSet a = MakeValues(static_cast<size_t>(state.range(0)), 6, 5);
  ValueSet b = MakeValues(static_cast<size_t>(state.range(0)), 6, 6);
  StringPool pool;
  auto intern_sorted = [&pool](const ValueSet& values,
                               std::vector<uint32_t>& ids,
                               std::vector<uint32_t>& counts) {
    std::vector<uint32_t> raw;
    for (const auto& v : values) raw.push_back(pool.Intern(v));
    std::sort(raw.begin(), raw.end());
    for (size_t i = 0; i < raw.size();) {
      size_t j = i + 1;
      while (j < raw.size() && raw[j] == raw[i]) ++j;
      ids.push_back(raw[i]);
      counts.push_back(static_cast<uint32_t>(j - i));
      i = j;
    }
  };
  std::vector<uint32_t> ids_a, counts_a, ids_b, counts_b;
  intern_sorted(a, ids_a, counts_a);
  intern_sorted(b, ids_b, counts_b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->TokenIdDistance(ids_a, counts_a, ids_b, counts_b));
  }
  SetPairRate(state);
}
BENCHMARK(BM_JaccardTokenIds)->Arg(4)->Arg(16)->Arg(64);

// ------------------------------------------------------- other measures

void BM_Geographic(benchmark::State& state) {
  const DistanceMeasure* m = DistanceRegistry::Default().Find("geographic");
  ValueSet a{"52.5200 13.4050"};
  ValueSet b{"48.8566 2.3522"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->Distance(a, b));
  }
  SetPairRate(state);
}
BENCHMARK(BM_Geographic);

void BM_Date(benchmark::State& state) {
  const DistanceMeasure* m = DistanceRegistry::Default().Find("date");
  ValueSet a{"1997-11-05"};
  ValueSet b{"2003-02-17"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->Distance(a, b));
  }
  SetPairRate(state);
}
BENCHMARK(BM_Date);

// Multi-valued lift: min over value pairs.
void BM_SetLift(benchmark::State& state) {
  const DistanceMeasure* m = DistanceRegistry::Default().Find("levenshtein");
  ValueSet a = MakeValues(static_cast<size_t>(state.range(0)), 10, 7);
  ValueSet b = MakeValues(static_cast<size_t>(state.range(0)), 10, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m->Distance(a, b));
  }
  SetPairRate(state);
}
BENCHMARK(BM_SetLift)->Arg(1)->Arg(4)->Arg(8);

}  // namespace
}  // namespace genlink
