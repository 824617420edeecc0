// learn_link: GenLink learning with the paper's Section 6.1 settings on
// four data sets, then the `genlink match` path on the synthetic person
// corpus with the pinned rule. Nearly all gp/eval and full-join matcher
// work of the benchmark happens here, and no serve or live work.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/matcher_index.h"
#include "datasets/cora.h"
#include "datasets/dbpedia_drugbank.h"
#include "datasets/nyt.h"
#include "datasets/sider_drugbank.h"
#include "datasets/synthetic.h"
#include "eval/engine.h"
#include "gp/genlink.h"
#include "io/csv.h"
#include "io/link_io.h"
#include "matcher/blocking.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace genlink;

namespace {

/// Wall time of one learn+link pass on a 4-core x86 host, for sizing
/// the run.
constexpr double kPassSeconds = 6.5;
/// Links re-scored through LinkageRule::Evaluate per link pass.
constexpr size_t kRescoreSample = 256;
/// CSV decodes of all inputs; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Multi-valued cells are joined with this byte in the CSV inputs.
constexpr char kValueSeparator = '|';

struct LearnInput {
  MatchingTask generated;
  Dataset a;
  Dataset b;  // empty for deduplication tasks
  const Dataset& Target() const { return generated.dedup ? a : b; }
};

bool SameDataset(const Dataset& x, const Dataset& y) {
  if (x.size() != y.size() ||
      x.schema().property_names() != y.schema().property_names()) {
    return false;
  }
  for (size_t i = 0; i < x.size(); ++i) {
    const Entity& ex = x.entity(i);
    const Entity& ey = y.entity(i);
    if (ex.id() != ey.id()) return false;
    for (PropertyId p = 0; p < x.schema().NumProperties(); ++p) {
      if (ex.Values(p) != ey.Values(p)) return false;
    }
  }
  return true;
}

/// One file per dataset side: <workdir>/<task>_<side>.csv.
struct CsvInput {
  std::string path;
  const Dataset* generated = nullptr;
  Dataset* decoded = nullptr;
};

/// One GenLink::Learn call on fold 0 of a 2-fold split, validated on
/// fold 1, with the steady-clock time of the call's start and of every
/// IterationCallback (so stamps[g] - stamps[g-1] is generation g-1's
/// wall time, generation 0 being seeding plus the initial population).
struct LearnRun {
  Result<LearnResult> learned = Status::Internal("not run");
  std::vector<int64_t> stamps;
  std::vector<ReferenceLinkSet> folds;
};

/// Runs one learn. When `generations` is non-null, every generation's
/// evaluated rules are cloned into it.
LearnRun LearnOnce(const LearnInput& input, const GenLinkConfig& gp,
                   uint64_t seed,
                   std::vector<std::vector<LinkageRule>>* generations) {
  LearnRun run;
  Rng rng(seed);
  run.folds = input.generated.links.SplitFolds(2, rng);
  GenLink learner(input.a, input.Target(), gp);
  run.stamps.push_back(NowNs());
  run.learned = learner.Learn(
      run.folds[0], &run.folds[1], rng,
      [&](const IterationStats&, const Population& population) {
        run.stamps.push_back(NowNs());
        if (generations == nullptr) return;
        std::vector<LinkageRule> rules;
        rules.reserve(population.size());
        for (const Individual& individual : population.individuals()) {
          rules.push_back(individual.rule.Clone());
        }
        generations->push_back(std::move(rules));
      });
  return run;
}

/// The GP seed (fold split and evolution) of data set `t` in `pass`.
uint64_t LearnSeed(uint64_t seed, size_t pass, size_t t) {
  return (seed * 1000003 + pass) * 16 + t;
}

}  // namespace

WorkloadResult RunLearnLink(const RunConfig& config, Tracer& tracer) {
  WorkloadResult result;
  ResetPeakRss();

  // --- Inputs, generated from the seed. Not timed: this is the
  // benchmark making its data, not the system under test.
  std::vector<LearnInput> learn(4);
  {
    CoraConfig cora;
    cora.seed = config.seed * 101 + 1;
    learn[0].generated = GenerateCora(cora);
    SiderDrugbankConfig sider;
    sider.seed = config.seed * 101 + 2;
    learn[1].generated = GenerateSiderDrugbank(sider);
    NytConfig nyt;
    nyt.seed = config.seed * 101 + 3;
    learn[2].generated = GenerateNyt(nyt);
    DbpediaDrugbankConfig dbpedia;
    dbpedia.seed = config.seed * 101 + 4;
    learn[3].generated = GenerateDbpediaDrugbank(dbpedia);
  }
  SyntheticConfig person_config;
  person_config.num_entities = kPersonEntities;
  person_config.num_threads = kThreads;
  person_config.seed = config.seed * 101 + 5;
  const MatchingTask person = GenerateSynthetic(person_config);
  for (const LearnInput& input : learn) {
    result.fingerprints.emplace_back(input.generated.name,
                                     FingerprintTask(input.generated));
  }
  result.fingerprints.emplace_back("synthetic", FingerprintTask(person));

  Dataset person_a;
  Dataset person_b;
  std::vector<CsvInput> files;
  for (LearnInput& input : learn) {
    const std::string stem = config.workdir + "/" + input.generated.name;
    files.push_back({stem + "_a.csv", &input.generated.a, &input.a});
    if (!input.generated.dedup) {
      files.push_back({stem + "_b.csv", &input.generated.b, &input.b});
    }
  }
  files.push_back({config.workdir + "/person_a.csv", &person.a, &person_a});
  files.push_back({config.workdir + "/person_b.csv", &person.b, &person_b});
  for (const CsvInput& file : files) {
    bool encodable = true;
    const std::string csv =
        DatasetToCsv(*file.generated, kValueSeparator, &encodable);
    if (!encodable || !WriteFile(file.path, csv)) {
      result.Fail("cannot write input " + file.path);
      return result;
    }
  }

  // --- setup_s: decode every input the way `genlink learn/match` do.
  CsvDatasetOptions csv_options;
  csv_options.id_column = "id";
  csv_options.value_separator = kValueSeparator;
  std::vector<double> setup_seconds;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const int64_t start = NowNs();
    for (const CsvInput& file : files) {
      ScopedSpan span(tracer, "io.csv_decode");
      auto text = ReadFileToString(file.path);
      auto dataset = text.ok() ? ReadCsvDataset(*text, file.generated->name(),
                                                csv_options)
                               : Result<Dataset>(text.status());
      if (!dataset.ok()) {
        result.Fail("decode " + file.path + ": " +
                    dataset.status().ToString());
        return result;
      }
      *file.decoded = std::move(*dataset);
    }
    setup_seconds.push_back(SecondsSince(start));
  }
  for (const CsvInput& file : files) {
    if (!SameDataset(*file.generated, *file.decoded)) {
      result.Fail("CSV round trip changed " + file.path);
    }
  }
  if (!result.correct) return result;

  GenLinkConfig gp;
  gp.population_size = 500;
  gp.max_iterations = 50;
  gp.num_islands = 1;
  gp.num_threads = kThreads;
  // Every seed runs all 50 generations: with the default stop at
  // training F1 = 1.0, some seeds stop a data set early and the pass
  // does less work, which would read as a speed-up.
  gp.stop_f_measure = 1.1;

  const LinkageRule rule = PinnedRule();
  MatchOptions match_options;
  match_options.num_threads = kThreads;

  std::vector<double> generation_ms;
  std::vector<double> learn_seconds;
  std::vector<double> link_seconds;
  std::vector<double> encode_seconds;
  std::vector<double> build_seconds;
  std::vector<double> join_seconds;
  std::vector<double> pass_coverage;
  std::vector<double> first_val_f1(learn.size(), 0.0);
  std::vector<GeneratedLink> first_links;
  double link_f1 = 0.0;
  std::vector<EngineStats> eval_stats(learn.size());
  MatcherIndexStats index_stats;
  std::mt19937_64 sample_rng(config.seed);

  // A fixed number of passes for the run length, at least two. Each
  // pass learns with its own GP seeds, so the run's figures cover
  // several evolutions of the same data instead of repeating one; each
  // figure is the lower quartile over passes (stats.h LowerQuartile).
  const size_t passes = std::max<size_t>(
      2, static_cast<size_t>(config.seconds / kPassSeconds));
  std::vector<double> val_f1s;
  std::vector<double> pass_generation_p50;
  for (size_t pass = 0; pass < passes; ++pass) {
    const int64_t pass_span = tracer.Begin("bench.pass");
    const size_t generations_before = generation_ms.size();

    // --- Learn phase.
    const int64_t learn_start = NowNs();
    for (size_t t = 0; t < learn.size(); ++t) {
      const LearnInput& input = learn[t];
      const int64_t learn_span = tracer.Begin("gp.learn", pass_span);
      LearnRun run = LearnOnce(input, gp, LearnSeed(config.seed, pass, t),
                               nullptr);
      tracer.End(learn_span);
      ++result.attempted;
      if (!run.learned.ok() || run.learned->trajectory.iterations.empty()) {
        ++result.failed;
        result.Fail("learn " + input.generated.name + " failed");
        continue;
      }
      for (size_t g = 1; g < run.stamps.size(); ++g) {
        generation_ms.push_back(
            static_cast<double>(run.stamps[g] - run.stamps[g - 1]) * 1e-6);
        tracer.Add("gp.generation", run.stamps[g - 1], run.stamps[g],
                   learn_span);
      }
      const double val_f1 = run.learned->trajectory.iterations.back().val_f1;
      val_f1s.push_back(val_f1);
      if (pass == 0) {
        first_val_f1[t] = val_f1;
        eval_stats[t] = run.learned->eval_stats;
      }
    }
    learn_seconds.push_back(SecondsSince(learn_start));
    pass_generation_p50.push_back(
        Percentile(std::vector<double>(generation_ms.begin() +
                                           generations_before,
                                       generation_ms.end()),
                   50)
            .value_or(0.0));

    // --- Link phase: what `genlink match --out` does after decoding.
    const int64_t link_start = NowNs();
    std::shared_ptr<const MatcherIndex> index;
    {
      ScopedSpan span(tracer, "api.build", pass_span);
      const int64_t start = NowNs();
      index = MatcherIndex::Build(person_a, person_b, rule, match_options);
      build_seconds.push_back(SecondsSince(start));
    }
    std::vector<GeneratedLink> links;
    {
      ScopedSpan span(tracer, "matcher.join", pass_span);
      const int64_t start = NowNs();
      links = index->MatchDataset();
      join_seconds.push_back(SecondsSince(start));
    }
    {
      ScopedSpan span(tracer, "io.links_encode", pass_span);
      const int64_t start = NowNs();
      const std::string csv = WriteGeneratedLinksCsv(links);
      if (!WriteFile(config.workdir + "/links.csv", csv)) {
        result.Fail("cannot write links.csv");
      }
      encode_seconds.push_back(SecondsSince(start));
    }
    link_seconds.push_back(SecondsSince(link_start));
    index_stats = index->stats();
    tracer.End(pass_span);
    if (tracer.enabled()) {
      pass_coverage.push_back(Coverage(tracer.Spans(), pass_span));
    }

    // --- Checks: links are stable across passes, and a sample of them
    // re-scores bit-equal through the rule's own evaluator.
    ++result.attempted;
    bool link_ok = true;
    if (pass == 0) {
      first_links = links;
      link_f1 = ScoreLinks(links, person.links.positives()).F1();
    } else if (!SameLinks(links, first_links)) {
      link_ok = false;
      result.Fail("links differ between passes of one seed");
    }
    for (size_t k = 0; k < kRescoreSample && !links.empty(); ++k) {
      const GeneratedLink& link = links[sample_rng() % links.size()];
      const Entity* a = person_a.FindEntity(link.id_a);
      const Entity* b = person_b.FindEntity(link.id_b);
      if (a == nullptr || b == nullptr ||
          rule.Evaluate(*a, *b, person_a.schema(), person_b.schema()) !=
              link.score) {
        link_ok = false;
        result.Fail("link " + link.id_a + "," + link.id_b +
                    " does not re-score to its emitted score");
        break;
      }
    }
    if (links.empty()) {
      link_ok = false;
      result.Fail("link phase emitted no links");
    }
    if (!link_ok) ++result.failed;

  }
  double val_f1_mean = 0.0;
  for (double f1 : val_f1s) {
    val_f1_mean += f1 / static_cast<double>(val_f1s.size());
  }

  // The pinned rule finds ~0.92 of the generated duplicates; far less
  // means the matcher lost links, not that the data got harder.
  if (link_f1 < 0.8) {
    result.Fail("link F1 " + Fmt(link_f1) + " below the pinned rule's floor 0.8");
  }

  const double setup = Median(setup_seconds);
  result.end_to_end["setup_s"] = setup;
  result.end_to_end["peak_rss_mb"] = PeakRssMb();
  result.end_to_end["p50_ms"] = LowerQuartile(pass_generation_p50);
  result.end_to_end["batch_s"] = LowerQuartile(link_seconds);
  result.end_to_end["quality"] = val_f1_mean;

  result.report.push_back(
      "learn_link: passes=" + std::to_string(passes) +
      " generations=" + std::to_string(generation_ms.size()) +
      " learn_s=" + Fmt(LowerQuartile(learn_seconds)) +
      " learn_val_f1=" + Fmt(val_f1_mean) +
      " link_s=" + Fmt(LowerQuartile(link_seconds)) +
      " link_f1=" + Fmt(link_f1) +
      " links=" + std::to_string(first_links.size()) +
      " setup_s=" + Fmt(setup));

  if (tracer.enabled()) {
    auto& layers = result.layers;
    layers["gp.learn_s"] = LowerQuartile(learn_seconds);
    layers["gp.generation_s.p50"] = Median(generation_ms) * 1e-3;
    layers["gp.generation_s.max"] =
        generation_ms.empty()
            ? 0.0
            : *std::max_element(generation_ms.begin(), generation_ms.end()) *
                  1e-3;

    // Evaluation vs breeding: learn each data set once more, keeping
    // every generation's rules, and replay them through a fresh engine.
    // The replay's time is the evaluation share of each generation; the
    // rest of the generation is breeding. Runs after the timed passes.
    double evaluate_batch_s = 0.0;
    double breed_s = 0.0;
    for (size_t t = 0; t < learn.size(); ++t) {
      const LearnInput& input = learn[t];
      std::vector<std::vector<LinkageRule>> generations;
      LearnRun run =
          LearnOnce(input, gp, LearnSeed(config.seed, 0, t), &generations);
      auto pairs = run.folds[0].Resolve(input.a, input.Target());
      if (!run.learned.ok() || !pairs.ok() ||
          run.learned->trajectory.iterations.empty()) {
        result.Fail("eval replay of " + input.generated.name + " failed");
        continue;
      }
      // Learning is deterministic for a seed at any thread count.
      if (run.learned->trajectory.iterations.back().val_f1 != first_val_f1[t]) {
        ++result.failed;
        result.Fail("learn " + input.generated.name +
                    " is not deterministic: a second run of pass 0's seed "
                    "reached another validation F1");
      }
      EngineConfig engine_config;
      engine_config.num_threads = kThreads;
      EvaluationEngine engine(*pairs, input.a.schema(), input.Target().schema(),
                              gp.fitness, engine_config);
      double evaluate = 0.0;
      for (const std::vector<LinkageRule>& rules : generations) {
        std::vector<const LinkageRule*> pointers;
        pointers.reserve(rules.size());
        for (const LinkageRule& r : rules) pointers.push_back(&r);
        std::vector<FitnessResult> fitness(pointers.size());
        const int64_t start = NowNs();
        {
          ScopedSpan span(tracer, "eval.evaluate_batch");
          engine.EvaluateBatch(pointers, fitness);
        }
        evaluate += SecondsSince(start);
      }
      evaluate_batch_s += evaluate;
      breed_s += static_cast<double>(run.stamps.back() - run.stamps.front()) *
                     1e-9 -
                 evaluate;
    }
    layers["eval.evaluate_batch_s"] = evaluate_batch_s;
    layers["gp.breed_s"] = breed_s;
    EngineStats total;
    for (const EngineStats& s : eval_stats) {
      total.rules_evaluated += s.rules_evaluated;
      total.fitness_hits += s.fitness_hits;
      total.distance_row_hits += s.distance_row_hits;
      total.distance_rows_computed += s.distance_rows_computed;
      total.value_plans_compiled += s.value_plans_compiled;
      total.values_interned += s.values_interned;
    }
    layers["eval.rules_evaluated"] = static_cast<double>(total.rules_evaluated);
    layers["eval.fitness_hit_rate"] = total.FitnessHitRate();
    layers["eval.distance_row_hit_rate"] = total.DistanceRowHitRate();
    layers["eval.distance_rows_computed"] =
        static_cast<double>(total.distance_rows_computed);
    layers["eval.value_plans_compiled"] =
        static_cast<double>(total.value_plans_compiled);
    layers["eval.values_interned"] = static_cast<double>(total.values_interned);
    layers["gp.learn_val_f1"] = val_f1_mean;
    layers["io.csv_decode_s"] = setup;
    layers["io.links_encode_s"] = Median(encode_seconds);
    layers["api.build_s"] = Median(build_seconds);
    layers["api.store_bytes"] = static_cast<double>(index_stats.store_bytes);
    layers["matcher.blocking_postings"] =
        static_cast<double>(index_stats.blocking_postings);
    layers["matcher.join_s"] = Median(join_seconds);
    layers["matcher.link_f1"] = link_f1;

    // Candidate counts from a TokenBlockingIndex built with the index's
    // options over the properties the rule reads.
    const int64_t probe_start = NowNs();
    const int64_t probe_span = tracer.Begin("matcher.probe");
    TokenBlockingIndex blocking(person_b, TargetProperties(rule));
    std::unordered_map<std::string, size_t> b_slot;
    for (size_t i = 0; i < person_b.size(); ++i) {
      b_slot.emplace(person_b.entity(i).id(), i);
    }
    std::unordered_map<std::string, size_t> a_slot;
    for (size_t i = 0; i < person_a.size(); ++i) {
      a_slot.emplace(person_a.entity(i).id(), i);
    }
    std::vector<std::vector<size_t>> candidates(person_a.size());
    double total_candidates = 0.0;
    for (size_t i = 0; i < person_a.size(); ++i) {
      candidates[i] = blocking.Candidates(person_a.entity(i), person_a.schema());
      std::sort(candidates[i].begin(), candidates[i].end());
      total_candidates += static_cast<double>(candidates[i].size());
    }
    tracer.End(probe_span);
    layers["matcher.probe_s"] = SecondsSince(probe_start);
    size_t found = 0;
    size_t positives = 0;
    for (const ReferenceLink& link : person.links.positives()) {
      const auto a = a_slot.find(link.id_a);
      const auto b = b_slot.find(link.id_b);
      ++positives;
      if (a != a_slot.end() && b != b_slot.end() &&
          std::binary_search(candidates[a->second].begin(),
                             candidates[a->second].end(), b->second)) {
        ++found;
      }
    }
    layers["matcher.candidates"] = total_candidates;
    layers["matcher.link_yield"] =
        total_candidates > 0.0
            ? static_cast<double>(first_links.size()) / total_candidates
            : 0.0;
    layers["matcher.pairs_completeness"] =
        positives == 0 ? 0.0
                       : static_cast<double>(found) /
                             static_cast<double>(positives);
    layers["stage_coverage"] = Median(pass_coverage);
    AddLayerTotals(tracer, result);
  }
  return result;
}

}  // namespace perfbench
