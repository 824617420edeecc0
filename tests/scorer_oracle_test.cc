// Random-rule oracle for the interned scorers: every scoring surface
// that walks a rule through ScoreBySites (rule/operators.h) — the
// MatcherIndex query scorer over a value store and over a mapped corpus
// artifact, the live corpus's delta scorer, and CompiledRule behind the
// full join — must return links bit-identical to the operator-tree
// reference (reference_matcher.h) for rules nobody wrote by hand.
//
// Rules: a hand-built weighted-mean aggregation with more than eight
// operands (the heap branch of AggregateOperandScores), then 200 random
// rules from RuleGenerator in full mode, each nesting the roots of
// random rules under a random aggregation, with one comparison per rule
// cycling through every registered distance measure. Thresholds and
// best-match mode vary per rule, and every fourth rule runs without
// blocking.
//
// Rules with a filter plan (matcher/rule_filter.h) are checked against
// the reference's unblocked cross join, so for them blocked links must
// equal the cross join on every surface; the random-rule test prints how
// many rules were planned. PinnedRuleBlockedEqualsCrossJoin does the
// same for a copy of the benchmark's pinned person rule, whose
// removeDashes phone comparison token blocking cannot see through.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/matcher_index.h"
#include "common/random.h"
#include "datasets/restaurant.h"
#include "datasets/synthetic.h"
#include "distance/registry.h"
#include "gp/compatible_properties.h"
#include "gp/rule_generator.h"
#include "io/corpus_artifact.h"
#include "live/live_corpus.h"
#include "reference_matcher.h"
#include "rule/builder.h"

namespace genlink {
namespace {

constexpr size_t kRandomRules = 200;

MatchingTask SmallRestaurant() {
  RestaurantConfig config;
  config.scale = 0.4;
  return GenerateRestaurant(config);
}

LinkageRule WideAggregationRule() {
  auto rule =
      RuleBuilder()
          .Aggregate("max")
          .Aggregate("wmean", 2.0)
          .Compare("jaccard", 0.8, Prop("name").Lower().Tokenize(),
                   Prop("name").Lower().Tokenize(), 3.0)
          .Compare("dice", 0.7, Prop("name").Lower().Tokenize(),
                   Prop("name").Lower().Tokenize(), 2.0)
          .Compare("cosine", 0.6, Prop("address").Lower().Tokenize(),
                   Prop("address").Lower().Tokenize(), 4.0)
          .Compare("levenshtein", 3.0, Prop("address").Lower(),
                   Prop("address").Lower(), 5.0)
          .Compare("jaro", 0.3, Prop("name"), Prop("name"), 1.0)
          .Compare("jaroWinkler", 0.2, Prop("city").Lower(),
                   Prop("city").Lower(), 6.0)
          .Compare("equality", 0.5, Prop("type"), Prop("type"), 7.0)
          .Compare("numeric", 5.0, Prop("phone"), Prop("phone"), 8.0)
          .Compare("levenshtein", 2.0, Prop("phone"), Prop("phone"), 9.0)
          .Compare("jaccard", 0.9, Prop("city").Lower().Tokenize(),
                   Prop("address").Lower().Tokenize(), 10.0)
          .End()
          .Compare("levenshtein", 1.0, Prop("name").Lower(),
                   Prop("name").Lower())
          .End()
          .Build();
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return std::move(rule).value();
}

/// A random aggregation over the roots of one to three random rules
/// and one random comparison, whose measure is the `index`-th registered
/// measure (cycling), so every measure is reached.
LinkageRule RandomNestedRule(const RuleGenerator& generator, size_t index,
                             Rng& rng) {
  std::vector<std::unique_ptr<SimilarityOperator>> operands;
  const size_t subrules = 1 + rng.PickIndex(3);
  for (size_t k = 0; k < subrules; ++k) {
    LinkageRule sub = generator.RandomRule(rng);
    if (!sub.empty()) operands.push_back(std::move(sub.mutable_root()));
  }
  auto comparison = generator.RandomComparison(rng);
  auto& cmp = static_cast<ComparisonOperator&>(*comparison);
  const auto& measures = DistanceRegistry::Default().measures();
  cmp.set_measure(measures[index % measures.size()]);
  cmp.set_threshold(generator.RandomThreshold(*cmp.measure(), rng));
  operands.push_back(std::move(comparison));
  auto root = std::make_unique<AggregationOperator>(
      generator.RandomAggregationFunction(rng), std::move(operands));
  root->set_weight(generator.RandomWeight(rng));
  return LinkageRule(std::move(root));
}

class ScorerOracleTest : public ::testing::Test {
 protected:
  ScorerOracleTest() : task_(SmallRestaurant()), base_("restaurant-base") {
    const Dataset& corpus = task_.a;
    for (const std::string& name : corpus.schema().property_names()) {
      base_.schema().AddProperty(name);
    }
    // The live corpus starts from the first half; the second half
    // arrives as upserts.
    const size_t half = corpus.size() / 2;
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (i < half) {
        EXPECT_TRUE(base_.AddEntity(corpus.entity(i)).ok());
      } else {
        LiveOp op;
        op.entity = corpus.entity(i);
        upserts_.push_back(std::move(op));
      }
    }
    // Queries: corpus records (their own id is skipped) and renamed
    // copies (which may link to the record they copy).
    Rng rng(17);
    for (size_t q = 0; q < 8; ++q) {
      Entity query = corpus.entity(rng.PickIndex(corpus.size()));
      if (q % 2 == 1) query.set_id("query_" + query.id());
      queries_.push_back(std::move(query));
    }
    // Named after the running test: ctest -j runs each test in its own
    // process at the same time, and a shared file name would let them
    // overwrite each other's artifact mid-test.
    artifact_path_ = ::testing::TempDir() + "scorer_oracle_" +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name() +
                     ".glidx";
  }

  /// Checks every surface against the reference for one rule. Returns
  /// true when the reference produced at least one link.
  bool CheckRule(const LinkageRule& rule, const MatchOptions& options,
                 bool check_full_join, const std::string& label) {
    const Dataset& corpus = task_.a;
    const Schema& schema = corpus.schema();
    const ReferenceMatcher reference(rule, corpus, options);
    std::vector<std::vector<GeneratedLink>> expected;
    bool linked = false;
    for (const Entity& query : queries_) {
      expected.push_back(
          reference.MatchEntity(query, schema, /*skip_own_id=*/true));
      linked = linked || !expected.back().empty();
    }
    const auto check = [&](const auto& surface, const std::string& name) {
      for (size_t q = 0; q < queries_.size(); ++q) {
        ExpectSameLinks(surface.MatchEntity(queries_[q], schema), expected[q],
                        label + " " + name + " query " + std::to_string(q));
      }
    };

    check(*MatcherIndex::Build(corpus, rule, options), "dataset");

    EXPECT_TRUE(
        WriteCorpusArtifact(artifact_path_, corpus, rule, options).ok())
        << label;
    auto mapped = MappedCorpus::Load(artifact_path_);
    EXPECT_TRUE(mapped.ok()) << label << ": " << mapped.status().ToString();
    if (mapped.ok()) {
      auto index = MatcherIndex::Build(*mapped, rule, options);
      EXPECT_TRUE(index.ok()) << label << ": " << index.status().ToString();
      if (index.ok()) check(**index, "mapped");
    }

    auto live = LiveCorpus::Create(base_, rule, options);
    EXPECT_TRUE(live.ok()) << label << ": " << live.status().ToString();
    if (live.ok()) {
      const std::span<const LiveOp> ops(upserts_);
      const size_t batch = 64;
      for (size_t begin = 0; begin < ops.size(); begin += batch) {
        EXPECT_TRUE((*live)
                        ->ApplyBatch(ops.subspan(begin, std::min(
                                                           batch,
                                                           ops.size() - begin)),
                                     schema)
                        .ok())
            << label;
      }
      check(**live, "live");
    }

    if (check_full_join) {
      ExpectSameLinks(
          MatcherIndex::Build(corpus, corpus, rule, options)->MatchDataset(),
          reference.MatchDataset(corpus), label + " full join");
    }
    return linked;
  }

  MatchingTask task_;
  Dataset base_;
  std::vector<LiveOp> upserts_;
  std::vector<Entity> queries_;
  std::string artifact_path_;
};

TEST_F(ScorerOracleTest, WideAggregationMatchesReference) {
  for (bool best_match_only : {false, true}) {
    MatchOptions options;
    options.num_threads = 1;
    options.threshold = 0.3;
    options.best_match_only = best_match_only;
    EXPECT_TRUE(CheckRule(WideAggregationRule(), options,
                          /*check_full_join=*/true,
                          "wide best_match=" + std::to_string(best_match_only)));
  }
}

TEST_F(ScorerOracleTest, RandomRulesMatchReferenceOnEverySurface) {
  Rng rng(2012);
  const std::vector<CompatiblePair> pairs =
      FindCompatibleProperties(task_.a, task_.a, task_.links, {}, rng);
  RuleGeneratorConfig config;
  config.mode = RepresentationMode::kFull;
  const RuleGenerator generator(pairs, task_.a.schema().property_names(),
                                task_.a.schema().property_names(), config);
  const double thresholds[] = {0.5, 0.25, 0.05};
  size_t linked_rules = 0;
  size_t planned_rules = 0;
  for (size_t i = 0; i < kRandomRules; ++i) {
    const LinkageRule rule = RandomNestedRule(generator, i, rng);
    MatchOptions options;
    options.num_threads = 1;
    options.threshold = thresholds[i % 3];
    options.best_match_only = i % 5 == 0;
    options.use_blocking = i % 4 != 1;
    if (options.use_blocking &&
        DeriveFilterPlan(rule, options.threshold).has_value()) {
      ++planned_rules;
    }
    if (CheckRule(rule, options, /*check_full_join=*/i % 25 == 0,
                  "rule " + std::to_string(i))) {
      ++linked_rules;
    }
    if (HasFatalFailure() || HasNonfatalFailure()) {
      ADD_FAILURE() << "first failing rule " << i;
      return;
    }
  }
  // Not vacuous: most random rules link something for these queries,
  // and some blocked rules take their candidates from a filter plan.
  EXPECT_GE(linked_rules, kRandomRules / 4);
  std::printf("planned rules: %zu of %zu\n", planned_rules, kRandomRules);
  EXPECT_GE(planned_rules, 10u);
}

// perfbench's pinned rule (perfbench/common.cc PinnedRule), copied:
// an exact phone match after removeDashes, or a name within two edits
// together with a phone within four. Its plan is an exact phone lookup
// plus a name q-gram probe; blocked links must equal the cross join on
// the full join and on every query surface.
TEST(PinnedRuleTest, PinnedRuleBlockedEqualsCrossJoin) {
  const auto name = [] {
    return Prop("name").Transform("stripPunctuation").Lower();
  };
  const auto phone = [] { return Prop("phone").Transform("removeDashes"); };
  auto built = RuleBuilder()
                   .Aggregate("max")
                   .Compare("levenshtein", 1.0, phone(), phone())
                   .Aggregate("min")
                   .Compare("levenshtein", 4.0, name(), name())
                   .Compare("levenshtein", 8.0, phone(), phone())
                   .End()
                   .End()
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const LinkageRule rule = std::move(built).value();
  const auto plan = DeriveFilterPlan(rule, 0.5);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->probes.size(), 2u);

  SyntheticConfig config;
  config.num_entities = 1200;
  config.seed = 7;
  const MatchingTask task = GenerateSynthetic(config);
  MatchOptions blocked;
  blocked.num_threads = 2;
  MatchOptions cross = blocked;
  cross.use_blocking = false;

  const auto index = MatcherIndex::Build(task.a, task.b, rule, blocked);
  ASSERT_NE(index->filter_plan(), nullptr);
  const auto links = index->MatchDataset();
  const auto cross_links =
      MatcherIndex::Build(task.a, task.b, rule, cross)->MatchDataset();
  ASSERT_GT(cross_links.size(), 100u);
  ExpectSameLinks(links, cross_links, "pinned full join");

  // Query surfaces over the target: dataset, mapped and live, against
  // the reference (a cross join for a planned rule).
  const ReferenceMatcher reference(rule, task.b, blocked);
  const std::string path = ::testing::TempDir() + "scorer_oracle_pinned.glidx";
  ASSERT_TRUE(WriteCorpusArtifact(path, task.b, rule, blocked).ok());
  auto mapped = MappedCorpus::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto mapped_index = MatcherIndex::Build(*mapped, rule, blocked);
  ASSERT_TRUE(mapped_index.ok()) << mapped_index.status().ToString();
  const auto serving = MatcherIndex::Build(task.b, rule, blocked);
  // The live corpus starts from the first half of the target; the
  // second half arrives as upserts.
  Dataset base("pinned-base");
  for (const std::string& property : task.b.schema().property_names()) {
    base.schema().AddProperty(property);
  }
  std::vector<LiveOp> upserts;
  for (size_t i = 0; i < task.b.size(); ++i) {
    if (i < task.b.size() / 2) {
      ASSERT_TRUE(base.AddEntity(task.b.entity(i)).ok());
    } else {
      LiveOp op;
      op.entity = task.b.entity(i);
      upserts.push_back(std::move(op));
    }
  }
  auto live = LiveCorpus::Create(base, rule, blocked);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE((*live)->ApplyBatch(upserts, task.b.schema()).ok());

  size_t linked = 0;
  for (size_t q = 0; q < task.a.size(); q += 15) {
    const Entity& query = task.a.entity(q);
    const auto expected =
        reference.MatchEntity(query, task.a.schema(), /*skip_own_id=*/true);
    linked += expected.empty() ? 0 : 1;
    const std::string label = "pinned query " + query.id();
    ExpectSameLinks(serving->MatchEntity(query, task.a.schema()), expected,
                    label + " dataset");
    ExpectSameLinks((*mapped_index)->MatchEntity(query, task.a.schema()),
                    expected, label + " mapped");
    ExpectSameLinks((*live)->MatchEntity(query, task.a.schema()), expected,
                    label + " live");
  }
  EXPECT_GT(linked, 10u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace genlink
