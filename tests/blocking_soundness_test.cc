// Soundness of token blocking on the Restaurant data set: the candidate
// sets produced by TokenBlockingIndex must be a superset of the true
// matches found by exhaustive cross-product execution, i.e. blocking may
// only ever *add* work, never lose a link (blocking recall = 1.0).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "datasets/noise.h"
#include "datasets/restaurant.h"
#include "distance/string_distances.h"
#include "matcher/matcher.h"
#include "matcher/rule_filter.h"
#include "rule/builder.h"

namespace genlink {
namespace {

class BlockingSoundnessTest : public ::testing::Test {
 protected:
  void SetUp() override { task_ = GenerateRestaurant(RestaurantConfig{}); }

  // A realistic learned-style rule over the properties the paper's
  // Restaurant runs converge to (name + address + phone).
  LinkageRule MakeRule() {
    auto rule = RuleBuilder()
                    .Aggregate("wmean")
                    .Compare("levenshtein", 3.0, Prop("name").Lower(),
                             Prop("name").Lower())
                    .Compare("jaccard", 0.6, Prop("address").Lower().Tokenize(),
                             Prop("address").Lower().Tokenize())
                    .Compare("levenshtein", 2.0, Prop("phone"), Prop("phone"))
                    .End()
                    .Build();
    EXPECT_TRUE(rule.ok()) << rule.status().ToString();
    return rule.ok() ? std::move(*rule) : LinkageRule();
  }

  static std::set<std::pair<std::string, std::string>> ToPairs(
      const std::vector<GeneratedLink>& links) {
    std::set<std::pair<std::string, std::string>> pairs;
    for (const auto& link : links) pairs.insert({link.id_a, link.id_b});
    return pairs;
  }

  MatchingTask task_;
};

TEST_F(BlockingSoundnessTest, CandidatesSupersetOfCrossProductMatches) {
  LinkageRule rule = MakeRule();
  MatchOptions exhaustive;
  exhaustive.use_blocking = false;
  MatchOptions blocked;
  blocked.use_blocking = true;

  auto full = ToPairs(GenerateLinks(rule, task_.Source(), task_.Target(),
                                    exhaustive));
  auto with_blocking =
      ToPairs(GenerateLinks(rule, task_.Source(), task_.Target(), blocked));

  // Every link the exhaustive cross product finds must survive blocking.
  ASSERT_FALSE(full.empty());
  for (const auto& link : full) {
    EXPECT_TRUE(with_blocking.count(link))
        << "blocking dropped " << link.first << " - " << link.second;
  }
  // And blocking cannot invent links either: the sets are equal.
  EXPECT_EQ(full, with_blocking);
}

TEST_F(BlockingSoundnessTest, CandidateSetsContainReferenceMatches) {
  // Index the target over the rule's target-side properties, exactly as
  // the matcher does, and probe with every positive reference link.
  LinkageRule rule = MakeRule();
  TokenBlockingIndex index(task_.Target(), TargetProperties(rule));
  for (const ReferenceLink& link : task_.links.positives()) {
    const Entity* a = task_.Source().FindEntity(link.id_a);
    ASSERT_NE(a, nullptr);
    bool found = false;
    for (size_t j : index.Candidates(*a, task_.Source().schema())) {
      if (task_.Target().entity(j).id() == link.id_b) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "blocking lost reference match " << link.id_a
                       << " - " << link.id_b;
  }
}

TEST_F(BlockingSoundnessTest, BlockingRecallIsOneOnReferenceLinks) {
  LinkageRule rule = MakeRule();
  TokenBlockingIndex index(task_.Target(), TargetProperties(rule));
  EXPECT_DOUBLE_EQ(BlockingRecall(index, task_.Source(), task_.Target(),
                                  task_.links),
                   1.0);
}

// An all-properties index (what `match` uses before a rule is known to
// read specific properties) is at least as complete.
TEST_F(BlockingSoundnessTest, AllPropertyIndexRecallIsOne) {
  TokenBlockingIndex index(task_.Target());
  EXPECT_DOUBLE_EQ(BlockingRecall(index, task_.Source(), task_.Target(),
                                  task_.links),
                   1.0);
}

// ---------------------------------------------------------------------------
// The Levenshtein prefilters (length + prefix masks) run before the
// kernels inside the candidate loop. Soundness means: a rejected pair's
// true edit distance always exceeds the bound, so skipping it is
// indistinguishable from scoring it — ThresholdedScore maps every
// distance > bound to similarity 0 either way.

TEST(LevenshteinPrefilterTest, FuzzNeverDropsAPairWithinBound) {
  Rng rng(20260807);
  const double bounds[] = {0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5};
  for (int iter = 0; iter < 10000; ++iter) {
    // A base word and a mutated partner: typos keep many pairs near the
    // bound boundary, fresh words and prefix/suffix chops exercise the
    // far side and length mismatches.
    std::string a = RandomWord(1 + rng.PickIndex(16), rng);
    std::string b;
    switch (rng.PickIndex(4)) {
      case 0:
        b = InjectTypos(a, 1 + rng.PickIndex(4), rng);
        break;
      case 1:
        b = RandomWord(1 + rng.PickIndex(16), rng);
        break;
      case 2:
        b = a.substr(rng.PickIndex(a.size() + 1));
        break;
      default:
        b = a + RandomWord(1 + rng.PickIndex(6), rng);
        break;
    }
    const int distance = LevenshteinEditDistanceReference(a, b);
    for (const double bound : bounds) {
      if (!PassesLevenshteinLengthFilter(a, b, bound)) {
        EXPECT_GT(static_cast<double>(distance), bound)
            << "length filter dropped \"" << a << "\" / \"" << b << "\"";
      }
      if (!PassesLevenshteinPrefixFilter(a, b, bound)) {
        EXPECT_GT(static_cast<double>(distance), bound)
            << "prefix filter dropped \"" << a << "\" / \"" << b << "\"";
      }
    }
  }
}

TEST(LevenshteinPrefilterTest, FuzzBoundedDistanceStaysBitIdentical) {
  // End-to-end through the measure: the filtered BoundedValueDistance
  // must give the same thresholded similarity as the reference kernel
  // for every pair and bound.
  Rng rng(777);
  LevenshteinDistance measure;
  const double bounds[] = {0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5};
  for (int iter = 0; iter < 10000; ++iter) {
    std::string a = RandomWord(1 + rng.PickIndex(14), rng);
    std::string b = rng.Bernoulli(0.5)
                        ? InjectTypos(a, 1 + rng.PickIndex(5), rng)
                        : RandomWord(1 + rng.PickIndex(14), rng);
    const double distance =
        static_cast<double>(LevenshteinEditDistanceReference(a, b));
    for (const double bound : bounds) {
      const double bounded = measure.BoundedValueDistance(a, b, bound);
      if (distance <= bound) {
        // Within the bound the exact distance must come back.
        EXPECT_EQ(bounded, distance)
            << "\"" << a << "\" / \"" << b << "\" bound " << bound;
      } else {
        // Beyond it, any value > bound is allowed (the contract
        // ThresholdedScore relies on), but it must exceed the bound.
        EXPECT_GT(bounded, bound)
            << "\"" << a << "\" / \"" << b << "\" bound " << bound;
      }
    }
  }
}

// Past the bound the measure returns exactly floor(bound)+1 on both
// kernel paths (Myers up to 64 characters, the banded program beyond),
// and 1 for a negative bound, which admits no distance: 0 would read as
// an exact match to ThresholdedScore.
TEST(LevenshteinPrefilterTest, BeyondTheBoundIsFloorPlusOne) {
  Rng rng(4242);
  LevenshteinDistance measure;
  const double bounds[] = {-0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5};
  for (int iter = 0; iter < 4000; ++iter) {
    const size_t length = iter % 2 == 0 ? 1 + rng.PickIndex(14)
                                        : 60 + rng.PickIndex(30);
    std::string a = RandomWord(length, rng);
    std::string b = rng.Bernoulli(0.5)
                        ? InjectTypos(a, 1 + rng.PickIndex(6), rng)
                        : RandomWord(length + rng.PickIndex(3), rng);
    const double distance =
        static_cast<double>(LevenshteinEditDistanceReference(a, b));
    for (const double bound : bounds) {
      const double bounded = measure.BoundedValueDistance(a, b, bound);
      if (distance <= bound) {
        EXPECT_EQ(bounded, distance) << a << " / " << b << " bound " << bound;
      } else if (bound < static_cast<double>(std::max(a.size(), b.size()))) {
        EXPECT_EQ(bounded, std::floor(std::max(bound, 0.0)) + 1.0)
            << a << " / " << b << " bound " << bound;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule-derived blocking (matcher/rule_filter.h). The filters are
// necessary conditions: a target value within edit distance k of the
// query must always come back from FilterColumn::Probe.

/// A small alphabet keeps many random pairs within a few edits.
std::string NearWord(size_t length, Rng& rng) {
  std::string word;
  for (size_t i = 0; i < length; ++i) {
    word.push_back(static_cast<char>('a' + rng.PickIndex(4)));
  }
  return word;
}

TEST(RuleFilterSoundnessTest, FuzzLengthAndQGramFiltersNeverDropAValue) {
  Rng rng(20261020);
  for (int round = 0; round < 30; ++round) {
    // Target rows of zero to two values, lengths 0..12 so the
    // length-bucket scan (count bound <= 0) and the count filter both
    // run; a few values repeat across rows.
    const size_t rows = 40 + rng.PickIndex(40);
    std::vector<std::vector<std::string>> values(rows);
    for (auto& row : values) {
      const size_t count = rng.PickIndex(3);
      for (size_t i = 0; i < count; ++i) {
        row.push_back(rng.Bernoulli(0.1) && !values[0].empty()
                          ? values[0][0]
                          : NearWord(rng.PickIndex(13), rng));
      }
    }
    const auto column = FilterColumn::Build(
        rows,
        [&](size_t row, std::vector<std::string_view>& out) {
          for (const std::string& value : values[row]) out.push_back(value);
        },
        /*grams=*/round % 5 != 4);
    // Every fifth round indexes no q-grams: a probe with a bound then
    // admits its whole length window. The serialized words map back to
    // an equivalent column.
    auto mapped = FilterColumn::FromWords(column->words(), rows);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

    for (int query_index = 0; query_index < 25; ++query_index) {
      const std::string query =
          rng.Bernoulli(0.5) && !values[query_index % rows].empty()
              ? InjectTypos(values[query_index % rows][0], rng.PickIndex(3), rng)
              : NearWord(rng.PickIndex(13), rng);
      for (int bound = 0; bound <= 4; ++bound) {
        for (const FilterColumn* probed : {column.get(), mapped->get()}) {
          std::set<uint32_t> admitted;
          probed->Probe(query, bound,
                        [&](uint32_t row) { admitted.insert(row); });
          for (size_t row = 0; row < rows; ++row) {
            for (const std::string& value : values[row]) {
              if (LevenshteinEditDistanceReference(query, value) <= bound) {
                EXPECT_TRUE(admitted.count(static_cast<uint32_t>(row)))
                    << "k=" << bound << " dropped \"" << value
                    << "\" for query \"" << query << "\"";
              }
            }
          }
        }
      }
    }
  }
}

TEST(RuleFilterSoundnessTest, CorruptColumnWordsAreRejected) {
  const std::vector<std::string> values = {"alpha", "beta", "gamma", "al"};
  const auto column = FilterColumn::Build(
      values.size(),
      [&](size_t row, std::vector<std::string_view>& out) {
        out.push_back(values[row]);
      },
      /*grams=*/true);
  const std::span<const uint32_t> words = column->words();
  // Every truncation fails; rows must be below the declared row count.
  for (size_t size = 0; size < words.size(); ++size) {
    EXPECT_FALSE(FilterColumn::FromWords(words.subspan(0, size), values.size()).ok());
  }
  EXPECT_FALSE(FilterColumn::FromWords(words, values.size() - 1).ok());
  EXPECT_TRUE(FilterColumn::FromWords(words, values.size()).ok());
  // A corrupted word either fails validation or leaves a column whose
  // probes stay in bounds (the sanitizer builds check the reads) and
  // emit only declared rows.
  for (size_t at = 0; at < words.size(); ++at) {
    for (const uint32_t flip : {1u, 0x80u, 0x10000u, 0xFFFFFFFFu}) {
      std::vector<uint32_t> corrupted(words.begin(), words.end());
      corrupted[at] ^= flip;
      auto column = FilterColumn::FromWords(corrupted, values.size());
      if (!column.ok()) continue;
      for (const std::string query : {"alpha", "gamm", "", "zzzzzzzz"}) {
        for (int bound = 0; bound <= 2; ++bound) {
          (*column)->Probe(query, bound, [&](uint32_t row) {
            EXPECT_LT(row, values.size());
          });
        }
      }
    }
  }
}

// The bound of a comparison comes from the exact double predicate
// ThresholdedScore(d, θ) >= t. These (θ, t) pairs put θ(1-t) at an
// integer in exact arithmetic, and rounding moves the double product to
// the other side: floor(θ * (1 - t)) would be one too small (losing the
// links at that distance) or one too large.
TEST(RuleFilterSoundnessTest, BoundDerivationUsesTheExactPredicate) {
  struct Case {
    double theta;
    double t;
    int bound;
  };
  const Case cases[] = {
      {5.0, 0.8, 1},              // 5 * (1 - 0.8) = 0.99999999999999978
      {5.0, 0.2, 3},              // 5 * (1 - 0.2) = 4, but 1 - 4/5 < 0.2
      {2.5, 0.2, 1},              // 2.5 * 0.8 = 2, but 1 - 2/2.5 < 0.2
      {3.0, 1.0 - 1.0 / 3.0, 1},  // 3 * (1 - t) rounds below 1
      {1.9, 1.0 - 1.0 / 1.9, 1},
      {3.8, 1.0 - 2.0 / 3.8, 2},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(MaxPassingDistance(c.theta, c.t, kMaxFilterBound), c.bound)
        << "theta " << c.theta << " t " << c.t;
    EXPECT_NE(static_cast<int>(std::floor(c.theta * (1.0 - c.t))), c.bound)
        << "theta " << c.theta << " t " << c.t
        << " is not a rounding case";
  }
  // Brute force over a grid, k in 0..4 and beyond: the derived bound is
  // exactly the largest passing distance.
  for (int theta10 = 0; theta10 <= 80; ++theta10) {
    const double theta = theta10 / 10.0;
    for (int j = 0; j <= 8; ++j) {
      for (const double t : {0.1, 0.25, 0.5, 0.8, theta > 0 ? 1.0 - j / theta : 0.5}) {
        if (!(t > 0.0)) continue;
        int expected = -1;
        while (expected + 1 <= kMaxFilterBound &&
               ThresholdedScore(expected + 1, theta) >= t) {
          ++expected;
        }
        const std::optional<int> derived =
            MaxPassingDistance(theta, t, kMaxFilterBound);
        if (ThresholdedScore(kMaxFilterBound + 1, theta) >= t) {
          EXPECT_FALSE(derived.has_value());
        } else {
          ASSERT_TRUE(derived.has_value());
          EXPECT_EQ(*derived, expected) << "theta " << theta << " t " << t;
        }
      }
    }
  }
}

TEST(RuleFilterSoundnessTest, PlanShapes) {
  // max / wmean: the union; min: one operand, exact first.
  auto max_rule = RuleBuilder()
                      .Aggregate("max")
                      .Compare("levenshtein", 1.0, Prop("phone"), Prop("phone"))
                      .Aggregate("min")
                      .Compare("levenshtein", 4.0, Prop("name"), Prop("name"))
                      .Compare("levenshtein", 8.0, Prop("phone"), Prop("phone"))
                      .End()
                      .End()
                      .Build();
  ASSERT_TRUE(max_rule.ok());
  auto plan = DeriveFilterPlan(*max_rule, 0.5);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->probes.size(), 2u);
  EXPECT_EQ(plan->probes[0].comparison, 0u);
  EXPECT_EQ(plan->probes[0].bound, 0);
  EXPECT_EQ(plan->probes[1].comparison, 1u);  // the name, bound 2 < 4
  EXPECT_EQ(plan->probes[1].bound, 2);

  auto min_exact = RuleBuilder()
                       .Aggregate("min")
                       .Compare("levenshtein", 2.0, Prop("name"), Prop("name"))
                       .Compare("equality", 0.0, Prop("phone"), Prop("phone"))
                       .End()
                       .Build();
  ASSERT_TRUE(min_exact.ok());
  plan = DeriveFilterPlan(*min_exact, 0.5);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->probes.size(), 1u);
  EXPECT_EQ(plan->probes[0].comparison, 1u);

  // A union member without a filter, a zero weight, t <= 0: no plan.
  auto with_jaccard = RuleBuilder()
                          .Aggregate("max")
                          .Compare("levenshtein", 2.0, Prop("name"), Prop("name"))
                          .Compare("jaccard", 0.5, Prop("name").Tokenize(),
                                   Prop("name").Tokenize())
                          .End()
                          .Build();
  ASSERT_TRUE(with_jaccard.ok());
  EXPECT_FALSE(DeriveFilterPlan(*with_jaccard, 0.5).has_value());
  auto single =
      RuleBuilder().Compare("levenshtein", 2.0, Prop("name"), Prop("name")).Build();
  ASSERT_TRUE(single.ok());
  EXPECT_FALSE(DeriveFilterPlan(*single, 0.0).has_value());
  ASSERT_TRUE(DeriveFilterPlan(*single, 0.5).has_value());
  auto zero_weight = RuleBuilder()
                         .Aggregate("wmean")
                         .Compare("levenshtein", 2.0, Prop("name"), Prop("name"))
                         .Compare("levenshtein", 2.0, Prop("city"), Prop("city"))
                         .End()
                         .Build();
  ASSERT_TRUE(zero_weight.ok());
  EXPECT_TRUE(DeriveFilterPlan(*zero_weight, 0.5).has_value());
  CollectComparisons(*zero_weight)[0]->set_weight(0.0);
  EXPECT_FALSE(DeriveFilterPlan(*zero_weight, 0.5).has_value());
  // Subnormal weights: each w*0.6 rounds up to w = 5e-324, so the mean
  // of two operands scoring 0.6 reads 1.0 and passes t = 0.9 although
  // neither operand does. Such a rule has no plan; at the 2^-900 floor
  // no product underflows and the plan stands.
  for (ComparisonOperator* cmp : CollectComparisons(*zero_weight)) {
    cmp->set_weight(5e-324);
  }
  EXPECT_FALSE(DeriveFilterPlan(*zero_weight, 0.9).has_value());
  for (ComparisonOperator* cmp : CollectComparisons(*zero_weight)) {
    cmp->set_weight(0x1p-900);
  }
  EXPECT_TRUE(DeriveFilterPlan(*zero_weight, 0.9).has_value());
  // A comparison that can never reach t leaves an empty plan (no
  // candidates) rather than no plan.
  plan = DeriveFilterPlan(*single, 1.5);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->probes.empty());
}

}  // namespace
}  // namespace genlink
