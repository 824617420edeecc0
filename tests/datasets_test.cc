// Tests for the six synthetic dataset generators: entity/link counts,
// schema widths and coverages matching Tables 5-6 of the paper (at the
// generated scale), resolvability of every reference link, determinism,
// and the planted structure (remake corner cases, identifier formats).

#include <set>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datasets/cora.h"
#include "datasets/dbpedia_drugbank.h"
#include "datasets/linkedmdb.h"
#include "datasets/noise.h"
#include "datasets/nyt.h"
#include "datasets/restaurant.h"
#include "datasets/sider_drugbank.h"
#include "model/property_stats.h"

namespace genlink {
namespace {

void ExpectLinksResolve(const MatchingTask& task) {
  auto resolved = task.links.Resolve(task.Source(), task.Target());
  ASSERT_TRUE(resolved.ok()) << task.name << ": " << resolved.status().ToString();
  EXPECT_EQ(resolved->size(), task.links.size());
}

// ---------------------------------------------------------------- noise

TEST(NoiseTest, TypoChangesStringSlightly) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    std::string noisy = InjectTypo("reference", rng);
    EXPECT_GE(noisy.size(), 8u);
    EXPECT_LE(noisy.size(), 10u);
  }
  EXPECT_EQ(InjectTypo("", rng), "");
}

TEST(NoiseTest, ShuffleAndDropPreserveTokens) {
  Rng rng(2);
  std::string shuffled = ShuffleTokens("a b c d", rng);
  EXPECT_EQ(SplitWhitespace(shuffled).size(), 4u);
  std::string dropped = DropRandomToken("a b c d", rng);
  EXPECT_EQ(SplitWhitespace(dropped).size(), 3u);
  EXPECT_EQ(DropRandomToken("single", rng), "single");
}

TEST(NoiseTest, AbbreviateKeepsFirstLetter) {
  Rng rng(3);
  std::string abbreviated = AbbreviateTokens("jonathan smithson", 1.0, rng);
  EXPECT_EQ(abbreviated, "j. s.");
}

TEST(NoiseTest, FillerPropertiesHitTargetCoverage) {
  Dataset ds("test");
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(ds.AddEntity(Entity("e" + std::to_string(i))).ok());
  }
  Rng rng(4);
  AddFillerProperties(ds, 10, 0.4, "p", rng);
  EXPECT_EQ(ds.schema().NumProperties(), 10u);
  PropertyStats stats = ComputePropertyStats(ds);
  EXPECT_NEAR(stats.MeanCoverage(), 0.4, 0.05);
}

// ----------------------------------------------------------------- Cora

TEST(CoraTest, FullScaleMatchesTable5) {
  MatchingTask task = GenerateCora();
  EXPECT_EQ(task.a.size(), 1879u);
  EXPECT_EQ(task.links.positives().size(), 1617u);
  EXPECT_EQ(task.links.negatives().size(), 1617u);
  EXPECT_EQ(task.a.schema().NumProperties(), 4u);  // Table 6
  EXPECT_TRUE(task.dedup);
  ExpectLinksResolve(task);
}

TEST(CoraTest, CoverageNearTable6) {
  MatchingTask task = GenerateCora();
  PropertyStats stats = ComputePropertyStats(task.a);
  EXPECT_NEAR(stats.MeanCoverage(), 0.8, 0.1);  // Table 6: 0.8
}

TEST(CoraTest, DeterministicAndScalable) {
  CoraConfig config;
  config.scale = 0.1;
  MatchingTask t1 = GenerateCora(config);
  MatchingTask t2 = GenerateCora(config);
  EXPECT_EQ(t1.a.size(), t2.a.size());
  EXPECT_EQ(t1.a.size(), 187u);
  ASSERT_GT(t1.a.size(), 0u);
  auto title = t1.a.schema().FindProperty("title");
  ASSERT_TRUE(title.has_value());
  EXPECT_EQ(t1.a.entity(0).Values(*title), t2.a.entity(0).Values(*title));
}

TEST(CoraTest, PositiveLinksShareUnderlyingPaper) {
  CoraConfig config;
  config.scale = 0.2;
  MatchingTask task = GenerateCora(config);
  auto resolved = task.links.Resolve(task.Source(), task.Target());
  ASSERT_TRUE(resolved.ok());
  auto date = task.a.schema().FindProperty("date");
  ASSERT_TRUE(date.has_value());
  // Co-referent citations that both carry a date must agree on it.
  for (const auto& pair : *resolved) {
    if (!pair.is_match) continue;
    const ValueSet& da = pair.a->Values(*date);
    const ValueSet& db = pair.b->Values(*date);
    if (!da.empty() && !db.empty()) {
      EXPECT_EQ(da[0], db[0]);
    }
  }
}

// ------------------------------------------------------------ Restaurant

TEST(RestaurantTest, FullScaleMatchesTable5) {
  MatchingTask task = GenerateRestaurant();
  EXPECT_EQ(task.a.size(), 864u);
  EXPECT_EQ(task.links.positives().size(), 112u);
  EXPECT_EQ(task.a.schema().NumProperties(), 5u);
  ExpectLinksResolve(task);
}

TEST(RestaurantTest, FullCoveragePerTable6) {
  MatchingTask task = GenerateRestaurant();
  PropertyStats stats = ComputePropertyStats(task.a);
  EXPECT_DOUBLE_EQ(stats.MeanCoverage(), 1.0);
}

// --------------------------------------------------------- SiderDrugbank

TEST(SiderDrugbankTest, ScaledCountsAndSchemas) {
  SiderDrugbankConfig config;
  config.scale = 0.05;
  MatchingTask task = GenerateSiderDrugbank(config);
  EXPECT_EQ(task.a.size(), 46u);   // 924 * 0.05
  EXPECT_EQ(task.b.size(), 238u);  // 4772 * 0.05
  EXPECT_EQ(task.a.schema().NumProperties(), 8u);   // Table 6
  EXPECT_EQ(task.b.schema().NumProperties(), 79u);  // Table 6
  ExpectLinksResolve(task);
}

TEST(SiderDrugbankTest, DrugbankCoverageNearHalf) {
  SiderDrugbankConfig config;
  config.scale = 0.2;
  MatchingTask task = GenerateSiderDrugbank(config);
  PropertyStats stats = ComputePropertyStats(task.b);
  EXPECT_NEAR(stats.MeanCoverage(), 0.5, 0.12);  // Table 6: 0.5
}

TEST(SiderDrugbankTest, CasNumbersComeInBothFormats) {
  SiderDrugbankConfig config;
  config.scale = 0.3;
  MatchingTask task = GenerateSiderDrugbank(config);
  auto cas = task.b.schema().FindProperty("casRegistryNumber");
  ASSERT_TRUE(cas.has_value());
  bool with_dash = false, without_dash = false;
  for (const auto& entity : task.b.entities()) {
    for (const auto& value : entity.Values(*cas)) {
      (value.find('-') != std::string::npos ? with_dash : without_dash) = true;
    }
  }
  EXPECT_TRUE(with_dash);
  EXPECT_TRUE(without_dash);
}

// ------------------------------------------------------------------- NYT

TEST(NytTest, ScaledCountsAndSchemas) {
  NytConfig config;
  config.scale = 0.05;
  MatchingTask task = GenerateNyt(config);
  EXPECT_EQ(task.a.size(), 281u);
  EXPECT_EQ(task.b.size(), 90u);
  EXPECT_EQ(task.a.schema().NumProperties(), 38u);   // Table 6
  EXPECT_EQ(task.b.schema().NumProperties(), 110u);  // Table 6
  ExpectLinksResolve(task);
}

TEST(NytTest, DbpediaLabelsAreUris) {
  NytConfig config;
  config.scale = 0.05;
  MatchingTask task = GenerateNyt(config);
  auto label = task.b.schema().FindProperty("label");
  ASSERT_TRUE(label.has_value());
  size_t uri_count = 0;
  for (const auto& entity : task.b.entities()) {
    for (const auto& value : entity.Values(*label)) {
      if (value.rfind("http://dbpedia.org/resource/", 0) == 0) ++uri_count;
    }
  }
  EXPECT_EQ(uri_count, task.b.size());
}

TEST(NytTest, LowCoveragePerTable6) {
  NytConfig config;
  config.scale = 0.2;
  MatchingTask task = GenerateNyt(config);
  EXPECT_NEAR(ComputePropertyStats(task.a).MeanCoverage(), 0.3, 0.1);
  EXPECT_NEAR(ComputePropertyStats(task.b).MeanCoverage(), 0.2, 0.1);
}

// -------------------------------------------------------------- LinkedMDB

TEST(LinkedMdbTest, FullScaleMatchesTable5) {
  MatchingTask task = GenerateLinkedMdb();
  EXPECT_EQ(task.a.size(), 199u);
  EXPECT_EQ(task.b.size(), 174u);
  EXPECT_EQ(task.links.positives().size(), 100u);
  EXPECT_GE(task.links.negatives().size(), 100u);
  EXPECT_EQ(task.a.schema().NumProperties(), 100u);  // Table 6
  EXPECT_EQ(task.b.schema().NumProperties(), 46u);   // Table 6
  ExpectLinksResolve(task);
}

TEST(LinkedMdbTest, PlantsSameTitleDifferentYearNegatives) {
  MatchingTask task = GenerateLinkedMdb();
  auto resolved = task.links.Resolve(task.Source(), task.Target());
  ASSERT_TRUE(resolved.ok());
  auto lm_label = task.a.schema().FindProperty("label");
  auto db_name = task.b.schema().FindProperty("name");
  auto lm_date = task.a.schema().FindProperty("initial_release_date");
  auto db_date = task.b.schema().FindProperty("releaseDate");
  ASSERT_TRUE(lm_label && db_name && lm_date && db_date);

  // At least one negative pair shares the title but differs in year -
  // the corner case the paper's reference links deliberately include.
  size_t corner_cases = 0;
  for (const auto& pair : *resolved) {
    if (pair.is_match) continue;
    const ValueSet& ta = pair.a->Values(*lm_label);
    const ValueSet& tb = pair.b->Values(*db_name);
    const ValueSet& da = pair.a->Values(*lm_date);
    const ValueSet& db = pair.b->Values(*db_date);
    if (ta.empty() || tb.empty() || da.empty() || db.empty()) continue;
    // Compare title case-insensitively ignoring the "(film)" suffix.
    std::string name_b = tb[0];
    if (ta[0].size() <= name_b.size() &&
        da[0].substr(0, 4) != db[0].substr(0, 4)) {
      ++corner_cases;
    }
  }
  EXPECT_GT(corner_cases, 0u);
}

// -------------------------------------------------------- DBpediaDrugbank

TEST(DbpediaDrugbankTest, ScaledCountsAndSchemas) {
  DbpediaDrugbankConfig config;
  config.scale = 0.05;
  MatchingTask task = GenerateDbpediaDrugbank(config);
  EXPECT_EQ(task.a.size(), 242u);
  EXPECT_EQ(task.b.size(), 238u);
  EXPECT_EQ(task.a.schema().NumProperties(), 110u);  // Table 6
  EXPECT_EQ(task.b.schema().NumProperties(), 79u);   // Table 6
  ExpectLinksResolve(task);
}

TEST(DbpediaDrugbankTest, SynonymsAreMultiValued) {
  DbpediaDrugbankConfig config;
  config.scale = 0.1;
  MatchingTask task = GenerateDbpediaDrugbank(config);
  auto synonym = task.a.schema().FindProperty("synonym");
  ASSERT_TRUE(synonym.has_value());
  bool multi = false;
  for (const auto& entity : task.a.entities()) {
    if (entity.Values(*synonym).size() > 1) multi = true;
  }
  EXPECT_TRUE(multi);
}

TEST(DbpediaDrugbankTest, CoverageNearTable6) {
  DbpediaDrugbankConfig config;
  config.scale = 0.1;
  MatchingTask task = GenerateDbpediaDrugbank(config);
  EXPECT_NEAR(ComputePropertyStats(task.a).MeanCoverage(), 0.3, 0.1);
  EXPECT_NEAR(ComputePropertyStats(task.b).MeanCoverage(), 0.5, 0.1);
}

// All generators: negatives never coincide with positives.
TEST(AllGeneratorsTest, NegativesDisjointFromPositives) {
  auto check = [](const MatchingTask& task) {
    std::set<std::pair<std::string, std::string>> positives;
    for (const auto& link : task.links.positives()) {
      positives.insert({link.id_a, link.id_b});
    }
    for (const auto& link : task.links.negatives()) {
      EXPECT_FALSE(positives.count({link.id_a, link.id_b}))
          << task.name << ": " << link.id_a << " / " << link.id_b;
    }
  };
  CoraConfig cora;
  cora.scale = 0.1;
  check(GenerateCora(cora));
  RestaurantConfig restaurant;
  restaurant.scale = 0.5;
  check(GenerateRestaurant(restaurant));
  SiderDrugbankConfig sider;
  sider.scale = 0.05;
  check(GenerateSiderDrugbank(sider));
  NytConfig nyt;
  nyt.scale = 0.05;
  check(GenerateNyt(nyt));
  LinkedMdbConfig lmdb;
  lmdb.scale = 0.5;
  check(GenerateLinkedMdb(lmdb));
  DbpediaDrugbankConfig dbd;
  dbd.scale = 0.05;
  check(GenerateDbpediaDrugbank(dbd));
}

}  // namespace
}  // namespace genlink
