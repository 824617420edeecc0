// Brute-force operator-tree reference for the matcher surfaces.
//
// Every candidate pair is scored by LinkageRule::Evaluate, the paper's
// operator-tree semantics, and the documented link-selection rules
// (threshold, self-join dedup, own-id skip, best-match tie-break,
// output order) are applied by hand. A rule with a filter plan
// (matcher/rule_filter.h) is scored over the whole cross join: its
// blocking must lose no link, so the blocked surfaces must equal the
// unblocked join. Any other rule takes its blocking candidates from
// intersecting token sets (ComputeBlockingKeys / EntityBlockingKeys),
// not from probing a BlockingIndex. The value-store scorers behind
// GenerateLinks and MatcherIndex must reproduce these links bit for
// bit: same pairs, same doubles, same order.

#ifndef GENLINK_TESTS_REFERENCE_MATCHER_H_
#define GENLINK_TESTS_REFERENCE_MATCHER_H_

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "matcher/blocking.h"
#include "matcher/matcher.h"
#include "matcher/rule_filter.h"

namespace genlink {

/// `rule` deployed against `target` under `options`, scored pair by
/// pair. All three must outlive the matcher.
class ReferenceMatcher {
 public:
  ReferenceMatcher(const LinkageRule& rule, const Dataset& target,
                   const MatchOptions& options)
      : rule_(rule),
        target_(target),
        options_(options),
        token_blocking_(options.use_blocking &&
                        !DeriveFilterPlan(rule, options.threshold).has_value()) {
    if (token_blocking_) {
      TokenBlockingOptions blocking;
      blocking.max_tokens_per_entity = options.blocking_max_tokens;
      blocking.min_token_df = options.blocking_min_token_df;
      keys_ = ComputeBlockingKeys(target, TargetProperties(rule), blocking);
    }
  }

  /// Target indexes sharing a blocking key with `query` (every index
  /// when blocking is off or the rule has a filter plan), ascending.
  std::vector<size_t> Candidates(const Entity& query,
                                 const Schema& schema) const {
    std::vector<size_t> out;
    if (!token_blocking_) {
      for (size_t j = 0; j < target_.size(); ++j) out.push_back(j);
      return out;
    }
    const std::vector<std::string> tokens =
        EntityBlockingKeys(query, schema, {});
    const std::unordered_set<std::string> probe(tokens.begin(), tokens.end());
    for (size_t j = 0; j < keys_.size(); ++j) {
      for (const std::string& token : keys_[j]) {
        if (probe.count(token) != 0) {
          out.push_back(j);
          break;
        }
      }
    }
    return out;
  }

  /// The links of one query entity: score >= threshold, sorted by score
  /// descending then id_b ascending, cut to the first with best-match.
  /// `skip_own_id` drops the candidate carrying the query's id (a
  /// self-indexed or serving-only MatcherIndex).
  std::vector<GeneratedLink> MatchEntity(const Entity& query,
                                         const Schema& schema,
                                         bool skip_own_id) const {
    std::vector<GeneratedLink> links;
    for (size_t j : Candidates(query, schema)) {
      const Entity& candidate = target_.entity(j);
      if (skip_own_id && candidate.id() == query.id()) continue;
      Score(query, schema, candidate, links);
    }
    SortByScoreThenIdB(links);
    if (options_.best_match_only && links.size() > 1) links.resize(1);
    return links;
  }

  /// The full join of GenerateLinks(rule, source, target, options):
  /// each source entity's links (each unordered pair once, id_a < id_b,
  /// when `source` is the target dataset), best-match reduced per
  /// source entity, sorted by score descending, then id_a, then id_b.
  std::vector<GeneratedLink> MatchDataset(const Dataset& source) const {
    const bool self_join = &source == &target_;
    std::vector<GeneratedLink> links;
    for (const Entity& query : source.entities()) {
      std::vector<GeneratedLink> local;
      for (size_t j : Candidates(query, source.schema())) {
        const Entity& candidate = target_.entity(j);
        if (self_join && query.id() >= candidate.id()) continue;
        Score(query, source.schema(), candidate, local);
      }
      SortByScoreThenIdB(local);
      if (options_.best_match_only && local.size() > 1) local.resize(1);
      links.insert(links.end(), local.begin(), local.end());
    }
    std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
      if (x.score != y.score) return x.score > y.score;
      if (x.id_a != y.id_a) return x.id_a < y.id_a;
      return x.id_b < y.id_b;
    });
    return links;
  }

 private:
  void Score(const Entity& query, const Schema& schema,
             const Entity& candidate, std::vector<GeneratedLink>& out) const {
    const double score =
        rule_.Evaluate(query, candidate, schema, target_.schema());
    if (score >= options_.threshold) {
      out.push_back({query.id(), candidate.id(), score});
    }
  }

  static void SortByScoreThenIdB(std::vector<GeneratedLink>& links) {
    std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
      if (x.score != y.score) return x.score > y.score;
      return x.id_b < y.id_b;
    });
  }

  const LinkageRule& rule_;
  const Dataset& target_;
  const MatchOptions& options_;
  /// Blocking on and no filter plan: candidates share a raw token.
  const bool token_blocking_;
  std::vector<std::vector<std::string>> keys_;
};

/// The operator-tree counterpart of GenerateLinks(rule, a, b, options).
inline std::vector<GeneratedLink> ReferenceGenerateLinks(
    const LinkageRule& rule, const Dataset& a, const Dataset& b,
    const MatchOptions& options) {
  return ReferenceMatcher(rule, b, options).MatchDataset(a);
}

/// Asserts `actual` equals `expected` pair for pair, with bit-identical
/// scores.
inline void ExpectSameLinks(const std::vector<GeneratedLink>& actual,
                            const std::vector<GeneratedLink>& expected,
                            const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].id_a, expected[i].id_a) << context << " link " << i;
    EXPECT_EQ(actual[i].id_b, expected[i].id_b) << context << " link " << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << context << " link " << i;
  }
}

}  // namespace genlink

#endif  // GENLINK_TESTS_REFERENCE_MATCHER_H_
