#include "matcher/matcher.h"

#include <algorithm>

#include "api/matcher_index.h"

namespace genlink {

void OrderQueryLinks(std::vector<GeneratedLink>& links, bool best_match_only) {
  const auto preferred = [](const GeneratedLink& x, const GeneratedLink& y) {
    if (x.score != y.score) return x.score > y.score;
    return x.id_b < y.id_b;
  };
  if (!best_match_only) {
    std::sort(links.begin(), links.end(), preferred);
    return;
  }
  if (links.size() <= 1) return;
  GeneratedLink best =
      std::move(*std::min_element(links.begin(), links.end(), preferred));
  links.clear();
  links.push_back(std::move(best));
}

std::vector<GeneratedLink> GenerateLinks(const LinkageRule& rule,
                                         const Dataset& a, const Dataset& b,
                                         const MatchOptions& options) {
  // One-shot convenience over the session API: build the artifacts
  // (blocking index, value store, compiled rule), run the full join,
  // throw the artifacts away. Callers that match more than once should
  // hold the MatcherIndex instead.
  return MatcherIndex::Build(a, b, rule, options)->MatchDataset();
}

}  // namespace genlink
