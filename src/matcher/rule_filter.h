// Rule-derived lossless blocking: candidates from the rule's own
// comparisons instead of from shared raw tokens.
//
// A link needs a score of at least t (Definition 3: M_l = {(a,b) :
// l(a,b) >= t}), so every rule implies a cheap necessary condition on a
// pair, and candidates can be taken from that condition. This is the
// design of the paper's reference [19], Silk's MultiBlock (Isele,
// Jentzsch, Bizer, WebDB 2011): an index derived from the rule that
// drops no link.
//
//   * DeriveFilterPlan turns a rule and a threshold t into a FilterPlan:
//     a union of per-comparison probes, each "comparison k's values are
//     within edit distance `bound` of each other" (bound 0: equal).
//       - a comparison needs ThresholdedScore(d, θ) >= t; its bound is
//         the largest such integer d (MaxPassingDistance, from the
//         exact double predicate);
//       - `max` and `wmean` (every weight >= 2^-900, so no weighted
//         score underflows) take the union of their
//         operands' probes: the aggregate reaches t only if some
//         operand does (wmean operands against t relaxed by a few ulps,
//         so the rounding of the weighted sum cannot defeat that);
//       - `min` takes ONE operand's probes, picked statically: exact
//         beats Levenshtein, then the smaller bound, then the first in
//         pre-order; scoring checks the other operands;
//       - there is no plan when any union member has no filter (a
//         measure other than levenshtein/equality, a bound above
//         kMaxFilterBound), or when t <= 0. Such rules keep token
//         blocking (matcher/blocking.h) unchanged.
//   * FilterColumn indexes the distinct values of one target value
//     subtree over all rows: values sorted by (length, bytes) for exact
//     lookup and length windows, the rows of each value, and padded
//     trigram postings for the q-gram count filter (Gravano et al.,
//     "Approximate String Joins in a Database (Almost) for Free", VLDB
//     2001): strings within edit distance k share at least
//     max(|a|,|b|) + q - 1 - k*q padded q-grams, and differ in length
//     by at most k. Where that count bound reaches 0 (short values), the
//     column scans the whole length bucket instead. A column is one flat
//     array of 32-bit words, so a corpus artifact can map it zero-copy
//     (io/corpus_artifact.h, v3).
//   * FilterIndex is a plan over one column per probe: the candidate
//     generator of every index that serves a planned rule —
//     MatcherIndex (api/matcher_index.h) over its target plans, and the
//     live corpus (live/live_corpus.h) over its delta rows.
//     FilterColumnNeeds decides which columns a plan reads and which
//     need q-gram postings, for those indexes and for the columns a
//     corpus artifact stores.
//
// Losslessness: a pair the rule scores >= t is always a candidate, so
// blocked links equal the unblocked cross join (tests/
// scorer_oracle_test.cc); tests/blocking_soundness_test.cc fuzzes the
// filters and the bound derivation against the reference kernel.

#ifndef GENLINK_MATCHER_RULE_FILTER_H_
#define GENLINK_MATCHER_RULE_FILTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rule/linkage_rule.h"

namespace genlink {

/// Largest edit-distance bound a probe may carry; a comparison whose
/// bound is larger filters next to nothing and makes the rule
/// unplanned.
inline constexpr int kMaxFilterBound = 8;

/// One comparison's necessary condition: some query value of comparison
/// `comparison` (pre-order, CollectComparisons) is within edit distance
/// `bound` of some target value of it. bound 0 is value equality.
struct FilterProbe {
  size_t comparison = 0;
  int bound = 0;
};

/// A pair can reach the threshold only if at least one probe admits it.
/// An empty plan admits nothing (the rule can never reach t).
struct FilterPlan {
  std::vector<FilterProbe> probes;
};

/// The filter plan of `rule` at link threshold `threshold`, or nullopt
/// when the rule has none (file comment).
std::optional<FilterPlan> DeriveFilterPlan(const LinkageRule& rule,
                                           double threshold);

/// Appends the target values of one row to `out`.
using RowViews =
    std::function<void(size_t row, std::vector<std::string_view>& out)>;

/// The distinct values of one target value subtree over rows [0, rows),
/// indexed for exact, length and q-gram probes. Immutable; probes are
/// safe from any number of threads (thread_local scratch).
class FilterColumn {
 public:
  /// Indexes the values `views(row, out)` appends for every row; with
  /// `grams`, also their q-gram postings, which only probes with a
  /// bound above 0 read (see has_grams).
  static std::shared_ptr<const FilterColumn> Build(size_t rows,
                                                   const RowViews& views,
                                                   bool grams);

  /// A column over serialized words (words() of a built column),
  /// borrowed: `words` must outlive the column. Validates every offset,
  /// order and range, so probes never read out of bounds; rows must
  /// be < `rows`.
  static Result<std::unique_ptr<const FilterColumn>> FromWords(
      std::span<const uint32_t> words, size_t rows);

  /// Adds to `emit` every row holding a value within edit distance
  /// `bound` of `query` (a superset: the length and count filters are
  /// necessary conditions; bound 0 is an exact lookup). Rows may repeat.
  void Probe(std::string_view query, int bound,
             const std::function<void(uint32_t row)>& emit) const;

  /// The serialized column (one flat little-endian word array).
  std::span<const uint32_t> words() const { return words_; }
  size_t num_values() const { return num_values_; }
  size_t num_grams() const { return gram_keys_.size(); }
  /// True when the q-gram postings are indexed. Without them a probe
  /// with a bound above 0 admits every value of its length window.
  bool has_grams() const { return has_grams_; }
  /// (value, row) plus (gram occurrence, value) postings.
  size_t num_postings() const { return rows_.size() + gram_values_.size(); }

 private:
  FilterColumn() = default;
  /// Carves the spans below out of words_; false when the header's
  /// counts do not add up to the word count.
  bool Carve();
  /// True when every offset, order and range is consistent and rows are
  /// below `rows` (untrusted words; a built column is consistent).
  bool Validate(size_t rows) const;
  std::string_view Value(size_t v) const;
  template <typename Emit>
  void EmitRows(size_t v, const Emit& emit) const;

  std::vector<uint32_t> owned_;  // backing words of a built column
  std::span<const uint32_t> words_;
  size_t num_values_ = 0;
  bool has_grams_ = false;
  std::span<const uint32_t> length_offsets_;  // [max_length + 2]
  std::span<const uint32_t> value_offsets_;   // [values + 1] into bytes_
  std::span<const uint32_t> row_offsets_;     // [values + 1] into rows_
  std::span<const uint32_t> rows_;
  std::span<const uint32_t> gram_keys_;       // ascending
  std::span<const uint32_t> gram_offsets_;    // [grams + 1]
  /// Ascending per gram; a value appears once per occurrence of the
  /// gram in it.
  std::span<const uint32_t> gram_values_;
  std::string_view bytes_;
};

/// Comparison k's query-side values.
using QueryViews = std::function<std::span<const std::string_view>(size_t k)>;

/// The key of the column that holds comparison k's target values; probes
/// whose comparisons map to one key share one column.
using ColumnOf = std::function<uint64_t(size_t k)>;

/// One column a plan reads, and whether it needs q-gram postings: true
/// when any probe on it has a bound above 0.
struct FilterColumnNeed {
  uint64_t column = 0;
  bool grams = false;
};

/// The distinct columns `plan` reads, ascending by key. The one place
/// that decides which columns an index over a plan holds, for every
/// index built in process and for the columns a corpus artifact stores.
std::vector<FilterColumnNeed> FilterColumnNeeds(const FilterPlan& plan,
                                                const ColumnOf& column_of);

/// The column with key `need.column` over the index's rows, with q-gram
/// postings when `need.grams`.
using ColumnSource = std::function<std::shared_ptr<const FilterColumn>(
    const FilterColumnNeed& need)>;

/// A filter plan over one column per probe: the candidate generator of
/// a planned rule. Immutable and safe to query concurrently.
class FilterIndex {
 public:
  /// The index over rows [0, rows): each column FilterColumnNeeds names
  /// is taken once from `source`, on the calling thread.
  static std::shared_ptr<const FilterIndex> Build(FilterPlan plan, size_t rows,
                                                  const ColumnOf& column_of,
                                                  const ColumnSource& source);

  /// The rows any probe admits for a query whose comparison-k values
  /// are `query(k)`: distinct, ascending.
  std::vector<size_t> Candidates(const QueryViews& query) const;

  const FilterPlan& plan() const { return plan_; }
  /// Distinct values plus distinct q-grams over the distinct columns.
  size_t NumKeys() const;
  size_t NumPostings() const;

 private:
  FilterIndex(FilterPlan plan,
              std::vector<std::shared_ptr<const FilterColumn>> columns,
              size_t rows);
  /// columns_ without repeats (probes may share a column).
  std::vector<const FilterColumn*> DistinctColumns() const;

  FilterPlan plan_;
  std::vector<std::shared_ptr<const FilterColumn>> columns_;
  size_t rows_ = 0;
};

}  // namespace genlink

#endif  // GENLINK_MATCHER_RULE_FILTER_H_
