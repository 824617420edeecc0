#include "matcher/rule_filter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <unordered_map>

#include "distance/distance_measure.h"
#include "matcher/blocking.h"
#include "rule/operators.h"

namespace genlink {
namespace {

// ------------------------------------------------------------ the plan

/// Smallest wmean weight a planned rule may carry. Below it a product
/// w*s can leave the normal range, where rounding is no longer relative
/// (with w = 5e-324, every w*0.6 rounds up to w, so the mean reads 1.0
/// while no operand reaches t).
constexpr double kMinPlannedWeight = 0x1p-900;

/// A subtree's filter: nullopt when it has none, an empty list when it
/// can never reach the threshold.
using Probes = std::optional<std::vector<FilterProbe>>;

int MaxBound(const std::vector<FilterProbe>& probes) {
  int bound = -1;
  for (const FilterProbe& probe : probes) bound = std::max(bound, probe.bound);
  return bound;
}

Probes DeriveFrom(const SimilarityOperator& node, double min_score,
                  size_t& next_site) {
  if (node.kind() == OperatorKind::kComparison) {
    const auto& cmp = static_cast<const ComparisonOperator&>(node);
    const size_t k = next_site++;
    // Equality distances are 0 or 1, so a bound above 0 means "any pair
    // passes"; Levenshtein distances are edit counts.
    const std::string_view measure = cmp.measure()->name();
    int limit = -1;
    if (measure == "equality") limit = 0;
    if (measure == "levenshtein") limit = kMaxFilterBound;
    if (limit < 0) return std::nullopt;
    const std::optional<int> bound =
        MaxPassingDistance(cmp.threshold(), min_score, limit);
    if (!bound.has_value()) return std::nullopt;
    if (*bound < 0) return std::vector<FilterProbe>{};
    return std::vector<FilterProbe>{{k, *bound}};
  }
  const auto& agg = static_cast<const AggregationOperator&>(node);
  const auto& operands = agg.operands();
  const std::string_view function = agg.function()->name();
  double operand_min = min_score;
  if (function == "wmean") {
    for (const auto& op : operands) {
      if (!(op->weight() >= kMinPlannedWeight) || !std::isfinite(op->weight())) {
        return std::nullopt;
      }
    }
    // A weighted mean of positive weights reaches t only if some operand
    // does. The computed mean rounds each product, the two sums and the
    // quotient; relaxing t by far more than that error keeps the union
    // lossless. The relative error bound only holds while no product
    // underflows, hence the weight floor.
    operand_min =
        min_score * (1.0 - static_cast<double>(operands.size() + 3) * 0x1p-50);
  } else if (function != "min" && function != "max") {
    return std::nullopt;
  }
  // Every operand is visited so comparison numbering stays in pre-order.
  std::vector<Probes> parts;
  parts.reserve(operands.size());
  for (const auto& op : operands) {
    parts.push_back(DeriveFrom(*op, operand_min, next_site));
  }
  // An empty aggregation scores 0 (AggregateOperandScores), below t.
  if (operands.empty()) return std::vector<FilterProbe>{};
  if (function == "min") {
    // min >= t needs every operand >= t: one operand's filter suffices.
    const std::vector<FilterProbe>* best = nullptr;
    for (const Probes& part : parts) {
      if (part.has_value() && part->empty()) return std::vector<FilterProbe>{};
    }
    for (const Probes& part : parts) {
      if (part.has_value() &&
          (best == nullptr || MaxBound(*part) < MaxBound(*best))) {
        best = &*part;
      }
    }
    if (best == nullptr) return std::nullopt;
    return *best;
  }
  std::vector<FilterProbe> all;
  for (const Probes& part : parts) {
    if (!part.has_value()) return std::nullopt;
    all.insert(all.end(), part->begin(), part->end());
  }
  return all;
}

// ---------------------------------------------------------- the column

/// Padded trigrams: q = 3, two pad symbols on each side. A gram packs
/// three 9-bit symbols (0 = pad, byte + 1 otherwise).
constexpr int kQ = 3;

void AppendGrams(std::string_view s, std::vector<uint32_t>& out) {
  const size_t n = s.size();
  auto symbol = [&](size_t padded) -> uint32_t {
    if (padded < kQ - 1 || padded >= n + kQ - 1) return 0;
    return static_cast<uint32_t>(static_cast<unsigned char>(s[padded - (kQ - 1)])) + 1;
  };
  for (size_t i = 0; i < n + kQ - 1; ++i) {
    out.push_back((symbol(i) << 18) | (symbol(i + 1) << 9) | symbol(i + 2));
  }
}

/// Common padded q-grams two strings within edit distance `bound` must
/// share (Gravano et al. 2001); <= 0 means the count filter cannot
/// reject.
int64_t RequiredGrams(size_t a, size_t b, int bound) {
  return static_cast<int64_t>(std::max(a, b)) + kQ - 1 -
         static_cast<int64_t>(bound) * kQ;
}

/// Header words of the serialized column: values, max length, row
/// postings, grams, gram postings, value bytes, flags.
constexpr size_t kHeaderWords = 7;
/// Flag: the gram postings are indexed (a column without them serves
/// exact probes, and treats every value of a length window as passing
/// the count filter).
constexpr uint32_t kFlagGrams = 1;

/// Per-thread gram counters over one column's values.
struct CountScratch {
  StampScratch seen;
  std::vector<uint32_t> count;
  std::vector<uint32_t> touched;
};

}  // namespace

std::optional<FilterPlan> DeriveFilterPlan(const LinkageRule& rule,
                                           double threshold) {
  if (!(threshold > 0.0) || rule.root() == nullptr) return std::nullopt;
  size_t next_site = 0;
  Probes probes = DeriveFrom(*rule.root(), threshold, next_site);
  if (!probes.has_value()) return std::nullopt;
  return FilterPlan{std::move(*probes)};
}

std::shared_ptr<const FilterColumn> FilterColumn::Build(size_t rows,
                                                        const RowViews& views,
                                                        bool grams) {
  // Every (row, value) entry, then the entries sorted by value in
  // (length, bytes) order: equal values become adjacent and take one
  // rank each — the value's index in the column.
  std::vector<std::string_view> entries;
  std::vector<uint32_t> entry_row;
  for (size_t row = 0; row < rows; ++row) {
    views(row, entries);
    entry_row.resize(entries.size(), static_cast<uint32_t>(row));
  }
  const auto shorter_or_less = [](std::string_view x, std::string_view y) {
    if (x.size() != y.size()) return x.size() < y.size();
    return x < y;
  };
  std::vector<uint32_t> by_value(entries.size());
  for (size_t e = 0; e < entries.size(); ++e) by_value[e] = static_cast<uint32_t>(e);
  // Ties by entry index: the entries of one value stay in row order.
  std::sort(by_value.begin(), by_value.end(), [&](uint32_t x, uint32_t y) {
    if (entries[x] != entries[y]) return shorter_or_less(entries[x], entries[y]);
    return x < y;
  });
  std::vector<std::string_view> values;  // by rank
  std::vector<uint32_t> row_offsets_by_value = {0};
  std::vector<uint32_t> row_list;
  for (const uint32_t e : by_value) {
    if (values.empty() || values.back() != entries[e]) {
      if (!values.empty()) {
        row_offsets_by_value.push_back(static_cast<uint32_t>(row_list.size()));
      }
      values.push_back(entries[e]);
    }
    // A row listing a value twice posts once: its entries are adjacent.
    if (row_list.size() == row_offsets_by_value.back() ||
        row_list.back() != entry_row[e]) {
      row_list.push_back(entry_row[e]);
    }
  }
  if (!values.empty()) {
    row_offsets_by_value.push_back(static_cast<uint32_t>(row_list.size()));
  }
  by_value = {};
  entry_row = {};
  const size_t num_values = values.size();
  const size_t max_length = num_values == 0 ? 0 : values.back().size();
  size_t num_bytes = 0;
  for (std::string_view value : values) num_bytes += value.size();

  // Gram postings: one entry per padded-trigram occurrence, so a value
  // holding a gram c times appears c times in a row in its list. Grams
  // get dense ids in first-seen order, then are laid out by key.
  std::unordered_map<uint32_t, uint32_t> gram_id;
  std::vector<uint32_t> id_key;
  std::vector<uint32_t> id_postings;
  std::vector<uint32_t> occurrence_id;
  std::vector<uint32_t> value_occurrences(num_values + 1, 0);
  if (grams) {
    std::vector<uint32_t> value_grams;
    for (size_t v = 0; v < num_values; ++v) {
      value_grams.clear();
      AppendGrams(values[v], value_grams);
      for (const uint32_t gram : value_grams) {
        const auto [it, inserted] =
            gram_id.try_emplace(gram, static_cast<uint32_t>(id_key.size()));
        if (inserted) {
          id_key.push_back(gram);
          id_postings.push_back(0);
        }
        const uint32_t id = it->second;
        ++id_postings[id];
        occurrence_id.push_back(id);
      }
      value_occurrences[v + 1] = static_cast<uint32_t>(occurrence_id.size());
    }
  }
  gram_id = {};
  const size_t num_grams = id_key.size();
  const size_t gram_postings = occurrence_id.size();
  std::vector<uint32_t> key_order(num_grams);
  for (size_t g = 0; g < num_grams; ++g) key_order[g] = static_cast<uint32_t>(g);
  std::sort(key_order.begin(), key_order.end(),
            [&](uint32_t x, uint32_t y) { return id_key[x] < id_key[y]; });

  // The words, sized exactly and filled in place.
  const size_t total = kHeaderWords + (max_length + 2) + 2 * (num_values + 1) +
                       row_list.size() + num_grams + (num_grams + 1) +
                       gram_postings + (num_bytes + 3) / 4;
  std::shared_ptr<FilterColumn> column(new FilterColumn());
  std::vector<uint32_t>& words = column->owned_;
  words.assign(total, 0);
  words[0] = static_cast<uint32_t>(num_values);
  words[1] = static_cast<uint32_t>(max_length);
  words[2] = static_cast<uint32_t>(row_list.size());
  words[3] = static_cast<uint32_t>(num_grams);
  words[4] = static_cast<uint32_t>(gram_postings);
  words[5] = static_cast<uint32_t>(num_bytes);
  words[6] = grams ? kFlagGrams : 0;
  uint32_t* at = words.data() + kHeaderWords;
  auto take = [&](size_t count) {
    uint32_t* part = at;
    at += count;
    return part;
  };
  uint32_t* length_offsets = take(max_length + 2);
  uint32_t* value_offsets = take(num_values + 1);
  uint32_t* row_offsets = take(num_values + 1);
  uint32_t* rows_out = take(row_list.size());
  uint32_t* gram_keys = take(num_grams);
  uint32_t* gram_offsets = take(num_grams + 1);
  uint32_t* gram_values = take(gram_postings);
  char* bytes = reinterpret_cast<char*>(at);

  for (size_t v = 0; v < num_values; ++v) {
    ++length_offsets[values[v].size() + 1];
    std::copy(values[v].begin(), values[v].end(), bytes + value_offsets[v]);
    value_offsets[v + 1] =
        value_offsets[v] + static_cast<uint32_t>(values[v].size());
  }
  for (size_t length = 1; length < max_length + 2; ++length) {
    length_offsets[length] += length_offsets[length - 1];
  }
  std::copy(row_offsets_by_value.begin(), row_offsets_by_value.end(),
            row_offsets);
  std::copy(row_list.begin(), row_list.end(), rows_out);
  std::vector<uint32_t> fill(num_grams);  // by dense id
  for (size_t g = 0; g < num_grams; ++g) {
    const uint32_t id = key_order[g];
    gram_keys[g] = id_key[id];
    fill[id] = gram_offsets[g];
    gram_offsets[g + 1] = gram_offsets[g] + id_postings[id];
  }
  for (size_t v = 0; v < num_values; ++v) {
    for (uint32_t o = value_occurrences[v]; o < value_occurrences[v + 1]; ++o) {
      gram_values[fill[occurrence_id[o]]++] = static_cast<uint32_t>(v);
    }
  }
  column->words_ = words;
  [[maybe_unused]] const bool carved = column->Carve();
  assert(carved && column->Validate(rows));
  return column;
}

Result<std::unique_ptr<const FilterColumn>> FilterColumn::FromWords(
    std::span<const uint32_t> words, size_t rows) {
  std::unique_ptr<FilterColumn> column(new FilterColumn());
  column->words_ = words;
  if (!column->Carve() || !column->Validate(rows)) {
    return Status::ParseError("filter column is truncated or corrupt");
  }
  return std::unique_ptr<const FilterColumn>(std::move(column));
}

bool FilterColumn::Carve() {
  if (words_.size() < kHeaderWords) return false;
  const uint64_t values = words_[0];
  const uint64_t max_length = words_[1];
  const uint64_t row_postings = words_[2];
  const uint64_t grams = words_[3];
  const uint64_t gram_postings = words_[4];
  const uint64_t num_bytes = words_[5];
  const uint32_t flags = words_[6];
  if ((flags & ~kFlagGrams) != 0 ||
      ((flags & kFlagGrams) == 0 && (grams != 0 || gram_postings != 0))) {
    return false;
  }
  has_grams_ = (flags & kFlagGrams) != 0;
  const uint64_t needed = kHeaderWords + (max_length + 2) + 2 * (values + 1) +
                          row_postings + grams + (grams + 1) + gram_postings +
                          (num_bytes + 3) / 4;
  if (needed != words_.size()) return false;
  size_t at = kHeaderWords;
  auto take = [&](uint64_t count) {
    const auto part = words_.subspan(at, count);
    at += count;
    return part;
  };
  num_values_ = values;
  length_offsets_ = take(max_length + 2);
  value_offsets_ = take(values + 1);
  row_offsets_ = take(values + 1);
  rows_ = take(row_postings);
  gram_keys_ = take(grams);
  gram_offsets_ = take(grams + 1);
  gram_values_ = take(gram_postings);
  bytes_ = std::string_view(reinterpret_cast<const char*>(words_.data() + at),
                            num_bytes);
  return true;
}

bool FilterColumn::Validate(size_t rows) const {
  const size_t values = num_values_;
  const size_t max_length = length_offsets_.size() - 2;

  // Every offset table starts at 0, is monotone and ends at its target's
  // size; every value sits in the bucket of its length, in strictly
  // ascending byte order; rows and gram keys are strictly ascending, a
  // gram's values ascending (a value repeats once per occurrence), all
  // in range. After this no probe can read out of bounds or miss a
  // value.
  const auto spans_exactly = [](std::span<const uint32_t> offsets,
                                uint64_t total) {
    if (offsets.front() != 0 || offsets.back() != total) return false;
    for (size_t i = 1; i < offsets.size(); ++i) {
      if (offsets[i - 1] > offsets[i]) return false;
    }
    return true;
  };
  if (!spans_exactly(length_offsets_, values) ||
      !spans_exactly(value_offsets_, bytes_.size()) ||
      !spans_exactly(row_offsets_, rows_.size()) ||
      !spans_exactly(gram_offsets_, gram_values_.size())) {
    return false;
  }
  for (size_t length = 0; length <= max_length; ++length) {
    for (size_t v = length_offsets_[length]; v < length_offsets_[length + 1]; ++v) {
      if (Value(v).size() != length) return false;
      if (v > length_offsets_[length] && !(Value(v - 1) < Value(v))) return false;
    }
  }
  const auto ascending_below = [](std::span<const uint32_t> part,
                                  uint64_t limit, bool strictly) {
    for (size_t i = 0; i < part.size(); ++i) {
      if (part[i] >= limit) return false;
      if (i > 0 && (strictly ? part[i - 1] >= part[i] : part[i - 1] > part[i])) {
        return false;
      }
    }
    return true;
  };
  for (size_t v = 0; v < values; ++v) {
    if (!ascending_below(
            rows_.subspan(row_offsets_[v], row_offsets_[v + 1] - row_offsets_[v]),
            rows, /*strictly=*/true)) {
      return false;
    }
  }
  if (!ascending_below(gram_keys_, uint64_t{1} << 27, /*strictly=*/true)) {
    return false;
  }
  for (size_t g = 0; g < gram_keys_.size(); ++g) {
    if (!ascending_below(gram_values_.subspan(gram_offsets_[g],
                                              gram_offsets_[g + 1] -
                                                  gram_offsets_[g]),
                         values, /*strictly=*/false)) {
      return false;
    }
  }
  return true;
}

std::string_view FilterColumn::Value(size_t v) const {
  return bytes_.substr(value_offsets_[v], value_offsets_[v + 1] - value_offsets_[v]);
}

template <typename Emit>
void FilterColumn::EmitRows(size_t v, const Emit& emit) const {
  for (uint32_t i = row_offsets_[v]; i < row_offsets_[v + 1]; ++i) emit(rows_[i]);
}

void FilterColumn::Probe(std::string_view query, int bound,
                         const std::function<void(uint32_t row)>& emit) const {
  const size_t n = query.size();
  const size_t max_length = length_offsets_.size() - 2;
  if (bound == 0) {
    if (n > max_length) return;
    // Binary search over the values of the bucket of length n.
    size_t lo = length_offsets_[n], hi = length_offsets_[n + 1];
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (Value(mid) < query) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < length_offsets_[n + 1] && Value(lo) == query) EmitRows(lo, emit);
    return;
  }
  // Length filter: |value| within `bound` of |query|.
  const size_t lo_length = n > static_cast<size_t>(bound) ? n - bound : 0;
  const size_t hi_length = std::min(max_length, n + bound);
  if (lo_length > hi_length) return;
  // RequiredGrams is non-decreasing in the value length, so the lengths
  // where the count filter cannot reject form a prefix of the window:
  // those buckets are scanned whole.
  size_t counted = lo_length;
  while (counted <= hi_length && RequiredGrams(n, counted, bound) <= 0) {
    for (size_t v = length_offsets_[counted]; v < length_offsets_[counted + 1]; ++v) {
      EmitRows(v, emit);
    }
    ++counted;
  }
  if (counted > hi_length) return;

  // Count filter over the values of lengths [counted, hi_length].
  const uint32_t v_begin = length_offsets_[counted];
  const uint32_t v_end = length_offsets_[hi_length + 1];
  if (v_begin == v_end) return;
  if (!has_grams_) {
    for (uint32_t v = v_begin; v < v_end; ++v) EmitRows(v, emit);
    return;
  }
  thread_local CountScratch scratch;
  thread_local std::vector<uint32_t> query_grams;
  scratch.seen.Begin(num_values_);
  if (scratch.count.size() < num_values_) scratch.count.resize(num_values_);
  scratch.touched.clear();
  query_grams.clear();
  AppendGrams(query, query_grams);
  std::sort(query_grams.begin(), query_grams.end());
  for (size_t i = 0; i < query_grams.size();) {
    size_t j = i;
    while (j < query_grams.size() && query_grams[j] == query_grams[i]) ++j;
    const uint32_t occurrences = static_cast<uint32_t>(j - i);
    const auto key = std::lower_bound(gram_keys_.begin(), gram_keys_.end(),
                                      query_grams[i]);
    i = j;
    if (key == gram_keys_.end() || *key != query_grams[i - 1]) continue;
    const size_t g = static_cast<size_t>(key - gram_keys_.begin());
    const auto postings_begin = gram_values_.begin() + gram_offsets_[g];
    const auto postings_end = gram_values_.begin() + gram_offsets_[g + 1];
    // A value holding the gram c times appears c times in a row; the
    // query and the value share min(occurrences, c) of it.
    for (auto p = std::lower_bound(postings_begin, postings_end, v_begin);
         p != postings_end && *p < v_end;) {
      const uint32_t v = *p;
      uint32_t held = 0;
      do {
        ++p;
        ++held;
      } while (p != postings_end && *p == v);
      const uint32_t shared = std::min(occurrences, held);
      if (scratch.seen.Insert(v)) {
        scratch.count[v] = shared;
        scratch.touched.push_back(v);
      } else {
        scratch.count[v] += shared;
      }
    }
  }
  for (const uint32_t v : scratch.touched) {
    if (static_cast<int64_t>(scratch.count[v]) >=
        RequiredGrams(n, Value(v).size(), bound)) {
      EmitRows(v, emit);
    }
  }
}

std::vector<FilterColumnNeed> FilterColumnNeeds(const FilterPlan& plan,
                                                const ColumnOf& column_of) {
  std::vector<FilterColumnNeed> needs;
  for (const FilterProbe& probe : plan.probes) {
    const uint64_t column = column_of(probe.comparison);
    auto it = std::lower_bound(
        needs.begin(), needs.end(), column,
        [](const FilterColumnNeed& need, uint64_t key) { return need.column < key; });
    if (it == needs.end() || it->column != column) {
      it = needs.insert(it, {column, false});
    }
    it->grams |= probe.bound > 0;
  }
  return needs;
}

std::shared_ptr<const FilterIndex> FilterIndex::Build(
    FilterPlan plan, size_t rows, const ColumnOf& column_of,
    const ColumnSource& source) {
  std::unordered_map<uint64_t, std::shared_ptr<const FilterColumn>> by_key;
  for (const FilterColumnNeed& need : FilterColumnNeeds(plan, column_of)) {
    by_key[need.column] = source(need);
  }
  std::vector<std::shared_ptr<const FilterColumn>> columns;
  for (const FilterProbe& probe : plan.probes) {
    columns.push_back(by_key.at(column_of(probe.comparison)));
  }
  return std::shared_ptr<const FilterIndex>(
      new FilterIndex(std::move(plan), std::move(columns), rows));
}

FilterIndex::FilterIndex(FilterPlan plan,
                         std::vector<std::shared_ptr<const FilterColumn>> columns,
                         size_t rows)
    : plan_(std::move(plan)), columns_(std::move(columns)), rows_(rows) {}

std::vector<size_t> FilterIndex::Candidates(const QueryViews& query) const {
  thread_local StampScratch scratch;
  scratch.Begin(rows_);
  std::vector<size_t> out;
  const auto emit = [&](uint32_t row) {
    if (scratch.Insert(row)) out.push_back(row);
  };
  for (size_t i = 0; i < plan_.probes.size(); ++i) {
    for (std::string_view value : query(plan_.probes[i].comparison)) {
      columns_[i]->Probe(value, plan_.probes[i].bound, emit);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<const FilterColumn*> FilterIndex::DistinctColumns() const {
  std::vector<const FilterColumn*> distinct;
  for (const auto& column : columns_) {
    if (std::find(distinct.begin(), distinct.end(), column.get()) ==
        distinct.end()) {
      distinct.push_back(column.get());
    }
  }
  return distinct;
}

size_t FilterIndex::NumKeys() const {
  size_t keys = 0;
  for (const FilterColumn* column : DistinctColumns()) {
    keys += column->num_values() + column->num_grams();
  }
  return keys;
}

size_t FilterIndex::NumPostings() const {
  size_t postings = 0;
  for (const FilterColumn* column : DistinctColumns()) {
    postings += column->num_postings();
  }
  return postings;
}

}  // namespace genlink
