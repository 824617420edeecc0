#include "distance/string_distances.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace genlink {
namespace {

// Myers' bit-parallel Levenshtein (single 64-bit word): O(|text|) word
// operations once the pattern's character-position masks are built.
// Computes the exact global edit distance, so it is interchangeable
// with the dynamic program. Requires 1 <= |pattern| <= 64.
int MyersLevenshtein64(std::string_view pattern, std::string_view text) {
  // Clear only the character entries this call reads or writes (O(m+n))
  // instead of memset-ing the whole 2 KiB table, which would dominate
  // the runtime for short strings.
  uint64_t peq[256];
  for (const char c : text) peq[static_cast<unsigned char>(c)] = 0;
  for (const char c : pattern) peq[static_cast<unsigned char>(c)] = 0;
  const size_t m = pattern.size();
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }
  const unsigned high = static_cast<unsigned>(m - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int score = static_cast<int>(m);
  for (const char tc : text) {
    const uint64_t eq = peq[static_cast<unsigned char>(tc)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    score += static_cast<int>((ph >> high) & 1);
    score -= static_cast<int>((mh >> high) & 1);
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

// Two-row dynamic program over reusable scratch (only reached when both
// strings exceed 64 characters). `a` must be the shorter string.
int LevenshteinDp(std::string_view a, std::string_view b) {
  const size_t m = a.size();
  const size_t n = b.size();
  thread_local std::vector<int> prev_scratch, cur_scratch;
  prev_scratch.resize(m + 1);
  cur_scratch.resize(m + 1);
  int* prev = prev_scratch.data();
  int* cur = cur_scratch.data();
  for (size_t i = 0; i <= m; ++i) prev[i] = static_cast<int>(i);
  for (size_t j = 1; j <= n; ++j) {
    cur[0] = static_cast<int>(j);
    const char cb = b[j - 1];
    for (size_t i = 1; i <= m; ++i) {
      int subst = prev[i - 1] + (a[i - 1] == cb ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

// Shared Jaro match/transposition count. Flag storage is provided by the
// caller (bit masks, stack bytes or heap, depending on lengths); the
// scan order is identical in every variant, so they cannot diverge.
template <typename GetA, typename SetA, typename GetB, typename SetB>
double JaroFromFlags(std::string_view a, std::string_view b, GetA get_a,
                     SetA set_a, GetB get_b, SetB set_b) {
  const size_t max_dist = std::max(a.size(), b.size()) / 2;
  const size_t window = max_dist == 0 ? 0 : max_dist - 1;

  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!get_b(j) && a[i] == b[j]) {
        set_a(i);
        set_b(j);
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!get_a(i)) continue;
    while (!get_b(j)) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  return (m / a.size() + m / b.size() + (m - transpositions / 2.0) / m) / 3.0;
}

}  // namespace

int LevenshteinEditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return static_cast<int>(b.size());
  if (a.size() <= 64) return MyersLevenshtein64(a, b);
  return LevenshteinDp(a, b);
}

namespace {

// 64-bit occupancy mask of the characters of `text` (bucketed by the
// low 6 bits). Distinct characters may share a bucket, which can only
// make a mask intersection test MORE permissive.
uint64_t CharClassMask(std::string_view text) {
  uint64_t mask = 0;
  for (const char c : text) mask |= uint64_t{1} << (static_cast<unsigned char>(c) & 63);
  return mask;
}

}  // namespace

bool PassesLevenshteinLengthFilter(std::string_view a, std::string_view b,
                                   double bound) {
  const size_t longer = std::max(a.size(), b.size());
  const size_t shorter = std::min(a.size(), b.size());
  return static_cast<double>(longer - shorter) <= bound;
}

bool PassesLevenshteinPrefixFilter(std::string_view a, std::string_view b,
                                   double bound) {
  if (bound < 0.0) return false;  // no distance is <= a negative bound
  const double floored = std::floor(bound);
  // Distances are string-length-bounded ints; a bound at or beyond the
  // longer string can never reject (and a huge bound must not be cast).
  if (floored >= static_cast<double>(std::max(a.size(), b.size()))) return true;
  const size_t t = static_cast<size_t>(floored);
  if (a.size() <= t || b.size() <= t) return true;  // argument needs len > t
  const uint64_t head_a = CharClassMask(a.substr(0, t + 1));
  const uint64_t head_b = CharClassMask(b.substr(0, t + 1));
  const uint64_t wide_a = head_a | CharClassMask(a.substr(t + 1, t));
  const uint64_t wide_b = head_b | CharClassMask(b.substr(t + 1, t));
  return (head_a & wide_b) != 0 && (head_b & wide_a) != 0;
}

int BoundedLevenshteinEditDistance(std::string_view a, std::string_view b,
                                   int bound) {
  if (a.size() > b.size()) std::swap(a, b);
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  if (bound < 0) bound = 0;
  // The length difference is a lower bound on the distance.
  if (n - m > bound) return bound + 1;
  if (bound >= n) return LevenshteinEditDistance(a, b);
  if (m == 0) return n;  // n <= bound here

  // Banded dynamic program: only cells with |i - j| <= bound can lie on
  // a path of cost <= bound; everything outside the band is the
  // sentinel bound+1 (values are capped there, so the sentinel also
  // prevents overflow).
  const int inf = bound + 1;
  constexpr int kStackCap = 256;
  int stack_a[kStackCap + 1];
  int stack_b[kStackCap + 1];
  std::vector<int> heap;
  int* prev = stack_a;
  int* cur = stack_b;
  if (m + 1 > kStackCap + 1) {
    heap.resize(2 * (m + 1));
    prev = heap.data();
    cur = heap.data() + (m + 1);
  }
  for (int i = 0; i <= m; ++i) prev[i] = i <= bound ? i : inf;
  for (int j = 1; j <= n; ++j) {
    const int lo = std::max(1, j - bound);
    const int hi = std::min(m, j + bound);
    cur[lo - 1] = (lo == 1 && j <= bound) ? j : inf;
    int col_min = cur[lo - 1];
    const char cb = b[j - 1];
    for (int i = lo; i <= hi; ++i) {
      int best = prev[i - 1] + (a[i - 1] == cb ? 0 : 1);
      best = std::min(best, prev[i] + 1);
      best = std::min(best, cur[i - 1] + 1);
      cur[i] = std::min(best, inf);
      col_min = std::min(col_min, cur[i]);
    }
    if (hi < m) cur[hi + 1] = inf;  // next column's band edge reads it
    if (col_min > bound) return inf;
    std::swap(prev, cur);
  }
  return std::min(prev[m], inf);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  if (a.size() <= 64 && b.size() <= 64) {
    uint64_t am = 0, bm = 0;
    return JaroFromFlags(
        a, b, [&](size_t i) { return (am >> i) & 1; },
        [&](size_t i) { am |= uint64_t{1} << i; },
        [&](size_t j) { return (bm >> j) & 1; },
        [&](size_t j) { bm |= uint64_t{1} << j; });
  }

  constexpr size_t kStackCap = 512;
  unsigned char stack_flags[2 * kStackCap];
  std::vector<unsigned char> heap_flags;
  unsigned char* af = stack_flags;
  unsigned char* bf = stack_flags + kStackCap;
  if (a.size() > kStackCap || b.size() > kStackCap) {
    heap_flags.assign(a.size() + b.size(), 0);
    af = heap_flags.data();
    bf = heap_flags.data() + a.size();
  } else {
    std::fill(af, af + a.size(), 0);
    std::fill(bf, bf + b.size(), 0);
  }
  return JaroFromFlags(
      a, b, [&](size_t i) { return af[i] != 0; }, [&](size_t i) { af[i] = 1; },
      [&](size_t j) { return bf[j] != 0; }, [&](size_t j) { bf[j] = 1; });
}

double LevenshteinDistance::ValueDistance(std::string_view a, std::string_view b) const {
  return static_cast<double>(LevenshteinEditDistance(a, b));
}

double LevenshteinDistance::BoundedValueDistance(std::string_view a,
                                                std::string_view b,
                                                double bound) const {
  // Distances are integers: d <= bound iff d <= floor(bound), so every
  // distance the threshold can reach is computed exactly and the rest
  // map to floor(bound)+1 > bound. A negative bound admits no distance;
  // its stand-in is 1, never 0, which ThresholdedScore would read as an
  // exact match.
  const size_t longer = std::max(a.size(), b.size());
  if (!(bound < static_cast<double>(longer))) return ValueDistance(a, b);
  const double beyond = std::floor(std::max(bound, 0.0)) + 1.0;
  // Candidate-loop prefilters: both are sound (false only when the
  // distance provably exceeds the bound), so skipping the kernel here
  // is bit-identical after ThresholdedScore.
  if (!PassesLevenshteinLengthFilter(a, b, bound) ||
      !PassesLevenshteinPrefixFilter(a, b, bound)) {
    return beyond;
  }
  // Myers' bit-parallel kernel is exact and, for a pattern of at most 64
  // characters, cheaper than the banded program even with its early
  // exit; the bound is applied to its result.
  if (std::min(a.size(), b.size()) <= 64) {
    const double d = static_cast<double>(LevenshteinEditDistance(a, b));
    return d <= bound ? d : beyond;
  }
  return static_cast<double>(BoundedLevenshteinEditDistance(
      a, b, static_cast<int>(std::floor(bound))));
}

double JaroDistance::ValueDistance(std::string_view a, std::string_view b) const {
  return 1.0 - JaroSimilarity(a, b);
}

double JaroWinklerDistance::ValueDistance(std::string_view a,
                                          std::string_view b) const {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), size_t{4}});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  double sim = jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
  return 1.0 - sim;
}

// ------------------------------------------------------------- reference

int LevenshteinEditDistanceReference(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t m = a.size();
  const size_t n = b.size();
  if (m == 0) return static_cast<int>(n);

  std::vector<int> prev(m + 1), cur(m + 1);
  for (size_t i = 0; i <= m; ++i) prev[i] = static_cast<int>(i);
  for (size_t j = 1; j <= n; ++j) {
    cur[0] = static_cast<int>(j);
    const char cb = b[j - 1];
    for (size_t i = 1; i <= m; ++i) {
      int subst = prev[i - 1] + (a[i - 1] == cb ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double JaroSimilarityReference(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  std::vector<bool> a_matched(a.size(), false), b_matched(b.size(), false);
  return JaroFromFlags(
      a, b, [&](size_t i) { return static_cast<bool>(a_matched[i]); },
      [&](size_t i) { a_matched[i] = true; },
      [&](size_t j) { return static_cast<bool>(b_matched[j]); },
      [&](size_t j) { b_matched[j] = true; });
}

}  // namespace genlink
