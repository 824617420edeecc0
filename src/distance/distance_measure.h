// Distance measures f_d: Σ × Σ → R (Definition 7 of the paper).
//
// A measure computes the distance between two *value sets*. Most measures
// are defined per value and lift to sets by taking the minimum over all
// value pairs (an entity matches if any of its values matches — RDF
// properties are multi-valued). Token-based measures (Jaccard, Dice,
// Cosine) compare the sets as a whole.
//
// Two call surfaces exist for every measure:
//   * Distance(const ValueSet&, const ValueSet&) — owning strings; the
//     reference path used by per-pair operator-tree evaluation.
//   * DistanceViews(span<string_view>, span<string_view>) — non-owning
//     views into the value store's interned pool (eval/value_store.h);
//     the hot path. Set measures additionally accept pre-sorted
//     interned token-id spans via TokenIdDistance.
// Both surfaces MUST return bit-identical doubles for equal inputs; the
// engine and matcher rely on it (tests/engine_test.cc,
// tests/matcher_test.cc).

#ifndef GENLINK_DISTANCE_DISTANCE_MEASURE_H_
#define GENLINK_DISTANCE_DISTANCE_MEASURE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>

#include "model/value.h"

namespace genlink {

/// Distance returned when a distance is undefined for the given input
/// (e.g. empty value sets, unparseable numbers). Comparisons treat it as
/// "beyond any threshold", yielding similarity 0.
inline constexpr double kInfiniteDistance = std::numeric_limits<double>::infinity();

/// Abstract distance measure over value sets.
class DistanceMeasure {
 public:
  virtual ~DistanceMeasure() = default;

  /// Stable identifier used in serialized rules (e.g. "levenshtein").
  virtual std::string_view name() const = 0;

  /// Distance between two value sets. Returns kInfiniteDistance when
  /// either set is empty or no pair of values is comparable. The default
  /// implementation takes the minimum of ValueDistance over all pairs.
  virtual double Distance(const ValueSet& a, const ValueSet& b) const;

  /// Same contract over non-owning views (the interned hot path).
  /// `bound`: the caller only distinguishes distances <= bound; any
  /// value > bound may stand in for a larger true distance (pass
  /// kInfiniteDistance — the default — for the exact distance). The
  /// base implementation min-lifts BoundedValueDistance with early exit
  /// at 0, visiting pairs in the same order as the ValueSet overload;
  /// set measures fall back to materializing ValueSets.
  virtual double DistanceViews(std::span<const std::string_view> a,
                               std::span<const std::string_view> b,
                               double bound = kInfiniteDistance) const;

  /// Distance between two individual values. Measures that only operate
  /// on whole sets (see IsSetMeasure) need not override this.
  virtual double ValueDistance(std::string_view a, std::string_view b) const;

  /// ValueDistance with a cutoff: when the true distance exceeds
  /// `bound`, any return value > bound is allowed (kernels may stop
  /// early). Default: the exact ValueDistance.
  virtual double BoundedValueDistance(std::string_view a, std::string_view b,
                                      double bound) const {
    (void)bound;
    return ValueDistance(a, b);
  }

  /// Largest threshold θ that makes sense for this measure; the rule
  /// generator samples thresholds from (0, MaxThreshold()].
  virtual double MaxThreshold() const = 0;

  /// True when Distance() compares the value sets as a whole rather than
  /// lifting a per-value distance.
  virtual bool IsSetMeasure() const { return false; }

  /// True when TokenIdDistance is implemented: the measure can consume
  /// the value store's sorted-unique interned token ids directly.
  virtual bool SupportsTokenIds() const { return false; }

  /// Set distance over interned token ids. `ids_*` are strictly
  /// increasing; `counts_*[k]` is the multiplicity of `ids_*[k]` in the
  /// original value set. Ids from the same pool, so id equality is
  /// string equality. Only called when SupportsTokenIds() is true, with
  /// both spans non-empty.
  virtual double TokenIdDistance(std::span<const uint32_t> ids_a,
                                 std::span<const uint32_t> counts_a,
                                 std::span<const uint32_t> ids_b,
                                 std::span<const uint32_t> counts_b) const;
};

/// Similarity score of a comparison operator (Definition 7):
///   1 - d/θ  if d <= θ, else 0.
/// θ == 0 degenerates to exact match (1 if d == 0 else 0).
double ThresholdedScore(double distance, double threshold);

/// The largest integer distance d in [0, limit] whose comparison still
/// scores at least `min_score`: ThresholdedScore(d, threshold) >=
/// min_score, evaluated as that exact double predicate (never as
/// threshold * (1 - min_score) rounded in floating point). Returns -1
/// when no distance passes (not even d = 0) and nullopt when d = limit+1
/// passes too, i.e. the comparison bounds the distance by nothing
/// smaller than `limit`. ThresholdedScore is non-increasing in d, so the
/// passing distances are exactly [0, result]. The blocking filter plan
/// (matcher/rule_filter.h) derives its per-comparison bounds here.
std::optional<int> MaxPassingDistance(double threshold, double min_score,
                                      int limit);

}  // namespace genlink

#endif  // GENLINK_DISTANCE_DISTANCE_MEASURE_H_
