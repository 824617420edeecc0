// Island-model parallel GP search: the GenLink evolution loop
// (Algorithm 1) generalized to K independent populations.
//
// Each island is a full GenLink population with its own deterministic
// RNG stream split from the master seed. Islands breed in parallel on
// the evaluation engine's thread pool — breeding (selection, crossover,
// duplicate suppression) was the last serial stretch of a generation
// once PR 2/3 parallelized fitness — while all islands route fitness
// through ONE shared memoized engine, so the fitness memo and the
// distance-row cache are cross-island: a rule bred on island 2 that
// island 0 already evaluated is a cache hit, and a comparison subtree
// shared between islands computes its distance row once.
//
// Every `migration_interval` generations the best `migration_size`
// rules of each island replace the worst rules of its ring neighbor
// (island i sends to island i+1 mod K). Selection of emigrants and of
// the replaced individuals is tie-broken by the rules' structural hash
// (name-based, process-stable), so migration is fully reproducible.
// The run stops early as soon as ANY island reaches stop_f_measure.
//
// Determinism invariants (tests/determinism_test.cc,
// bench/scaling_islands.cc):
//   * num_islands = 1 is the paper's single-population Algorithm 1:
//     the single island draws from the master RNG (no forked stream)
//     and migration is skipped. Pinned learning fingerprints
//     (FingerprintLearnResult) hold this draw order fixed.
//   * Results are independent of the thread count: each island's
//     breeding task touches only that island's state and RNG stream,
//     evaluation goes through the engine's thread-invariant batch path,
//     and migration runs in the serial phase between generations.

#ifndef GENLINK_GP_ISLANDS_H_
#define GENLINK_GP_ISLANDS_H_

#include "gp/genlink.h"

namespace genlink {

/// Runs the GenLink search with `config.num_islands` populations (1 =
/// the paper's single-population algorithm). GenLink::Learn forwards
/// here; call directly when no GenLink instance is at hand.
///
/// The per-iteration `callback` receives the merged iteration stats and
/// the leading island's population. Returns InvalidArgument when
/// `config.population_size` is 0.
Result<LearnResult> LearnIslands(const Dataset& a, const Dataset& b,
                                 const GenLinkConfig& config,
                                 const ReferenceLinkSet& train,
                                 const ReferenceLinkSet* validation, Rng& rng,
                                 const IterationCallback& callback = nullptr);

}  // namespace genlink

#endif  // GENLINK_GP_ISLANDS_H_
