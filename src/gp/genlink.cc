#include "gp/genlink.h"

#include "common/hash.h"
#include "gp/islands.h"
#include "rule/serialize.h"

namespace genlink {

GenLink::GenLink(const Dataset& a, const Dataset& b, GenLinkConfig config)
    : a_(&a), b_(&b), config_(std::move(config)) {}

uint64_t FingerprintLearnResult(const LearnResult& result) {
  uint64_t h = HashCombine(HashBytes("learn-result"),
                           result.best_rule.StructuralHash());
  h = HashCombine(h, HashBytes(ToSexpr(result.best_rule)));
  h = HashCombine(h, HashDouble(result.initial_population_mean_f1));
  const auto mix_trajectory = [&h](const RunTrajectory& trajectory) {
    h = HashCombine(h, HashBytes(trajectory.best_rule_sexpr));
    h = HashCombine(h, HashDouble(trajectory.final_val_f1));
    h = HashCombine(h, trajectory.iterations.size());
    for (const IterationStats& stats : trajectory.iterations) {
      h = HashCombine(h, stats.iteration);
      h = HashCombine(h, HashDouble(stats.train_f1));
      h = HashCombine(h, HashDouble(stats.val_f1));
      h = HashCombine(h, HashDouble(stats.train_mcc));
      h = HashCombine(h, HashDouble(stats.val_mcc));
      h = HashCombine(h, HashDouble(stats.mean_operators));
      h = HashCombine(h, HashDouble(stats.best_operators));
    }
  };
  mix_trajectory(result.trajectory);
  h = HashCombine(h, result.island_trajectories.size());
  for (const RunTrajectory& island : result.island_trajectories) {
    mix_trajectory(island);
  }
  return h;
}

// The evolution loop lives in gp/islands.cc: LearnIslands runs
// config_.num_islands populations (1 = the paper's single-population
// Algorithm 1).
Result<LearnResult> GenLink::Learn(const ReferenceLinkSet& train,
                                   const ReferenceLinkSet* validation, Rng& rng,
                                   const IterationCallback& callback) const {
  return LearnIslands(*a_, *b_, config_, train, validation, rng, callback);
}

}  // namespace genlink
