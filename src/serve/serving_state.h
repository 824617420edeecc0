// The daemon's deployed-rule slot: owns the currently serving
// MatcherIndex and implements graceful degradation on reload.
//
// Exactly one rule artifact is "live" at a time. Reloads go through
// the full failure-checked path — read file, parse versioned artifact
// (io/artifact.h), compile via MatcherIndex::WithRule — and commit
// atomically at the very end: until the new index is fully built, and
// forever if any step fails, queries keep hitting the OLD index
// untouched. A failed reload therefore degrades the deployment to
// *stale* (observable via snapshot(), surfaced on /healthz and /varz)
// but never to *broken*; tests/serve_test.cc and the failing-reload
// leg of tests/stress_swap_tsan_test.cc pin this down, including
// bit-identical answers across a mid-query failed reload.
//
// Publication uses the repo's standard hot-swap idiom
// (api/matcher_index.h): std::atomic_load/atomic_store on a
// shared_ptr<const MatcherIndex>. Readers never block on a reload;
// reloads serialize among themselves on a Mutex.

#ifndef GENLINK_SERVE_SERVING_STATE_H_
#define GENLINK_SERVE_SERVING_STATE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "api/matcher_index.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "io/artifact.h"
#include "live/live_corpus.h"
#include "model/dataset.h"

namespace genlink {

class MappedCorpus;

/// Owns the serving index for one corpus. Thread-safe: index() may be
/// called from any number of request threads while one thread reloads.
class ServingState {
 public:
  /// `corpus` must outlive the state. `num_threads` is the pool size
  /// every deployed index uses (0 = hardware concurrency); artifacts
  /// do not carry one (io/artifact.h). A non-nullopt `live` turns on
  /// live mode: the first Deploy builds a LiveCorpus instead of a
  /// MatcherIndex, later deploys hot-swap the rule via DeployRule, and
  /// the daemon's /upsert, /delete and /compact endpoints mutate the
  /// corpus between queries (docs/STREAMING.md). index() stays null in
  /// live mode; query through live().
  explicit ServingState(const Dataset& corpus, size_t num_threads = 0,
                        std::optional<LiveCorpusOptions> live = std::nullopt);

  /// Serves a mapped v2 corpus artifact (io/corpus_artifact.h) instead
  /// of an in-memory dataset: deployments build zero-copy indexes over
  /// the mapping. A rule the artifact has no precomputed plans (or
  /// blocking configuration) for fails the deploy through the same
  /// graceful-degradation path as a corrupt artifact — the previous
  /// index keeps serving and the state reports stale. Live mode over a
  /// mapped corpus serves upserts/removes but cannot compact
  /// (live/live_corpus.h).
  explicit ServingState(std::shared_ptr<const MappedCorpus> corpus,
                        size_t num_threads = 0,
                        std::optional<LiveCorpusOptions> live = std::nullopt);

  /// Deploys `artifact`: the first call builds the corpus index, later
  /// calls compile the new rule against the shared corpus stores
  /// (MatcherIndex::WithRule). On error the previous deployment keeps
  /// serving and the state reports stale.
  Status Deploy(const RuleArtifact& artifact);

  /// Loads `path` (empty = the path of the last Deploy/ReloadFromFile
  /// attempt with a non-empty path) and deploys it. Any failure — file
  /// unreadable, version mismatch, unknown key, rule that fails to
  /// parse — leaves the previous deployment serving.
  Status ReloadFromFile(const std::string& path);

  /// The serving index; null until the first successful Deploy, and
  /// always null in live mode (query through live()). Lock-free read
  /// (atomic shared_ptr load) — never blocked by a concurrent reload.
  std::shared_ptr<const MatcherIndex> index() const;

  /// The live corpus; null outside live mode and until the first
  /// successful Deploy. Lock-free read. The LiveCorpus is internally
  /// thread-safe: handlers may query and mutate it concurrently.
  std::shared_ptr<LiveCorpus> live() const;

  struct Snapshot {
    /// Successful deployments so far (1 = the initial artifact).
    uint64_t generation = 0;
    uint64_t failed_reloads = 0;
    /// True when the most recent Deploy/ReloadFromFile attempt failed:
    /// the live rule is older than the artifact someone tried to push.
    bool stale = false;
    /// The failure that made the state stale; empty when !stale.
    std::string last_error;
    /// Name of the live artifact (may be empty).
    std::string rule_name;
    /// Compile seconds of the serving index (incremental for reloads);
    /// in live mode, of the live corpus's current base index.
    double build_seconds = 0.0;
    /// True when the state was constructed in live mode.
    bool live_mode = false;
    /// Epoch of the live corpus's published snapshot (0 outside live
    /// mode and before the first deploy).
    uint64_t epoch = 0;
  };
  Snapshot snapshot() const;

 private:
  /// The Deploy/ReloadFromFile commit path: builds (or rebuilds via
  /// TryWithRule) the index and publishes it. Returns the compile
  /// failure without touching the published index; callers record the
  /// failure. reload_mutex_ must be held.
  Status DeployLocked(const RuleArtifact& artifact)
      GENLINK_REQUIRES(reload_mutex_);

  /// Exactly one of corpus_ / mapped_ is set (dataset-backed vs
  /// mapped-artifact serving).
  const Dataset* corpus_ = nullptr;
  std::shared_ptr<const MappedCorpus> mapped_;
  size_t num_threads_;
  /// Live mode: set at construction, immutable afterwards.
  std::optional<LiveCorpusOptions> live_options_;

  /// Serializes Deploy/ReloadFromFile against each other; never held
  /// while answering index()/snapshot(), so a slow compile cannot
  /// stall /healthz or /varz. Acquired before mutex_ (lock order).
  Mutex reload_mutex_;
  /// Guards the bookkeeping fields; held only for short updates.
  mutable Mutex mutex_;
  /// Published with std::atomic_store under mutex_; read anywhere with
  /// std::atomic_load.
  std::shared_ptr<const MatcherIndex> index_;
  /// The live-mode counterpart of index_: created by the first
  /// successful Deploy, then mutated in place (LiveCorpus serializes
  /// its own writers and publishes epoch snapshots internally).
  std::shared_ptr<LiveCorpus> live_;
  uint64_t generation_ GENLINK_GUARDED_BY(mutex_) = 0;
  uint64_t failed_reloads_ GENLINK_GUARDED_BY(mutex_) = 0;
  std::string last_error_ GENLINK_GUARDED_BY(mutex_);
  std::string rule_name_ GENLINK_GUARDED_BY(mutex_);
  std::string artifact_path_ GENLINK_GUARDED_BY(mutex_);
};

}  // namespace genlink

#endif  // GENLINK_SERVE_SERVING_STATE_H_
