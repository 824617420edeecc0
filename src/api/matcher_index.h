// The service facade: a long-lived, immutable, thread-safe matcher
// session.
//
// The paper's Definition 3 treats link generation as a one-shot batch
// (M_l = {(a,b) : l(a,b) >= 0.5}), and matcher/matcher.h mirrors that:
// GenerateLinks rebuilds the token-blocking index and the compiled
// value store on every call. A production deployment has the opposite
// shape — build the expensive artifacts once, then answer many cheap
// queries against them. MatcherIndex is that shape:
//
//   auto index = MatcherIndex::Build(corpus, rule, options);  // expensive
//   auto links = index->MatchEntity(incoming_record, schema); // cheap, often
//
// Build compiles the rule's value subtrees into a persistent value
// store (eval/value_store.h: per-entity transform plans + interned
// token-id spans) and a persistent candidate generator: for a rule with
// a filter plan (matcher/rule_filter.h) a FilterIndex over the target
// plans, which loses no link; for any other rule a TokenBlockingIndex
// (matcher/blocking.h). Queries then pay only candidate lookup plus
// interned-distance scoring. There is one scoring path per pair shape:
// the query scorer (source values evaluated per query, target values
// read from the store or a mapped artifact) for MatchEntity/MatchBatch
// and unbound MatchDataset, and CompiledRule (eval/value_store.h) for
// the full join over the bound source. Three query surfaces:
//
//   * MatchEntity  — one query entity against the indexed corpus; the
//     request-serving path. No thread pool involved.
//   * MatchBatch   — a span of query entities, scored in parallel
//     chunks on the corpus's pool; results grouped by query, in input
//     order. An optional QueryOverlay hides indexed rows and adds rows
//     the index never saw: the live corpus layer (live/live_corpus.h)
//     serves `base ⊎ delta − tombstones` through it, so base and delta
//     rows go through the one query scorer.
//   * MatchDataset — the legacy full join, bit-identical to
//     GenerateLinks (which is now a thin wrapper over Build +
//     MatchDataset; asserted by tests/api_test.cc).
//
// Scores from every surface are bit-identical to
// LinkageRule::Evaluate on the same entity pair: the target side reads
// interned value spans, the query side evaluates each distinct source
// value subtree once per query, and both feed the same
// DistanceMeasure surfaces the one-shot matcher uses (see
// distance/distance_measure.h for the bit-identity contract).
//
// Lifetimes and hot swap: a MatcherIndex is immutable after Build and
// safe to query from any number of threads. The dataset(s) passed to
// Build must outlive every index built over them. WithRule compiles a
// NEW index for a freshly learned rule while sharing the dataset-side
// stores (value pool, transform plans, blocking indexes) with the old
// one — only the new rule's unseen value subtrees are evaluated, the
// corpus is not re-interned. Old and new indexes serve concurrently;
// a service hot-swaps by publishing the new shared_ptr:
//
//   std::shared_ptr<const MatcherIndex> serving = MatcherIndex::Build(...);
//   ...
//   std::atomic_store(&serving, serving->WithRule(learner_output));
//
// Rule deployment artifacts (save a learned rule + options to a file,
// load it into a fresh process) live in io/artifact.h; the end-to-end
// serve path is `genlink query` (tools/genlink_cli.cc).

#ifndef GENLINK_API_MATCHER_INDEX_H_
#define GENLINK_API_MATCHER_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "matcher/matcher.h"
#include "matcher/rule_filter.h"
#include "rule/linkage_rule.h"

namespace genlink {

class CompiledRule;
class MappedCorpus;
class ValueReader;
class ValueStore;
using PlanId = uint32_t;
class ThreadPool;

/// Snapshot counters of a built index (stats()).
struct MatcherIndexStats {
  /// Entities on the indexed (target) side.
  size_t target_entities = 0;
  /// Distinct keys of the candidate generator (0 when blocking is off):
  /// tokens of a token index, or distinct values plus q-grams of a
  /// filter index.
  size_t blocking_tokens = 0;
  /// Postings of the candidate generator (0 when blocking is off):
  /// (token, entity), or (value, entity) plus (q-gram, value).
  size_t blocking_postings = 0;
  /// Transform plans materialized in the shared value store, summed
  /// over all rules compiled against this corpus.
  size_t value_plans = 0;
  /// Approximate bytes held by the shared value store.
  size_t store_bytes = 0;
  /// Wall seconds spent building/compiling THIS index (for WithRule:
  /// only the incremental compile, not the original corpus build).
  double build_seconds = 0.0;
};

/// Rows a query sees beyond an index's own corpus, and indexed rows it
/// must not see: the live corpus layer's delta log and tombstones.
/// Overlay rows are scored by the index's query scorer from value sets
/// the overlay evaluated for the index's rule, so a row scores the same
/// whether it sits in the overlay or in a fresh index. Must stay
/// unchanged for the duration of a call; read from pool workers.
class QueryOverlay {
 public:
  virtual ~QueryOverlay() = default;
  /// One byte per indexed slot; a slot j with `dead[j] != 0` is skipped
  /// before scoring, as if the corpus never contained it. Null hides
  /// nothing.
  virtual const uint8_t* Tombstones() const = 0;
  /// The overlay rows that are candidates for `entity`, ascending.
  /// `query(k)` holds comparison k's query-side values, which a planned
  /// rule's filter (MatcherIndex::filter_plan) probes with.
  virtual std::vector<size_t> Candidates(const Entity& entity,
                                         const Schema& schema,
                                         const QueryViews& query) const = 0;
  /// The entity id of overlay row `row`.
  virtual std::string_view Id(size_t row) const = 0;
  /// Comparison k's target subtree evaluated on overlay row `row`, k
  /// numbering the rule's comparisons in pre-order (CollectComparisons).
  virtual const ValueSet& TargetValues(size_t row, size_t k) const = 0;
};

/// A linkage rule deployed against a corpus: immutable, thread-safe,
/// cheap to query. See the file comment for the full contract.
class MatcherIndex {
 public:
  /// Compiles `rule` against a source/target dataset pair (the paper's
  /// A and B; pass the same dataset twice for deduplication). All query
  /// surfaces are available, and MatchDataset() replays the legacy full
  /// join over the bound sides. Both datasets must outlive the index.
  static std::shared_ptr<const MatcherIndex> Build(
      const Dataset& source, const Dataset& target, const LinkageRule& rule,
      const MatchOptions& options = {});

  /// Serving-only build: indexes `target` for MatchEntity/MatchBatch
  /// queries without binding a source dataset (the `genlink query`
  /// shape, where queries arrive from a stream). MatchDataset(dataset)
  /// still works for any dataset; MatchDataset() requires a bound
  /// source and returns empty here.
  static std::shared_ptr<const MatcherIndex> Build(
      const Dataset& target, const LinkageRule& rule,
      const MatchOptions& options = {});

  /// Zero-copy serving build over a mapped corpus artifact
  /// (io/corpus_artifact.h): the same serving surface as the
  /// serving-only Build, but value spans, blocking postings and filter
  /// columns are read straight from the mapping — nothing is parsed,
  /// interned or re-indexed, so cold start is bounded by Load()
  /// validation, not by corpus size (a filter column the artifact lacks,
  /// e.g. in a v2 file, is built at load). Queries are bit-identical to
  /// a fresh Build over the dataset the artifact was written from.
  /// Fails with a named Status when the rule needs a value plan the
  /// artifact did not precompute, or when a rule without a filter plan
  /// requests a token blocking configuration (properties, max-tokens,
  /// min-df) the artifact does not carry — re-run `genlink index`. The
  /// rule must be non-empty.
  static Result<std::shared_ptr<const MatcherIndex>> Build(
      std::shared_ptr<const MappedCorpus> corpus, const LinkageRule& rule,
      const MatchOptions& options = {});

  ~MatcherIndex();
  MatcherIndex(const MatcherIndex&) = delete;
  MatcherIndex& operator=(const MatcherIndex&) = delete;

  /// Scores one query entity (whose properties live in `schema`)
  /// against all blocking candidates and returns the links reaching
  /// options().threshold, sorted by descending score, then ascending
  /// id_b. With best_match_only, only the winner under that same order
  /// is returned. A self-indexed corpus (dedup) and a serving-only
  /// index skip the candidate carrying the query's own id (a record is
  /// never its own duplicate; without that, querying the corpus
  /// against itself would return every record as its own best match);
  /// a two-dataset index keeps equal-id candidates, matching the full
  /// join. Unlike the full join, BOTH orientations are served — a
  /// query finds duplicates with smaller and larger ids. Thread-safe.
  std::vector<GeneratedLink> MatchEntity(const Entity& entity,
                                         const Schema& schema) const;

  /// MatchEntity with the bound source dataset's schema (the target
  /// schema for a serving-only index).
  std::vector<GeneratedLink> MatchEntity(const Entity& entity) const;

  /// MatchEntity for every entity of `entities`, scored in parallel on
  /// the corpus pool. The result is the concatenation of the
  /// per-entity link lists in input order (deterministic for any thread
  /// count).
  /// When `cancel` is non-null (or MatchOptions::cancel is set), the
  /// per-entity chunk tasks poll the token and stop scoring once it
  /// fires: the serve daemon's per-request deadline path. A cancelled
  /// call returns the links of the entities already scored (possibly
  /// none) — callers observe cancel->Cancelled() and must treat such a
  /// result as truncated. Without cancellation the result is
  /// bit-identical whether or not a token was passed.
  /// A non-null `overlay` must outlive the call: each query skips its
  /// tombstoned slots and also scores its candidate rows, and threshold,
  /// self-id skip, ordering and best-match reduction apply to the merged
  /// links. Concurrent calls may pass different overlays.
  std::vector<GeneratedLink> MatchBatch(
      std::span<const Entity> entities, const Schema& schema,
      const CancelToken* cancel = nullptr,
      const QueryOverlay* overlay = nullptr) const;

  /// MatchBatch with the bound source dataset's schema.
  std::vector<GeneratedLink> MatchBatch(std::span<const Entity> entities,
                                        const CancelToken* cancel = nullptr) const;

  /// The target rows a query of `entity` is scored against, ascending:
  /// the filter's candidates for a planned rule, the token index's
  /// otherwise, every row when blocking is off. The query surfaces use
  /// the same generator; benches count candidates with it.
  std::vector<size_t> Candidates(const Entity& entity,
                                 const Schema& schema) const;

  /// The legacy full join of `source` against the indexed corpus,
  /// bit-identical to GenerateLinks(rule, source, target, options):
  /// same pairs, same doubles, same order, including the self-join
  /// orientation dedup (id_a < id_b) when `source` IS the indexed
  /// dataset.
  std::vector<GeneratedLink> MatchDataset(const Dataset& source) const;

  /// MatchDataset over the bound source dataset; empty for a
  /// serving-only index.
  std::vector<GeneratedLink> MatchDataset() const;

  /// Compiles `rule` into a new index that shares this index's
  /// dataset-side stores: the value pool, all previously materialized
  /// transform plans, and any blocking index over the same property
  /// set are reused, so only the new rule's unseen value subtrees
  /// touch the corpus. Both indexes keep serving; in-flight queries on
  /// either are safe while the new rule compiles (internally
  /// synchronized). Swap atomically by publishing the returned
  /// pointer.
  std::shared_ptr<const MatcherIndex> WithRule(const LinkageRule& rule) const;

  /// WithRule with new per-query options — the artifact-reload shape
  /// (serve/serving_state.h), where a redeployed artifact may change
  /// the threshold, best-match mode or blocking knobs along with the
  /// rule. num_threads is pinned to this index's value: the shared pool
  /// is built once per corpus. A changed blocking configuration
  /// compiles a new index into the shared per-corpus cache.
  std::shared_ptr<const MatcherIndex> WithRule(const LinkageRule& rule,
                                               const MatchOptions& options) const;

  /// WithRule that surfaces compile failures instead of asserting they
  /// cannot happen: over a mapped corpus a new rule may need value
  /// plans or a blocking configuration the artifact does not carry, and
  /// the caller (serve/serving_state.cc) must keep the old index
  /// serving on that error. Over a dataset-backed corpus this never
  /// fails and is equivalent to WithRule.
  Result<std::shared_ptr<const MatcherIndex>> TryWithRule(
      const LinkageRule& rule, const MatchOptions& options) const;

  /// The filter plan candidates come from (matcher/rule_filter.h); null
  /// when the rule has none or blocking is off (token postings or a
  /// full scan then).
  const FilterPlan* filter_plan() const {
    return filter_ != nullptr ? &filter_->plan() : nullptr;
  }

  /// The deployed rule / the options every query path uses.
  const LinkageRule& rule() const { return rule_; }
  const MatchOptions& options() const { return options_; }

  /// The indexed (target) dataset. Requires a dataset-backed corpus
  /// (!is_mapped()); a mapped corpus has no Dataset to return.
  const Dataset& target() const;
  /// True when a source dataset is bound (two-dataset Build).
  bool has_source() const;
  /// True when this index serves a mapped corpus artifact.
  bool is_mapped() const;

  MatcherIndexStats stats() const;

 private:
  /// Dataset-side artifacts shared across WithRule generations,
  /// guarded by a writer-priority reader/writer lock
  /// (common/mutex.h WriterPriorityMutex: a waiting WithRule compile
  /// cannot be starved by query traffic). The guarded members are
  /// annotated for clang -Wthread-safety in the .cc; the lock
  /// hierarchy is documented in docs/CONCURRENCY.md.
  struct Corpus;

  /// One comparison of rule_ as seen by the query scorer: source side
  /// from the query entity's pre-evaluated values, target side from the
  /// store plan.
  struct QuerySite {
    uint32_t source_slot = 0;  // into query_ops_
    uint32_t target_plan = 0;  // PlanId in reader_
  };

  MatcherIndex(std::shared_ptr<Corpus> corpus, LinkageRule rule,
               MatchOptions options);

  /// Compiles rule_ against the corpus (value plans, blocking index,
  /// query sites). Must run under the corpus write lock. Never fails
  /// for a dataset-backed corpus; for a mapped corpus it fails when the
  /// artifact lacks a needed value plan or the requested blocking
  /// configuration.
  Status CompileLocked();
  /// The mapped-corpus arm of CompileLocked: resolves plans from the
  /// artifact and borrows its blocking postings or filter columns
  /// instead of building.
  Status CompileMappedLocked(const std::optional<FilterPlan>& plan);
  /// Builds filter_ for `plan` over the target plans of query_sites_:
  /// each column (FilterColumnNeeds) comes from the artifact when it
  /// carries one, else from the corpus cache, else is built and cached.
  void BuildFilterLocked(FilterPlan plan);
  /// Builds query_ops_ and query_sites_ for rule_'s comparisons in
  /// pre-order, resolving each target subtree to the reader_ plan keyed
  /// by `target_hash` of it (the two compile arms differ only in that
  /// key). False when reader_ lacks a plan for some target subtree.
  bool BuildQuerySites(uint64_t (*target_hash)(const ValueOperator&));

  /// Pre-evaluated source-side values of one query entity.
  struct QueryValues;
  void EvaluateQueryOps(const Entity& entity, const Schema& schema,
                        QueryValues& out) const;
  /// The same views read from the store for bound source entity
  /// `source_index` (the full join's filter probe).
  void StoredQueryValues(size_t source_index, QueryValues& out) const;
  /// Comparison k's values in `qv`, which must outlive the result.
  QueryViews QueryViewsOf(const QueryValues& qv) const;
  /// Calls `visit(j)` for each candidate target row of a query, in
  /// ascending order, until it returns false: the filter's candidates
  /// for the query values `qv`, the token index's for `entity`, or every
  /// row when blocking is off. Caller holds the corpus read lock.
  template <typename Visit>
  void ForEachCandidate(const Entity& entity, const Schema& schema,
                        const QueryValues& qv, Visit&& visit) const;
  /// Score of one target row against a query's values; 0.0 for the
  /// empty rule, as LinkageRule::Evaluate. `target_views(k, out)`
  /// appends comparison k's target values to `out`: interned spans for
  /// an indexed slot (SlotScore), an overlay's value sets for its rows.
  template <typename TargetViews>
  double QueryScore(const QueryValues& qv, TargetViews&& target_views) const;
  /// QueryScore of indexed slot `target_index`.
  double SlotScore(const QueryValues& qv, size_t target_index) const;

  /// MatchEntity body; caller holds the corpus read lock. Probes the
  /// filter or the token index (or scans the full target when blocking
  /// is off),
  /// then scores the overlay's candidate rows when one is given. A
  /// non-null `cancel` is polled every few dozen candidates, bounding
  /// how long one huge candidate set can overstay a request deadline.
  std::vector<GeneratedLink> MatchEntityUnlocked(
      const Entity& entity, const Schema& schema,
      const CancelToken* cancel = nullptr,
      const QueryOverlay* overlay = nullptr) const;

  std::shared_ptr<Corpus> corpus_;
  LinkageRule rule_;
  MatchOptions options_;

  /// Candidate generator of a planned rule (rule_filter.h); null when
  /// the rule has no plan or options_.use_blocking is false.
  std::shared_ptr<const FilterIndex> filter_;
  /// Token index over the target side for rule_'s target properties
  /// and the options' blocking knobs (shared with other generations
  /// using the same property set and knobs); null when filter_ is set
  /// or options_.use_blocking is false.
  std::shared_ptr<const BlockingIndex> blocking_;
  /// Compiled scoring for store-resident entity pairs (the full-join
  /// path); null for a mapped corpus or the empty rule.
  std::unique_ptr<CompiledRule> compiled_;

  /// Distinct source-side value subtrees of rule_ (deduplicated by
  /// ValueOperatorHash) and the per-comparison sites of the query
  /// scorer, in pre-order. Empty for the empty rule.
  std::vector<const ValueOperator*> query_ops_;
  std::vector<QuerySite> query_sites_;
  /// Per query_ops_ slot, the bound source's store plan of that subtree
  /// (StoredQueryValues); empty without a bound source.
  std::vector<PlanId> query_source_plans_;

  /// The target-side read surface the query scorer consumes — the
  /// corpus value store or the mapped corpus. Set by CompileLocked;
  /// null for the empty rule.
  const ValueReader* reader_ = nullptr;

  double build_seconds_ = 0.0;
};

}  // namespace genlink

#endif  // GENLINK_API_MATCHER_INDEX_H_
