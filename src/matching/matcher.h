#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/ordering.h"

namespace rlqvo {

/// \brief Configuration of a complete subgraph-matching algorithm: a filter
/// (phase 1), an ordering method (phase 2) and enumeration controls
/// (phase 3) — the generic framework of Algorithm 1.
struct MatcherConfig {
  std::shared_ptr<CandidateFilter> filter;
  std::shared_ptr<Ordering> ordering;
  EnumerateOptions enum_options;
  /// Display name for benchmark tables; defaults to "<filter>+<ordering>".
  std::string name;
};

/// \brief Per-query outcome: the enumeration's EnumStats counters (copied
/// from its EnumerateResult) plus the phase time breakdown the paper
/// reports (t = t_filter + t_order + t_enum, Sec IV-B).
struct MatchRunStats : EnumStats {
  double filter_time_seconds = 0.0;
  double order_time_seconds = 0.0;
  double enum_time_seconds = 0.0;
  double total_time_seconds = 0.0;
  /// Query finished within the time limit ("solved", Sec IV-A).
  bool solved = true;
  /// The matching order was served from the engine's order cache (or a
  /// concurrent single-flight leader) instead of being computed by this
  /// query's worker. Always false outside QueryEngine.
  bool order_cache_hit = false;
  /// The match limit fired before the search space was exhausted.
  bool hit_match_limit = false;
  /// Sum of candidate-set sizes after filtering.
  size_t candidate_total = 0;
  /// The matching order phase 2 produced.
  std::vector<VertexId> order;
  /// Present only when EnumerateOptions::store_embeddings was set.
  std::vector<std::vector<VertexId>> embeddings;
};

/// \brief End-to-end subgraph matching: filter, order, enumerate.
///
/// A matcher owns a lazily-grown EnumeratorWorkspace that is reused across
/// Match calls, so repeated queries pay no per-query O(|V(q)|·|V(G)|)
/// enumeration setup. Like the (possibly stateful) Ordering it holds, a
/// SubgraphMatcher is therefore NOT safe for concurrent Match calls on one
/// instance — use one matcher per thread (QueryEngine does the equivalent
/// with per-worker orderings and workspaces).
///
/// When enum_options.parallel_threads > 0 the matcher lazily spawns a
/// private ThreadPool of that size (plus one reusable workspace per
/// worker) and enumerates each query with Enumerator::RunParallel; the
/// calling thread donates itself to the chunk queue while waiting. The
/// pool is created on the first parallel Match and resized if
/// parallel_threads changes via mutable_enum_options.
class SubgraphMatcher {
 public:
  /// \param config must have both a filter and an ordering.
  explicit SubgraphMatcher(MatcherConfig config);
  ~SubgraphMatcher();

  /// Runs Algorithm 1 on (query, data). The configured time limit covers
  /// the whole pipeline: enumeration gets whatever remains after filtering
  /// and ordering.
  Result<MatchRunStats> Match(const Graph& query, const Graph& data) const;

  const std::string& name() const { return config_.name; }
  const MatcherConfig& config() const { return config_; }
  /// Adjusts enumeration controls (match limit / time limit / intra-query
  /// parallelism) in place.
  EnumerateOptions* mutable_enum_options() { return &config_.enum_options; }

 private:
  MatcherConfig config_;
  // Reused scratch state; mutable because Match is logically const (the
  // workspace never affects results, only setup cost).
  //
  // None of the mutable members below is guarded by a mutex, on purpose:
  // SubgraphMatcher's contract (class comment) is external synchronization
  // — one matcher per thread, never concurrent Match calls on one
  // instance. The lazy pool init in Match would be a classic
  // check-then-create race *if* that contract were violated, so it must
  // stay single-caller; code that needs concurrent serving goes through
  // QueryEngine, which owns the per-worker replication. (The pool's own
  // workers touching enum_worker_workspaces_ is safe for the same
  // per-worker-slot reason as QueryEngine — see docs/CONCURRENCY.md.)
  mutable EnumeratorWorkspace workspace_;
  // Intra-query enumeration pool + per-worker workspaces, lazily created
  // when enum_options.parallel_threads > 0 (see class comment).
  mutable std::unique_ptr<ThreadPool> enum_pool_;
  mutable std::vector<EnumeratorWorkspace> enum_worker_workspaces_;
};

/// \brief Shared phases 2–3 of Algorithm 1: ordering, then enumeration on
/// whatever remains of the per-query deadline. Used by both
/// SubgraphMatcher::Match and QueryEngine::RunQuery so their deadline and
/// stats semantics cannot drift apart.
///
/// \param stats carries the phase-1 outcome (filter_time_seconds,
///        candidate_total) and is completed and returned by this call.
/// \param total the stopwatch started at the beginning of phase 1;
///        options.time_limit_seconds (if any) budgets all three phases
///        against it. The enumeration deadline is started *before* the
///        enumerator's per-query setup, so setup time counts against the
///        budget too.
/// \param workspace reusable enumeration scratch state; nullptr falls back
///        to a throwaway workspace for this call.
/// \param parallel execution resources for intra-query parallel
///        enumeration; used only when options.parallel_threads > 0 and a
///        pool is provided (otherwise the classic serial path runs). The
///        resources' caller_workspace defaults to `workspace`.
/// \param precomputed_order when non-null, phase 2 is skipped: this order
///        (already resolved by the caller — e.g. QueryEngine's order cache)
///        is enumerated directly and `ordering` may be null. The caller is
///        then responsible for stats.order_time_seconds; this function
///        leaves it untouched.
Result<MatchRunStats> RunOrderedEnumeration(
    const Graph& query, const Graph& data, const CandidateSet& candidates,
    Ordering* ordering, const EnumerateOptions& options, MatchRunStats stats,
    const Stopwatch& total, EnumeratorWorkspace* workspace = nullptr,
    const ParallelEnumResources* parallel = nullptr,
    const std::vector<VertexId>* precomputed_order = nullptr);

/// \brief Builds one of the paper's compared algorithms by name:
///
///   "QSI"    — LDF candidates + infrequent-edge-first order
///   "RI"     — LDF candidates + RI order
///   "VF2PP"  — LDF candidates + infrequent-label-first order
///   "GQL"    — GQL filter + left-deep smallest-candidate order
///   "VEQ"    — DAG-DP filter + candidate-size/NEC order
///   "Hybrid" — GQL filter + RI order (Sun & Luo's recommendation)
///   "Random" — LDF candidates + random connected order
///
/// All share the same enumeration engine, matching the paper's methodology
/// for isolating ordering quality (Sec IV-C). RL-QVO matchers are built via
/// rlqvo::RLQVOModel::MakeMatcher (src/core).
Result<std::shared_ptr<SubgraphMatcher>> MakeMatcherByName(
    const std::string& name, const EnumerateOptions& enum_options = {});

/// \brief The names accepted by MakeMatcherByName, in Fig 3's order.
const std::vector<std::string>& BaselineMatcherNames();

}  // namespace rlqvo
