#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "matching/candidate_set.h"
#include "matching/enum_stats.h"
#include "matching/enum_workspace.h"

namespace rlqvo {

class ThreadPool;

/// \brief Controls for the enumeration procedure.
struct EnumerateOptions {
  /// Stop after this many embeddings. The paper caps evaluation at 1e5
  /// matches (Sec IV-A). 0 means unlimited ("ALL" in Fig 11) — the run
  /// exhausts the search space and EnumerateResult::hit_match_limit stays
  /// false. A finite limit is exact: every emission claims a slot from the
  /// query's one EnumBudget — out of the claiming worker's own lease,
  /// refilled in shrinking chunks from a global pool and revocable by
  /// sibling workers once the pool is empty — so num_matches ==
  /// min(available, match_limit) in both the serial and the parallel path,
  /// never limit+1, never limit-per-worker, never short by a lease
  /// stranded on an idle worker. The serial run stops on the emission that
  /// claims the last slot, as with a single global counter.
  uint64_t match_limit = 100000;
  /// Time limit in seconds; 0 = unlimited. Enumerator::Run bounds the
  /// enumeration (including its per-query workspace setup) with this;
  /// SubgraphMatcher and QueryEngine treat it as the whole-pipeline
  /// per-query budget (the paper's 500 s, Sec IV-A) and pass enumeration a
  /// deadline carrying whatever remains after filtering and ordering.
  /// Expiry is re-checked every ~16k units of charged work (recursive
  /// calls, intersection comparisons, local-candidate scans), so overshoot
  /// is bounded by a fixed work quantum plus at most one in-flight slice
  /// intersection and one last-position scan (which counts and claims its
  /// embeddings without a check inside) — not by how many recursive calls
  /// the slices amortize.
  double time_limit_seconds = 0.0;
  /// Keep the embeddings in EnumerateResult::embeddings (otherwise only
  /// counts are tracked).
  bool store_embeddings = false;
  /// Intra-query enumeration parallelism. 0 (default) runs the classic
  /// serial recursion. N >= 1 runs the work-stealing scheduler: the search
  /// tree is seeded as up to N frontier segments over C(order[0]) and N
  /// worker loops are fanned across a ThreadPool; a worker that drains its
  /// own deque steals the shallowest segment available, and a worker deep
  /// in a heavy subtree lazily splits its remaining sibling range into a
  /// stealable segment when idle workers are observed. match_limit and
  /// time_limit_seconds stay *global* across segments via a shared
  /// EnumBudget. See Enumerator::RunParallel for the determinism contract.
  /// Serial callers (Enumerator::Run) ignore this field; SubgraphMatcher
  /// and QueryEngine honor it.
  uint32_t parallel_threads = 0;
};

/// \brief Outcome of one enumeration run: the EnumStats counters plus the
/// run's stop reasons, wall time and (optionally) embeddings.
///
/// A parallel run's search-work counters are summed across all of its
/// segments (EnumStats::Merge); its schedule counters come from the
/// scheduler. The counters' names and semantics live in EnumStats.
struct EnumerateResult : EnumStats {
  /// True iff the time limit fired before completion. The counters then
  /// hold the partial counts at the cutoff.
  bool timed_out = false;
  /// True iff the match limit fired (num_matches == match_limit).
  bool hit_match_limit = false;
  /// Wall-clock seconds spent enumerating (including per-query workspace
  /// setup).
  double enum_time_seconds = 0.0;

  /// Embeddings as query-vertex-indexed data-vertex vectors, if requested.
  std::vector<std::vector<VertexId>> embeddings;
};

/// \brief Execution resources for Enumerator::RunParallel.
///
/// The pool is shared infrastructure: QueryEngine hands every query the
/// engine-wide pool (so idle batch workers pick up a straggler query's
/// worker-loop tasks and keep donating — stealing segments — until the run
/// drains), while SubgraphMatcher lazily owns a private one. Worker loops
/// pick their scratch workspace by the executing thread:
/// `(*worker_workspaces)[ThreadPool::CurrentWorkerIndex()]` on pool workers
/// and `caller_workspace` on the coordinating external thread (which donates
/// itself as one of the loops while it waits). Each workspace is touched by
/// at most one running task at a time — pool workers execute one task at a
/// time and the coordinator only runs loops between, never during, its own
/// workspace use.
struct ParallelEnumResources {
  /// Executor for worker-loop subtasks. nullptr degrades RunParallel to Run.
  ThreadPool* pool = nullptr;
  /// One workspace per pool worker (size >= pool->size()); may be nullptr,
  /// in which case loops on pool workers fall back to throwaway
  /// workspaces.
  std::vector<EnumeratorWorkspace>* worker_workspaces = nullptr;
  /// Workspace for the loop the calling thread runs while help-waiting;
  /// also the serial-fallback workspace. May be nullptr (throwaway).
  EnumeratorWorkspace* caller_workspace = nullptr;
};

/// \brief Phase-3 engine: the recursive backtracking enumeration of
/// Algorithm 2 (QuickSI-style, shared by Hybrid and RL-QVO).
///
/// For each query vertex u, in the given matching order, the local candidate
/// set is the adaptive sorted-set intersection (see intersect.h) of the
/// label-restricted adjacency slices NeighborsWithLabel(M(ub), label(u)) of
/// all already-mapped backward neighbors ub, intersected smallest-first into
/// per-depth workspace buffers and finished with the candidate-membership
/// and visited tests. With one backward neighbor the slice is iterated
/// directly — no per-candidate adjacency probes in either case. A query
/// vertex with no mapped backward neighbor (the first vertex, or a component
/// break in a disconnected query/order) iterates its full candidate list
/// instead, so any permutation of V(q) is a legal order — connected orders
/// are merely faster.
class Enumerator {
 public:
  /// Runs the enumeration with a throwaway workspace. `order` must be a
  /// permutation of V(q); `candidates` must come from a complete filter on
  /// the same (q, G) — in particular every v in C(u) must carry label(u)
  /// (all shipped filters guarantee this; the intersection core reads local
  /// candidates from label(u) adjacency slices, so a label-mismatched
  /// candidate — which could never be part of a genuine match — is not
  /// enumerated at depths with mapped backward neighbors; DCHECK-enforced
  /// in debug builds). Convenience for one-shot callers; hot paths should
  /// reuse a workspace via the overload below.
  Result<EnumerateResult> Run(const Graph& query, const Graph& data,
                              const CandidateSet& candidates,
                              const std::vector<VertexId>& order,
                              const EnumerateOptions& options) const;

  /// Runs the enumeration on a caller-owned, reusable workspace (see
  /// EnumeratorWorkspace for the steady-state cost model). When `deadline`
  /// is non-null it supersedes options.time_limit_seconds, and — because the
  /// caller starts it before Run — per-query setup time counts against the
  /// budget; otherwise a fresh deadline of options.time_limit_seconds starts
  /// at the top of Run (which still covers setup). Always serial; the
  /// options.parallel_threads field is ignored here.
  Result<EnumerateResult> Run(const Graph& query, const Graph& data,
                              const CandidateSet& candidates,
                              const std::vector<VertexId>& order,
                              const EnumerateOptions& options,
                              EnumeratorWorkspace* workspace,
                              const Deadline* deadline = nullptr) const;

  /// Parallel enumeration of one query via work stealing. The search tree
  /// is seeded as up to options.parallel_threads *frontier segments* —
  /// (prefix mapping, depth, remaining candidate sub-range) — partitioning
  /// C(order[0]); one worker loop per requested thread is fanned across
  /// resources.pool. Owners pop their own deque LIFO; a drained worker
  /// steals the shallowest queued segment FIFO from another deque; an owner
  /// deep in a heavy subtree lazily splits the tail half of a live sibling
  /// range into a stealable segment when the shared EnumBudget observes
  /// hungry workers (only above a minimum sub-range width, so tiny ranges
  /// never pay the prefix-copy cost). Every segment runs against one shared
  /// EnumBudget, so match_limit and the deadline are global per-query
  /// limits — exactly the serial semantics, just executed elastically. The
  /// calling thread donates itself as one of the loops while waiting
  /// (TryRunOneTask), so nested fan-out from a pool worker cannot deadlock.
  ///
  /// **Determinism contract.** Serial enumeration emits embeddings in
  /// strictly increasing lexicographic order of their *index paths* — the
  /// candidate's position, per order level, within the original frame of
  /// the loop instance it came from. Each segment buffers its emissions as
  /// index-path-tagged blocks, breaking a block exactly where a split
  /// carved an interval out of its stream, so blocks are maximal
  /// consecutive runs of the serial sequence; stitching sorts all blocks
  /// by path and concatenates — serial order, even for splits carved deep
  /// below a segment's base level. A run that is not truncated (no
  /// limit fired, no deadline expired) is therefore bit-identical to the
  /// serial path: same embeddings in the same order, and every work
  /// counter (num_enumerations, num_intersections, ...) sums to exactly
  /// the serial value, independent of thread count, steal schedule,
  /// split timing and intersection kernel. (The scheduler diagnostics —
  /// num_steals, num_splits, max_segment_depth, per-worker min/max — are
  /// schedule descriptions and excluded from that contract.) When a finite
  /// match_limit fires, the run still emits *exactly* match_limit matches
  /// (every slot is claimed exactly once, see EnumBudget), but which valid
  /// embeddings fill the quota depends on the schedule — same count,
  /// possibly different members than serial. Deadline cuts are
  /// timing-dependent in serial mode already; the parallel path keeps that
  /// (weaker) semantics and reports timed_out if any segment was cut.
  ///
  /// Falls back to the serial Run (on resources.caller_workspace) when
  /// resources.pool is null or options.parallel_threads == 0.
  Result<EnumerateResult> RunParallel(const Graph& query, const Graph& data,
                                      const CandidateSet& candidates,
                                      const std::vector<VertexId>& order,
                                      const EnumerateOptions& options,
                                      const ParallelEnumResources& resources,
                                      const Deadline* deadline = nullptr) const;
};

/// \brief Reference matcher: enumerates all embeddings by unconstrained
/// backtracking over label-compatible assignments, with no filtering or
/// ordering optimisations. Exponentially slow; for tests and tiny inputs
/// only.
std::vector<std::vector<VertexId>> BruteForceMatch(const Graph& query,
                                                   const Graph& data,
                                                   uint64_t match_limit = 0);

}  // namespace rlqvo
