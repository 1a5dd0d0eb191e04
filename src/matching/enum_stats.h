#pragma once

#include <algorithm>
#include <cstdint>

namespace rlqvo {

/// \brief The enumeration counters, declared once.
///
/// EnumerateResult (one enumeration run), MatchRunStats (one query through
/// the whole pipeline) and BatchResult (one engine batch) all inherit this
/// struct, so the counters are read under the same names at every layer,
/// aggregated by the one rule in Merge, and emitted by the one visitor in
/// ForEachField.
///
/// The fields fall into two groups:
///   - **Search work** (`num_matches` through `num_bitmap_intersections`):
///     a function of (query, data, candidates, order, match limit) and,
///     for the three kernel-dispatch counters, the intersection kernel in
///     force. An untruncated parallel run reports exactly the serial values
///     whatever the thread count or steal schedule (the bit-identity
///     contract, see Enumerator::RunParallel).
///   - **Schedule** (`num_steals` through `max_worker_work`): describe how
///     the work-stealing scheduler spread that work, vary with thread
///     count and timing, and are excluded from the bit-identity contract.
///     A serial run reports zero steals/splits/segment depth and
///     min == max == its own charged work units.
struct EnumStats {
  /// Embeddings found (capped by EnumerateOptions::match_limit).
  uint64_t num_matches = 0;
  /// #enum (Definition II.6): recursive calls of the enumeration procedure.
  uint64_t num_enumerations = 0;

  /// \name Intersection-core work.
  /// The local-candidate computation intersects label-restricted adjacency
  /// slices; these track how much of that work a run performed, so perf
  /// trajectories can follow work done rather than just wall time.
  /// @{
  /// Pairwise sorted-set intersections executed (an Extend with k >= 2
  /// mapped backward neighbors performs k-1; k == 1 performs none — the
  /// slice is used directly).
  uint64_t num_intersections = 0;
  /// Element comparisons spent inside the merge/gallop intersection loops.
  /// Kernel-specific: each kernel charges the work it actually performed
  /// (deterministically for a given input).
  uint64_t num_probe_comparisons = 0;
  /// Sum of local-candidate set sizes (slice or intersection output, before
  /// the visited/candidate-membership test). Divide by
  /// local_candidate_sets for the average.
  uint64_t local_candidates_total = 0;
  /// Number of local-candidate sets computed (Extend calls with at least
  /// one mapped backward neighbor).
  uint64_t local_candidate_sets = 0;
  /// Of num_intersections, how many a SIMD kernel served (shuffle merge or
  /// SIMD-probe gallop — see IntersectDispatch). Kernel-specific.
  uint64_t num_simd_intersections = 0;
  /// Of num_intersections, how many a bitmap path served (word-parallel AND
  /// or bit-probe against a dense slice's sidecar). Kernel-specific.
  uint64_t num_bitmap_intersections = 0;
  /// @}

  /// \name Work-stealing schedule.
  /// @{
  /// Cross-deque segment steals (a drained worker taking another worker's
  /// queued segment). Zero means static seeding alone balanced the load.
  uint64_t num_steals = 0;
  /// Lazy splits performed (an owner shedding the tail half of a live
  /// sibling range into a stealable segment). Counts runtime splits only,
  /// not the initial root seeding.
  uint64_t num_splits = 0;
  /// Deepest order position any executed segment resumed at (0 = all work
  /// stayed in root-level segments).
  uint64_t max_segment_depth = 0;
  /// Minimum / maximum per-worker charged work units across the workers
  /// that took part in a run — the load-balance spread the scheduler
  /// achieved (equal values = perfectly even).
  uint64_t min_worker_work = 0;
  uint64_t max_worker_work = 0;
  /// @}

  /// Folds `other` into this. Every counter sums, except:
  /// max_segment_depth and max_worker_work take the maximum, and
  /// min_worker_work takes the minimum over the runs that did work
  /// (max_worker_work > 0), so a run that did nothing — an empty candidate
  /// set, an expired deadline, a default-constructed entry — cannot mask
  /// the real spread with its zero.
  void Merge(const EnumStats& other) {
    num_matches += other.num_matches;
    num_enumerations += other.num_enumerations;
    num_intersections += other.num_intersections;
    num_probe_comparisons += other.num_probe_comparisons;
    local_candidates_total += other.local_candidates_total;
    local_candidate_sets += other.local_candidate_sets;
    num_simd_intersections += other.num_simd_intersections;
    num_bitmap_intersections += other.num_bitmap_intersections;
    num_steals += other.num_steals;
    num_splits += other.num_splits;
    max_segment_depth = std::max(max_segment_depth, other.max_segment_depth);
    if (other.max_worker_work > 0) {
      min_worker_work = max_worker_work > 0
                            ? std::min(min_worker_work, other.min_worker_work)
                            : other.min_worker_work;
    }
    max_worker_work = std::max(max_worker_work, other.max_worker_work);
  }

  /// Calls `f(name, value, deterministic)` once per counter, in declaration
  /// order; `name` is the member's name. `deterministic` is false for the
  /// schedule fields the bit-identity contract excludes.
  template <typename F>
  constexpr void ForEachField(F&& f) const {
    f("num_matches", num_matches, true);
    f("num_enumerations", num_enumerations, true);
    f("num_intersections", num_intersections, true);
    f("num_probe_comparisons", num_probe_comparisons, true);
    f("local_candidates_total", local_candidates_total, true);
    f("local_candidate_sets", local_candidate_sets, true);
    f("num_simd_intersections", num_simd_intersections, true);
    f("num_bitmap_intersections", num_bitmap_intersections, true);
    f("num_steals", num_steals, false);
    f("num_splits", num_splits, false);
    f("max_segment_depth", max_segment_depth, false);
    f("min_worker_work", min_worker_work, false);
    f("max_worker_work", max_worker_work, false);
  }
};

}  // namespace rlqvo
