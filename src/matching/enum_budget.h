#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/check.h"
#include "common/padded_atomic.h"
#include "common/timer.h"

namespace rlqvo {

/// \brief Global per-query enumeration budget, shared by every worker of
/// one enumeration run.
///
/// A parallel enumeration (Enumerator::RunParallel) splits the search tree
/// into segments that run concurrently, but `match_limit` and
/// `time_limit_seconds` are *per-query* semantics: the paper caps each query
/// at 1e5 matches and 500 s total (Sec IV-A), not each segment. An
/// EnumBudget is the single object those limits live in:
///
/// - **Match budget: per-worker claim leases.** Before emitting, a worker
///   claims slots via TryClaimMatches(slot, n) — one call per leaf scan,
///   for all `n` embeddings that scan found — where `slot` is the claiming
///   worker's index in [0, num_slots). The `match_limit` slots start in a
///   global *pool*; each worker slot owns a cache-line-padded *lease* of
///   slots moved out of the pool in chunks. A claim takes from the worker's
///   own lease — an uncontended line that stays in that core's cache. A
///   lease that cannot cover the claim refills with one CAS on the pool,
///   taking the claim's shortfall or about remaining / (4 * num_slots)
///   slots clamped to [1, kMaxLeaseChunk], whichever is larger, so chunks
///   shrink toward 1 as the cap nears. Once the pool is empty, a worker
///   revokes slots from sibling leases by CAS, so a lease stranded on a
///   worker that went quiet is never lost. A claim is short of `n` only
///   when the pool is empty and every lease reads 0. The total number of
///   emitted matches across all workers is therefore *exactly*
///   min(available, match_limit) — never limit-per-worker, never limit+1
///   from a race, never fewer from a stranded lease (see the exactness
///   argument below). The serial path is the one-slot case of the same
///   claim (its lease lives inline, no heap allocation), and the unlimited
///   case (match_limit == 0) never touches an atomic.
/// - **Deadline.** One shared Deadline (wall clock) read by every worker.
///   Deadline is immutable after construction, so concurrent Expired() calls
///   are safe.
/// - **Stop broadcast.** The first worker to exhaust the budget or observe
///   deadline expiry raises `stop`, which other workers poll at their
///   work-quantum checkpoints so they unwind promptly instead of burning
///   their own quantum rediscovering the deadline.
///
/// `match_limit == 0` means unlimited (the paper's "ALL" setting, Fig 11):
/// TryClaimMatches grants every slot asked for and LimitReached is always
/// false.
///
/// **Why the cap stays exact.** Slots only ever move pool -> lease -> claim,
/// each move one atomic RMW, so at most match_limit slots are granted. For
/// the other direction — a claim is never short while a slot is left — two
/// facts suffice. (1) Once the pool reads 0 it never refills. (2) A lease can
/// only *grow* through a refill, and a refiller marks its lease
/// kRefilling before its pool CAS and replaces the mark with the deposited
/// count after it; the pool CAS is a release and exhaustion scans load the
/// pool with acquire, so a scanner that read pool == 0 sees every earlier
/// refill's mark or its deposit. Any refill that starts later fails its
/// pool CAS and deposits nothing. So after the pool reads 0 the lease
/// counts only go down, a scan that reads every lease as 0 with no mark in
/// flight is a consistent snapshot of "every slot claimed", and a scan
/// that meets a mark re-reads instead of failing (the refiller is one
/// store from publishing). A bulk claim takes min(held, still needed) from
/// each lease it visits, so a lease it does not leave empty covered the
/// rest of its ask; it comes back short only from such a full, mark-free
/// scan. No lease is ever returned and no claimer blocks on another.
///
/// **Memory-order protocol.** Apart from the pool release/acquire pair
/// above, every atomic here uses std::memory_order_relaxed, deliberately:
/// the budget only *counts* and *signals* — it never publishes data. A
/// successful claim entitles the worker to emit into its own segment-local
/// buffer; those buffers are handed to the coordinator through the
/// scheduler/Completion mutexes (see Enumerator::RunParallel), which
/// provide all the happens-before edges the emitted embeddings need.
/// `stop_` is a pure hint — a worker that misses a freshly-raised stop
/// merely burns the rest of its current work quantum before re-polling,
/// which affects latency, never correctness (claims, not the stop flag,
/// bound the emission count). Any new field that *does* publish data
/// through the budget must either use release/acquire or go through a
/// mutex.
///
/// **Layout.** The pool, each lease, `stop_` and `hungry_` sit on their own
/// cache lines; the read-only configuration shares one line that is never
/// written after construction. So the per-leaf claim touches only the
/// claimer's lease line, and the quantum polls of `stop_`/`hungry_` never
/// contend with claims.
class EnumBudget {
 public:
  /// Largest number of slots one refill moves from the pool to a lease.
  static constexpr uint64_t kMaxLeaseChunk = 1024;

  /// \param match_limit global emission cap across all workers; 0 =
  ///        unlimited.
  /// \param deadline shared wall-clock budget; must outlive the budget.
  /// \param num_slots number of distinct worker slots that will claim
  ///        (RunParallel: its worker count; serial Run: 1).
  EnumBudget(uint64_t match_limit, const Deadline* deadline,
             size_t num_slots = 1)
      : limit_(match_limit),
        deadline_(deadline),
        num_slots_(match_limit == 0 ? 1 : num_slots) {
    RLQVO_DCHECK(deadline != nullptr);
    RLQVO_DCHECK(num_slots >= 1);
    pool_.value.store(match_limit, std::memory_order_relaxed);
    if (num_slots_ > 1) {
      heap_leases_ = std::make_unique<PaddedAtomic<uint64_t>[]>(num_slots_);
      leases_ = heap_leases_.get();
    }
  }

  EnumBudget(const EnumBudget&) = delete;
  EnumBudget& operator=(const EnumBudget&) = delete;

  /// Claims up to `n` emission slots for worker `slot` and returns how many
  /// were granted: first from the worker's own lease, then by refilling it
  /// from the pool (ClaimSlow), then by revoking slots from any lease. A
  /// grant below `n` means every slot of the global limit has now been
  /// claimed (the stop flag is raised); the unlimited budget always grants
  /// `n`. A caller must emit exactly the granted number of matches. Several
  /// threads may share one slot (correct, just contended).
  uint64_t TryClaimMatches(size_t slot, uint64_t n) {
    if (limit_ == 0) return n;
    RLQVO_DCHECK(slot < num_slots_);
    const uint64_t got = TakeUpTo(&leases_[slot].value, n);
    return got == n ? n : got + ClaimSlow(slot, n - got);
  }

  /// The one-slot claim: TryClaimMatches(slot, 1) == 1.
  bool TryClaimMatch(size_t slot = 0) { return TryClaimMatches(slot, 1) == 1; }

  /// True once every slot of the (finite) limit has been claimed: the pool
  /// is empty and no lease holds a slot or has a refill in flight.
  bool LimitReached() const {
    if (limit_ == 0) return false;
    if (pool_.value.load(std::memory_order_acquire) != 0) return false;
    for (size_t s = 0; s < num_slots_; ++s) {
      if (leases_[s].value.load(std::memory_order_relaxed) != 0) return false;
    }
    return true;
  }

  /// The post-emission check after a successful claim on `slot`: while the
  /// worker's own lease still holds slots the limit cannot have been
  /// reached, so this is one load of the worker's own line; only an empty
  /// lease pays for the LimitReached() scan. In the one-slot (serial) case
  /// it is true exactly on the claim that spends the last slot.
  bool LimitReachedAfterClaim(size_t slot) const {
    if (limit_ == 0) return false;
    if (leases_[slot].value.load(std::memory_order_relaxed) != 0) return false;
    return LimitReached();
  }

  const Deadline& deadline() const { return *deadline_; }

  /// Raised by the first worker that exhausts the match budget or observes
  /// deadline expiry; polled by the others at work-quantum checkpoints.
  /// Relaxed on both sides: the flag carries no payload, and a stale read
  /// only delays a worker's unwind by one work quantum (see the class
  /// comment's memory-order protocol).
  void RequestStop() { stop_.value.store(true, std::memory_order_relaxed); }
  bool StopRequested() const {
    return stop_.value.load(std::memory_order_relaxed);
  }

  /// \name Hungry-worker signal (used by the work-stealing scheduler).
  /// Count of this run's workers currently hunting for a segment to steal
  /// (deque drained, none acquired yet). Busy workers poll it at their
  /// split-quantum checkpoints: a nonzero count means a lazily-split
  /// segment would find a taker. Relaxed on both sides, consistent with
  /// the class protocol above — the counter only *counts*; it gates a
  /// heuristic split decision, and a stale read costs at most one missed
  /// or one useless split (the segment itself is handed over through the
  /// scheduler's mutex, which provides the publication edge).
  /// @{
  void AddHungryWorker() {
    hungry_.value.fetch_add(1, std::memory_order_relaxed);
  }
  void RemoveHungryWorker() {
    hungry_.value.fetch_sub(1, std::memory_order_relaxed);
  }
  bool HasHungryWorkers() const {
    return hungry_.value.load(std::memory_order_relaxed) > 0;
  }
  /// @}

 private:
  /// Lease value while its owner moves a chunk out of the pool: no slot is
  /// claimable from it yet, but an exhaustion scan must not read it as
  /// empty (see the exactness argument). Disjoint from every real count,
  /// which is at most kMaxLeaseChunk.
  static constexpr uint64_t kRefilling = uint64_t{1} << 63;

  /// Takes min(held, want) slots from `lease` (a refill mark holds none)
  /// and returns how many. Relaxed: the CAS's atomicity alone keeps the
  /// count exact.
  static uint64_t TakeUpTo(std::atomic<uint64_t>* lease, uint64_t want) {
    uint64_t have = lease->load(std::memory_order_relaxed);
    while (have != 0 && have != kRefilling) {
      const uint64_t take = std::min(have, want);
      if (lease->compare_exchange_weak(have, have - take,
                                       std::memory_order_relaxed)) {
        return take;
      }
    }
    return 0;
  }

  /// Own lease could not cover the claim: refill it from the pool, or once
  /// the pool is empty revoke slots from any lease. Returns the slots
  /// granted toward `want`; fewer only once every slot is claimed. Kept out
  /// of line so the claim hot path inlines only the own-lease decrement.
  [[gnu::noinline]] uint64_t ClaimSlow(size_t slot, uint64_t want) {
    std::atomic<uint64_t>& own = leases_[slot].value;
    uint64_t got = 0;
    for (;;) {
      uint64_t pool = pool_.value.load(std::memory_order_acquire);
      if (pool != 0) {
        // Mark the lease before touching the pool. If a thread sharing
        // this slot holds the mark already, take only what this claim
        // needs from the pool instead of depositing.
        uint64_t empty = 0;
        const bool deposit = own.compare_exchange_strong(
            empty, kRefilling, std::memory_order_relaxed);
        uint64_t leased = 0;
        while (pool != 0) {
          // Take this claim's need or one lease chunk, whichever is
          // larger; what the claim does not need is leased out.
          const uint64_t need = want - got;
          const uint64_t chunk =
              deposit ? std::clamp<uint64_t>(pool / (4 * num_slots_), 1,
                                             kMaxLeaseChunk)
                      : 1;
          const uint64_t take = std::min(pool, std::max(need, chunk));
          if (pool_.value.compare_exchange_weak(pool, pool - take,
                                                std::memory_order_release,
                                                std::memory_order_acquire)) {
            got += std::min(need, take);
            leased = take - std::min(need, take);
            break;
          }
        }
        if (deposit) own.store(leased, std::memory_order_relaxed);
        // Short of `want` here means the take emptied the pool.
        if (got == want) return got;
      }
      // The pool read 0 (with acquire) and stays 0. Revoke slots from any
      // lease, this slot's own included: a thread sharing the slot may
      // have refilled it.
      bool retry = false;
      for (size_t i = 1; i <= num_slots_; ++i) {
        std::atomic<uint64_t>& lease = leases_[(slot + i) % num_slots_].value;
        got += TakeUpTo(&lease, want - got);
        if (got == want) return got;
        // Nonzero here is a refill mark, or the deposit of a refill whose
        // mark TakeUpTo just saw: not provably empty.
        retry |= lease.load(std::memory_order_relaxed) != 0;
      }
      if (!retry) {
        RequestStop();
        return got;
      }
      // A refill is between its pool CAS and its deposit; re-read.
      std::this_thread::yield();
    }
  }

  const uint64_t limit_;
  const Deadline* const deadline_;
  const size_t num_slots_;
  /// The leases: &inline_lease_ for one slot, heap_leases_ otherwise.
  PaddedAtomic<uint64_t>* leases_ = &inline_lease_;
  std::unique_ptr<PaddedAtomic<uint64_t>[]> heap_leases_;

  PaddedAtomic<uint64_t> pool_;  // unleased slots; never refills once 0
  PaddedAtomic<uint64_t> inline_lease_;
  PaddedAtomic<bool> stop_;
  PaddedAtomic<uint32_t> hungry_;
};

}  // namespace rlqvo
