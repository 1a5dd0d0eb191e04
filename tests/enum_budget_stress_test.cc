#include "matching/enum_budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"

namespace rlqvo {
namespace {

// Dedicated contention coverage for the lock-free per-query budget that
// every parallel enumeration chunk shares (see EnumBudget's memory-order
// protocol). These tests are deliberately oversubscribed relative to the
// container's core count: the claim/stop protocol must be exact under any
// interleaving, and the TSan CI job runs this binary to check the
// no-data-race half of that claim.

constexpr int kThreads = 8;

/// Launches `n` threads running `fn(thread_index)` and joins them all.
void RunThreads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

// The core exactness property: with T threads hammering a limit of L,
// exactly L claims succeed — never L+1 from a CAS race, never fewer from a
// lost update — regardless of how the attempts interleave. With one slot
// all threads share one lease; with 4 slots (two threads per slot) claims
// mostly come out of per-slot leases and the tail revokes across slots.
TEST(EnumBudgetStressTest, ContendedClaimsMatchLimitExactly) {
  const Deadline deadline = Deadline::Unlimited();
  for (const size_t slots : {size_t{1}, size_t{4}}) {
    for (const uint64_t limit : {1u, 7u, 100u, 1000u}) {
      SCOPED_TRACE("slots=" + std::to_string(slots) +
                   " limit=" + std::to_string(limit));
      EnumBudget budget(limit, &deadline, slots);
      std::atomic<uint64_t> granted{0};
      RunThreads(kThreads, [&](int t) {
        const size_t slot = static_cast<size_t>(t) % slots;
        // Each thread attempts far more claims than the whole limit, so
        // exhaustion is certain and contention spans the full run.
        for (uint64_t i = 0; i < 2 * limit + 64; ++i) {
          if (budget.TryClaimMatch(slot)) granted.fetch_add(1);
        }
      });
      EXPECT_EQ(granted.load(), limit);
      EXPECT_TRUE(budget.LimitReached());
      // Exhaustion must have raised the stop broadcast for sibling chunks.
      EXPECT_TRUE(budget.StopRequested());
      // The budget stays exhausted: later claims keep failing.
      for (size_t slot = 0; slot < slots; ++slot) {
        EXPECT_FALSE(budget.TryClaimMatch(slot));
      }
    }
  }
}

// match_limit == 0 is the paper's "ALL" setting: claims always succeed and
// never touch the atomic, so no amount of claiming may trip the limit or
// the stop flag.
TEST(EnumBudgetStressTest, UnlimitedBudgetNeverExhaustsUnderContention) {
  const Deadline deadline = Deadline::Unlimited();
  EnumBudget budget(0, &deadline);
  std::atomic<uint64_t> granted{0};
  RunThreads(kThreads, [&](int) {
    for (int i = 0; i < 50000; ++i) {
      if (budget.TryClaimMatch()) granted.fetch_add(1);
    }
  });
  EXPECT_EQ(granted.load(), static_cast<uint64_t>(kThreads) * 50000);
  EXPECT_FALSE(budget.LimitReached());
  EXPECT_FALSE(budget.StopRequested());
}

// Stop-broadcast latency: pollers parked on StopRequested() must all
// observe a RequestStop raised by another thread. The flag is relaxed, so
// this is exactly the "a stale read only delays the unwind" contract — but
// it must become visible promptly, not hang a chunk forever.
TEST(EnumBudgetStressTest, StopBroadcastReachesEveryPoller) {
  const Deadline deadline = Deadline::Unlimited();
  EnumBudget budget(1000000, &deadline);
  std::atomic<int> observed{0};
  std::atomic<int> started{0};
  std::vector<std::thread> pollers;
  for (int i = 0; i < kThreads; ++i) {
    pollers.emplace_back([&] {
      started.fetch_add(1);
      // Emulate a chunk's checkpoint loop: do a sliver of claimed "work",
      // then poll. A poller that never sees the stop would spin forever and
      // time the test out — visibility IS the assertion.
      while (!budget.StopRequested()) {
        budget.TryClaimMatch();
        std::this_thread::yield();
      }
      observed.fetch_add(1);
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  budget.RequestStop();
  for (std::thread& t : pollers) t.join();
  EXPECT_EQ(observed.load(), kThreads);
  // The stop broadcast is advisory only: it must not have consumed claims'
  // exactness (claims above were all granted, limit never reached).
  EXPECT_FALSE(budget.LimitReached());
}

// Deadline expiry racing active claims: every chunk polls Expired() on the
// one shared (immutable) Deadline while others are mid-claim. The test
// pins down that (a) concurrent Expired() reads are safe, (b) the first
// observer's RequestStop halts the rest, and (c) claims granted before the
// stop stay within the limit.
TEST(EnumBudgetStressTest, DeadlineExpiryRaceStopsAllChunks) {
  const Deadline deadline(0.02);  // 20 ms — expires mid-run
  EnumBudget budget(1u << 30, &deadline);
  std::atomic<uint64_t> granted{0};
  RunThreads(kThreads, [&](int) {
    for (;;) {
      if (budget.StopRequested()) return;  // a sibling saw expiry first
      if (budget.deadline().Expired()) {
        budget.RequestStop();
        return;
      }
      // A checkpoint quantum's worth of claims between deadline polls.
      for (int i = 0; i < 64; ++i) {
        if (budget.TryClaimMatch()) granted.fetch_add(1);
      }
    }
  });
  EXPECT_TRUE(budget.StopRequested());
  EXPECT_FALSE(budget.LimitReached());
  EXPECT_GT(granted.load(), 0u);
}

// An already-expired deadline (the "budget spent in earlier phases" case
// RunParallel short-circuits on) must read as expired from every thread,
// immediately and forever.
TEST(EnumBudgetStressTest, ExpiredDeadlineIsExpiredFromEveryThread) {
  const Deadline deadline(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EnumBudget budget(100, &deadline);
  std::atomic<int> saw_expired{0};
  RunThreads(kThreads, [&](int) {
    if (budget.deadline().Expired()) saw_expired.fetch_add(1);
  });
  EXPECT_EQ(saw_expired.load(), kThreads);
}

// Reuse churn: budgets are created per enumeration run, so a fresh budget
// must never inherit state (claims or stop) from a previous run's traffic.
TEST(EnumBudgetStressTest, FreshBudgetsStartCleanAcrossRounds) {
  const Deadline deadline = Deadline::Unlimited();
  for (int round = 0; round < 200; ++round) {
    const uint64_t limit = 1 + static_cast<uint64_t>(round) % 17;
    EnumBudget budget(limit, &deadline);
    EXPECT_FALSE(budget.StopRequested());
    EXPECT_FALSE(budget.LimitReached());
    std::atomic<uint64_t> granted{0};
    RunThreads(4, [&](int) {
      for (uint64_t i = 0; i < limit; ++i) {
        if (budget.TryClaimMatch()) granted.fetch_add(1);
      }
    });
    EXPECT_EQ(granted.load(), limit);
  }
}

// A worker that refilled its lease and then went quiet (its segment found
// no more matches) must not strand those slots: once the pool is empty the
// other slots revoke them one by one, so they are still granted exactly
// limit - 1, and the limit reads as reached only when the last stranded
// slot is gone.
TEST(EnumBudgetStressTest, StrandedLeaseIsRevokedBySiblings) {
  const Deadline deadline = Deadline::Unlimited();
  constexpr size_t kSlots = 4;
  for (const uint64_t limit : {2u, 100u, 1000u, 50000u}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    // Deterministic half: one sibling thread drains everything but the
    // last stranded slot, then takes it.
    {
      EnumBudget budget(limit, &deadline, kSlots);
      ASSERT_TRUE(budget.TryClaimMatch(0));  // slot 0 leases a chunk
      for (uint64_t i = 0; i + 2 < limit; ++i) {
        ASSERT_TRUE(budget.TryClaimMatch(1)) << "claim " << i;
      }
      EXPECT_FALSE(budget.LimitReached());
      EXPECT_FALSE(budget.StopRequested());
      EXPECT_TRUE(budget.TryClaimMatch(2));  // the last stranded slot
      EXPECT_TRUE(budget.LimitReached());
      EXPECT_FALSE(budget.TryClaimMatch(3));
      EXPECT_FALSE(budget.TryClaimMatch(0));
    }
    // Contended half: slot 0 stays silent after its one claim while the
    // other slots' threads race for the rest.
    {
      EnumBudget budget(limit, &deadline, kSlots);
      ASSERT_TRUE(budget.TryClaimMatch(0));
      std::atomic<uint64_t> granted{0};
      RunThreads(kThreads, [&](int t) {
        const size_t slot = 1 + static_cast<size_t>(t) % (kSlots - 1);
        while (budget.TryClaimMatch(slot)) granted.fetch_add(1);
      });
      EXPECT_EQ(granted.load(), limit - 1);
      EXPECT_TRUE(budget.LimitReached());
      EXPECT_FALSE(budget.TryClaimMatch(0));
    }
  }
}

// Eight threads on one slot of a 4-slot budget: the owner-side decrement
// and refill are CASes too, so a slot shared by many threads (one of them
// holding the refill mark while the others take single slots from the
// pool) stays exact while the other leases never fill.
TEST(EnumBudgetStressTest, SharedSlotClaimsMatchLimitExactly) {
  const Deadline deadline = Deadline::Unlimited();
  for (const uint64_t limit : {1u, 7u, 1000u, 100000u}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    EnumBudget budget(limit, &deadline, 4);
    std::atomic<uint64_t> granted{0};
    RunThreads(kThreads, [&](int) {
      while (budget.TryClaimMatch(3)) granted.fetch_add(1);
    });
    EXPECT_EQ(granted.load(), limit);
    EXPECT_TRUE(budget.LimitReached());
  }
}

// Limits smaller than the slot count: every chunk is a single slot and
// most slots never hold a lease, yet exactly `limit` claims succeed.
TEST(EnumBudgetStressTest, TinyLimitsAcrossSlotsAreExact) {
  const Deadline deadline = Deadline::Unlimited();
  constexpr size_t kSlots = 4;
  for (int round = 0; round < 50; ++round) {
    for (const uint64_t limit : {1u, 2u, 3u}) {
      EnumBudget budget(limit, &deadline, kSlots);
      std::atomic<uint64_t> granted{0};
      RunThreads(kThreads, [&](int t) {
        const size_t slot = static_cast<size_t>(t) % kSlots;
        while (budget.TryClaimMatch(slot)) granted.fetch_add(1);
      });
      EXPECT_EQ(granted.load(), limit) << "limit=" << limit;
      EXPECT_TRUE(budget.LimitReached());
    }
  }
}

// The post-emission check: true exactly on the claim that spends the last
// slot in the one-slot (serial) case, so the serial run stops on that
// emission just as a single global counter would.
TEST(EnumBudgetStressTest, SerialLimitReachedOnTheLastClaim) {
  const Deadline deadline = Deadline::Unlimited();
  for (const uint64_t limit : {1u, 3u, 4u, 5u, 1023u, 4096u, 100000u}) {
    EnumBudget budget(limit, &deadline);
    for (uint64_t i = 1; i <= limit; ++i) {
      ASSERT_TRUE(budget.TryClaimMatch(0));
      ASSERT_EQ(budget.LimitReachedAfterClaim(0), i == limit)
          << "limit=" << limit << " claim=" << i;
    }
    EXPECT_FALSE(budget.TryClaimMatch(0));
  }
}

// Bulk claims (one per leaf scan): TryClaimMatches grants
// min(n, remaining) in the one-slot case, whether n fits the lease, exceeds
// the largest lease chunk, the remaining pool or the whole limit, and the
// post-claim check fires exactly when the grant spends the last slot.
TEST(EnumBudgetStressTest, SerialBulkClaimsGrantMinOfAskAndRemaining) {
  const Deadline deadline = Deadline::Unlimited();
  const uint64_t asks[] = {1, 3, 700, EnumBudget::kMaxLeaseChunk + 1, 5000};
  for (const uint64_t limit : {1u, 5u, 1024u, 4097u, 100000u}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    EnumBudget budget(limit, &deadline);
    uint64_t remaining = limit;
    for (size_t i = 0; remaining > 0; ++i) {
      const uint64_t ask = asks[i % std::size(asks)];
      const uint64_t got = budget.TryClaimMatches(0, ask);
      ASSERT_EQ(got, std::min(ask, remaining)) << "claim " << i;
      remaining -= got;
      ASSERT_EQ(budget.LimitReachedAfterClaim(0), remaining == 0);
    }
    EXPECT_EQ(budget.TryClaimMatches(0, 10), 0u);
    EXPECT_TRUE(budget.StopRequested());
    // An ask larger than the whole limit, on a fresh budget.
    EnumBudget whole(limit, &deadline);
    EXPECT_EQ(whole.TryClaimMatches(0, limit + 7), limit);
    EXPECT_TRUE(whole.LimitReached());
  }
}

// Single and bulk claims mixed over 4 slots (two threads per slot): asks
// below the lease chunk, above kMaxLeaseChunk, and above the pool and the
// limit. Each thread claims until it is granted short of its ask — proof
// the budget is spent — and the grants sum to exactly the limit.
TEST(EnumBudgetStressTest, MixedSingleAndBulkClaimsSumToLimitExactly) {
  const Deadline deadline = Deadline::Unlimited();
  constexpr size_t kSlots = 4;
  for (const uint64_t limit : {1u, 7u, 100u, 1000u, 5000u, 100000u}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    const uint64_t asks[] = {1, 3, 64, EnumBudget::kMaxLeaseChunk + 476,
                             limit + 1};
    EnumBudget budget(limit, &deadline, kSlots);
    std::atomic<uint64_t> granted{0};
    RunThreads(kThreads, [&](int t) {
      const size_t slot = static_cast<size_t>(t) % kSlots;
      for (size_t i = static_cast<size_t>(t);; ++i) {
        const uint64_t ask = asks[i % std::size(asks)];
        const uint64_t got = ask == 1 ? uint64_t{budget.TryClaimMatch(slot)}
                                      : budget.TryClaimMatches(slot, ask);
        granted.fetch_add(got);
        if (got < ask) break;
      }
    });
    EXPECT_EQ(granted.load(), limit);
    EXPECT_TRUE(budget.LimitReached());
    EXPECT_TRUE(budget.StopRequested());
    EXPECT_EQ(budget.TryClaimMatches(0, 5), 0u);
  }
}

// A lease stranded on a silent slot is recovered by bulk claimers too: one
// bulk ask on a sibling slot drains the pool and then revokes the stranded
// slots, and contended bulk claimers on the other slots are granted exactly
// limit - 1 between them.
TEST(EnumBudgetStressTest, StrandedLeaseIsRevokedByBulkClaimers) {
  const Deadline deadline = Deadline::Unlimited();
  constexpr size_t kSlots = 4;
  for (const uint64_t limit : {2u, 100u, 1000u, 50000u}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    {
      EnumBudget budget(limit, &deadline, kSlots);
      ASSERT_TRUE(budget.TryClaimMatch(0));  // slot 0 leases a chunk
      EXPECT_EQ(budget.TryClaimMatches(1, limit), limit - 1);
      EXPECT_TRUE(budget.LimitReached());
      EXPECT_FALSE(budget.TryClaimMatch(0));
    }
    {
      EnumBudget budget(limit, &deadline, kSlots);
      ASSERT_TRUE(budget.TryClaimMatch(0));
      std::atomic<uint64_t> granted{0};
      RunThreads(kThreads, [&](int t) {
        const size_t slot = 1 + static_cast<size_t>(t) % (kSlots - 1);
        const uint64_t ask = t % 2 == 0 ? 5 : EnumBudget::kMaxLeaseChunk + 1;
        for (;;) {
          const uint64_t got = budget.TryClaimMatches(slot, ask);
          granted.fetch_add(got);
          if (got < ask) break;
        }
      });
      EXPECT_EQ(granted.load(), limit - 1);
      EXPECT_TRUE(budget.LimitReached());
      EXPECT_FALSE(budget.TryClaimMatch(0));
    }
  }
}

// Unlimited: every ask is granted in full and nothing ever reads as
// reached or stopped.
TEST(EnumBudgetStressTest, UnlimitedBulkClaimsGrantEveryAsk) {
  const Deadline deadline = Deadline::Unlimited();
  EnumBudget budget(0, &deadline, 4);
  for (const uint64_t ask : {uint64_t{1}, uint64_t{1000},
                             std::numeric_limits<uint64_t>::max()}) {
    EXPECT_EQ(budget.TryClaimMatches(3, ask), ask);
  }
  EXPECT_FALSE(budget.LimitReached());
  EXPECT_FALSE(budget.LimitReachedAfterClaim(0));
  EXPECT_FALSE(budget.StopRequested());
}

}  // namespace
}  // namespace rlqvo
