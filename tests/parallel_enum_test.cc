// Parallel/serial equivalence for Enumerator::RunParallel and the
// parallel_threads plumbing through SubgraphMatcher and QueryEngine.
//
// The determinism contract under test (see enumerator.h): an untruncated
// parallel run is bit-identical to the serial path — same embeddings in the
// same order, same work counters — for any thread count; a truncated run
// (finite match_limit that fires) still emits *exactly* match_limit valid,
// distinct embeddings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/intersect.h"
#include "matching/ordering.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::DeterministicFields;
using testing_util::IsIsomorphism;
using testing_util::KernelInvariantFields;
using testing_util::RandomQuery;
using testing_util::ScopedGrowthDenied;

struct PreparedQuery {
  Graph query;
  CandidateSet candidates;
  std::vector<VertexId> order;
};

Graph MakeData(uint64_t seed, uint32_t n, double avg_degree,
               uint32_t num_labels, double zipf) {
  LabelConfig cfg;
  cfg.num_labels = num_labels;
  cfg.zipf_exponent = zipf;
  return GenerateErdosRenyi(n, avg_degree, cfg, seed).ValueOrDie();
}

PreparedQuery PrepareQuery(const Graph& data, uint64_t seed, uint32_t size) {
  PreparedQuery out{RandomQuery(data, seed, size), CandidateSet(), {}};
  out.candidates = LDFFilter().Filter(out.query, data).ValueOrDie();
  OrderingContext ctx;
  ctx.query = &out.query;
  ctx.data = &data;
  ctx.candidates = &out.candidates;
  out.order = RIOrdering().MakeOrder(ctx).ValueOrDie();
  return out;
}

EnumerateResult RunSerial(const Graph& data, const PreparedQuery& pq,
                          EnumerateOptions opts) {
  opts.parallel_threads = 0;
  Enumerator enumerator;
  return enumerator.Run(pq.query, data, pq.candidates, pq.order, opts)
      .ValueOrDie();
}

EnumerateResult RunParallelWith(const Graph& data, const PreparedQuery& pq,
                                EnumerateOptions opts, uint32_t threads,
                                ThreadPool* pool,
                                std::vector<EnumeratorWorkspace>* workspaces,
                                EnumeratorWorkspace* caller_ws) {
  opts.parallel_threads = threads;
  ParallelEnumResources resources;
  resources.pool = pool;
  resources.worker_workspaces = workspaces;
  resources.caller_workspace = caller_ws;
  Enumerator enumerator;
  return enumerator
      .RunParallel(pq.query, data, pq.candidates, pq.order, opts, resources)
      .ValueOrDie();
}

void ExpectBitIdentical(const EnumerateResult& serial,
                        const EnumerateResult& parallel, uint32_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  // Every deterministic EnumStats field. The schedule fields (steals,
  // splits, segment depth, per-worker work) legitimately vary run to run
  // with the steal schedule; the determinism contract covers results and
  // work counters only.
  EXPECT_EQ(DeterministicFields(parallel), DeterministicFields(serial));
  EXPECT_EQ(parallel.hit_match_limit, serial.hit_match_limit);
  EXPECT_FALSE(parallel.timed_out);
  // Same embeddings in the same (serial DFS) order — segment stitching.
  EXPECT_EQ(parallel.embeddings, serial.embeddings);
}

// Untruncated runs are bit-identical to serial for every thread count, on
// uniform and skewed label regimes, across random graphs.
TEST(ParallelEnumTest, BitIdenticalToSerialAcrossThreadCounts) {
  struct Regime {
    uint32_t num_labels;
    double zipf;
  };
  const Regime regimes[] = {{4, 0.0}, {3, 1.2}};
  for (const Regime& regime : regimes) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Graph data =
          MakeData(seed * 11, 90, 5.0, regime.num_labels, regime.zipf);
      PreparedQuery pq = PrepareQuery(data, seed * 13 + 1, 5);
      EnumerateOptions opts;
      opts.match_limit = 0;
      opts.store_embeddings = true;
      const EnumerateResult serial = RunSerial(data, pq, opts);
      for (uint32_t threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        std::vector<EnumeratorWorkspace> workspaces(pool.size());
        EnumeratorWorkspace caller_ws;
        const EnumerateResult parallel = RunParallelWith(
            data, pq, opts, threads, &pool, &workspaces, &caller_ws);
        ExpectBitIdentical(serial, parallel, threads);
      }
    }
  }
}

// The serial ≡ parallel contract holds under every dispatch kernel this
// build/CPU supports, and — since all kernels compute the same
// intersections — embeddings and search-shape counters also agree *across*
// kernels (only the comparison charge and the SIMD/bitmap dispatch counts
// are kernel-specific).
TEST(ParallelEnumTest, BitIdenticalAcrossKernelsAndThreadCounts) {
  Graph data = MakeData(77, 90, 5.0, 3, 1.2);
  PreparedQuery pq = PrepareQuery(data, 78, 5);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;

  const IntersectKernel saved = GetIntersectKernel();
  ASSERT_TRUE(SetIntersectKernel(IntersectKernel::kScalar).ok());
  const EnumerateResult baseline = RunSerial(data, pq, opts);
  ASSERT_GT(baseline.num_intersections, 0u);  // the kernels actually ran

  for (IntersectKernel kernel : SupportedIntersectKernels()) {
    SCOPED_TRACE(IntersectKernelName(kernel));
    ASSERT_TRUE(SetIntersectKernel(kernel).ok());
    const EnumerateResult serial = RunSerial(data, pq, opts);
    // Cross-kernel: same search, same results, same shape.
    EXPECT_EQ(serial.embeddings, baseline.embeddings);
    EXPECT_EQ(KernelInvariantFields(serial), KernelInvariantFields(baseline));
    // Per-kernel: parallel runs reproduce that kernel's serial run bit for
    // bit, including the kernel-specific comparison charge.
    for (uint32_t threads : {1u, 2u, 3u, 8u}) {
      ThreadPool pool(threads);
      std::vector<EnumeratorWorkspace> workspaces(pool.size());
      EnumeratorWorkspace caller_ws;
      const EnumerateResult parallel = RunParallelWith(
          data, pq, opts, threads, &pool, &workspaces, &caller_ws);
      ExpectBitIdentical(serial, parallel, threads);
    }
  }
  ASSERT_TRUE(SetIntersectKernel(saved).ok());
}

// Serial runs never touch the scheduler: diagnostics report zero activity
// and a degenerate one-worker work spread. A 1-thread parallel run likewise
// never splits or steals (no hungry peers, no unclaimed slots).
TEST(ParallelEnumTest, SerialAndOneThreadRunsReportNoSchedulerActivity) {
  Graph data = MakeData(19, 80, 5.0, 3, 0.0);
  PreparedQuery pq = PrepareQuery(data, 23, 5);
  EnumerateOptions opts;
  opts.match_limit = 0;

  const EnumerateResult serial = RunSerial(data, pq, opts);
  EXPECT_EQ(serial.num_steals, 0u);
  EXPECT_EQ(serial.num_splits, 0u);
  EXPECT_EQ(serial.max_segment_depth, 0u);
  EXPECT_EQ(serial.min_worker_work, serial.max_worker_work);
  EXPECT_GT(serial.max_worker_work, 0u);

  ThreadPool pool(1);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const EnumerateResult one =
      RunParallelWith(data, pq, opts, 1, &pool, &workspaces, &caller_ws);
  EXPECT_EQ(one.num_steals, 0u);
  EXPECT_EQ(one.num_splits, 0u);
  EXPECT_EQ(one.min_worker_work, one.max_worker_work);
}

// The steal path actually runs — and changes nothing. A heavy skewed
// workload with delay-injected steal/split sites (latency only, never an
// error) perturbs the schedule differently every attempt; each run must
// still be bit-identical to serial, and across a handful of attempts at
// least one schedule must have stolen work (seeds are uneven, so a drained
// worker goes hungry and a split + steal is the only way it gets more).
TEST(ParallelEnumTest, StealsFireAndStayBitIdenticalUnderSkewedSchedules) {
  Graph data = MakeData(31, 260, 10.0, 2, 0.0);
  PreparedQuery pq = PrepareQuery(data, 32, 5);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  const EnumerateResult serial = RunSerial(data, pq, opts);
  ASSERT_GT(serial.num_matches, 0u);

  ASSERT_TRUE(failpoint::Activate("enumerate.steal", "delay:1").ok());
  ASSERT_TRUE(failpoint::Activate("enumerate.split", "delay:1").ok());
  uint64_t total_steals = 0;
  for (uint32_t threads : {3u, 8u}) {
    // Steal counts are schedule-dependent; retry a few times rather than
    // demanding every single schedule steals.
    for (int attempt = 0; attempt < 5; ++attempt) {
      ThreadPool pool(threads);
      std::vector<EnumeratorWorkspace> workspaces(pool.size());
      EnumeratorWorkspace caller_ws;
      const EnumerateResult parallel = RunParallelWith(
          data, pq, opts, threads, &pool, &workspaces, &caller_ws);
      ExpectBitIdentical(serial, parallel, threads);
      // Note a steal needs no split when it grabs an unstarted seed
      // segment, so only steals are asserted on, not splits.
      total_steals += parallel.num_steals;
      if (parallel.num_steals > 0) break;
    }
  }
  failpoint::DeactivateAll();
  EXPECT_GT(total_steals, 0u)
      << "no schedule stole work; the scheduler degenerated to static "
         "seed partitioning";
}

// A finite match_limit stays exact while stealing is active: the shared
// budget hands out claims, so concurrent segments can never over- or
// under-emit no matter how work migrated between workers.
TEST(ParallelEnumTest, ExactLimitWithActiveStealing) {
  Graph data = MakeData(43, 260, 10.0, 2, 0.0);
  PreparedQuery pq = PrepareQuery(data, 44, 5);
  EnumerateOptions unlimited;
  unlimited.match_limit = 0;
  const uint64_t total = RunSerial(data, pq, unlimited).num_matches;
  ASSERT_GT(total, 100u) << "workload too small to exercise limits";

  EnumerateOptions opts;
  opts.match_limit = total - 1;  // nearly all the work, then exact cutoff
  opts.store_embeddings = true;
  uint64_t total_steals = 0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    ThreadPool pool(8);
    std::vector<EnumeratorWorkspace> workspaces(pool.size());
    EnumeratorWorkspace caller_ws;
    const EnumerateResult parallel =
        RunParallelWith(data, pq, opts, 8, &pool, &workspaces, &caller_ws);
    EXPECT_EQ(parallel.num_matches, total - 1);
    EXPECT_TRUE(parallel.hit_match_limit);
    EXPECT_EQ(parallel.embeddings.size(), total - 1);
    std::set<std::vector<VertexId>> distinct(parallel.embeddings.begin(),
                                             parallel.embeddings.end());
    EXPECT_EQ(distinct.size(), total - 1);  // no duplicate emissions
    for (const auto& embedding : parallel.embeddings) {
      ASSERT_TRUE(IsIsomorphism(pq.query, data, embedding));
    }
    total_steals += parallel.num_steals;
    if (total_steals > 0) break;
  }
  failpoint::DeactivateAll();
  EXPECT_GT(total_steals, 0u)
      << "limit runs never stole; test is not exercising limit+steal";
}

TEST(ParallelEnumTest, MatchesBruteForceGroundTruth) {
  Graph data = MakeData(7, 60, 4.5, 3, 0.8);
  PreparedQuery pq = PrepareQuery(data, 21, 4);
  const auto brute = BruteForceMatch(pq.query, data);
  std::set<std::vector<VertexId>> expected(brute.begin(), brute.end());

  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  ThreadPool pool(4);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const EnumerateResult parallel =
      RunParallelWith(data, pq, opts, 4, &pool, &workspaces, &caller_ws);
  std::set<std::vector<VertexId>> got(parallel.embeddings.begin(),
                                      parallel.embeddings.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(parallel.num_matches, expected.size());
}

// A finite match_limit is exact in both paths: min(available, limit)
// matches, never limit+1, never limit-per-chunk. Parallel truncation may
// pick different members than serial, but every emission must be a valid,
// distinct embedding.
TEST(ParallelEnumTest, ExactLimitCountsSerialAndParallel) {
  Graph data = MakeData(3, 80, 6.0, 2, 0.0);  // few labels: many matches
  PreparedQuery pq = PrepareQuery(data, 9, 4);
  EnumerateOptions unlimited;
  unlimited.match_limit = 0;
  const uint64_t total = RunSerial(data, pq, unlimited).num_matches;
  ASSERT_GT(total, 8u) << "workload too small to exercise limits";

  ThreadPool pool(4);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const uint64_t limits[] = {1, 3, 7, total - 1, total, total + 5};
  for (uint64_t limit : limits) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    const uint64_t expected = std::min(total, limit);
    EnumerateOptions opts;
    opts.match_limit = limit;
    opts.store_embeddings = true;

    const EnumerateResult serial = RunSerial(data, pq, opts);
    EXPECT_EQ(serial.num_matches, expected);
    EXPECT_EQ(serial.hit_match_limit, limit <= total);

    const EnumerateResult parallel =
        RunParallelWith(data, pq, opts, 4, &pool, &workspaces, &caller_ws);
    EXPECT_EQ(parallel.num_matches, expected);
    EXPECT_EQ(parallel.hit_match_limit, limit <= total);
    EXPECT_EQ(parallel.embeddings.size(), expected);
    std::set<std::vector<VertexId>> distinct(parallel.embeddings.begin(),
                                             parallel.embeddings.end());
    EXPECT_EQ(distinct.size(), expected);  // no duplicate emissions
    for (const auto& embedding : parallel.embeddings) {
      EXPECT_TRUE(IsIsomorphism(pq.query, data, embedding));
    }
    if (limit > total) {
      // Limit never fired: full determinism contract applies.
      ExpectBitIdentical(serial, parallel, 4);
    }
  }
}

// Exact limits at the claim-lease boundaries (see EnumBudget): a single
// slot, one slot fewer than there are workers (leases so small most
// workers never hold one), and total - 1 / total / total + 1 (the pool
// drains while leases are still stranded on workers, the last slot is the
// last available match, and a cap that never fires). The steal failpoint
// in delay mode skews which worker holds which lease when the pool runs
// dry. Every capped run must emit exactly min(total, limit) distinct valid
// embeddings and report hit_match_limit iff limit <= total; the
// untruncated run must stay bit-identical to serial.
TEST(ParallelEnumTest, ExactLimitAtLeaseBoundariesUnderSkewedSteals) {
  Graph data = MakeData(43, 120, 6.0, 2, 0.0);
  PreparedQuery pq = PrepareQuery(data, 44, 5);
  EnumerateOptions unlimited;
  unlimited.match_limit = 0;
  const uint64_t total = RunSerial(data, pq, unlimited).num_matches;
  ASSERT_GT(total, 100u) << "workload too small to exercise limits";

  ASSERT_TRUE(failpoint::Activate("enumerate.steal", "delay:1").ok());
  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    std::vector<EnumeratorWorkspace> workspaces(pool.size());
    EnumeratorWorkspace caller_ws;
    std::vector<uint64_t> limits = {1, total - 1, total, total + 1};
    if (threads > 1) limits.push_back(threads - 1);  // 0 would be unlimited
    for (uint64_t limit : limits) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " limit=" + std::to_string(limit));
      const uint64_t expected = std::min(total, limit);
      EnumerateOptions opts;
      opts.match_limit = limit;
      opts.store_embeddings = true;
      const EnumerateResult parallel = RunParallelWith(
          data, pq, opts, threads, &pool, &workspaces, &caller_ws);
      EXPECT_EQ(parallel.num_matches, expected);
      EXPECT_EQ(parallel.hit_match_limit, limit <= total);
      EXPECT_FALSE(parallel.timed_out);
      ASSERT_EQ(parallel.embeddings.size(), expected);
      std::set<std::vector<VertexId>> distinct(parallel.embeddings.begin(),
                                               parallel.embeddings.end());
      EXPECT_EQ(distinct.size(), expected);  // no duplicate emissions
      for (const auto& embedding : parallel.embeddings) {
        ASSERT_TRUE(IsIsomorphism(pq.query, data, embedding));
      }
      if (limit > total) {
        ExpectBitIdentical(RunSerial(data, pq, opts), parallel, threads);
      }
    }
  }
  failpoint::DeactivateAll();
}

/// Validity including edge direction and edge labels (IsIsomorphism checks
/// the undirected skeleton only).
bool IsLabeledEmbedding(const Graph& query, const Graph& data,
                        const std::vector<VertexId>& mapping) {
  if (!IsIsomorphism(query, data, mapping)) return false;
  bool ok = true;
  query.ForEachLabeledEdge([&](VertexId a, VertexId b, EdgeLabel e) {
    ok = ok && data.HasEdge(mapping[a], mapping[b], EdgeDir::kOut, e);
  });
  return ok;
}

/// Leaf-loop workloads: a random query, a one-vertex query (the root is
/// the last order position), a query whose last order position is a
/// component break (its leaf scans a full candidate list with no
/// membership test), and a directed edge-labeled query.
struct LeafCase {
  std::string name;
  Graph data;
  PreparedQuery pq;
};

std::vector<LeafCase> LeafCases() {
  std::vector<LeafCase> cases;
  {
    Graph data = MakeData(61, 80, 5.0, 2, 0.0);
    PreparedQuery pq = PrepareQuery(data, 62, 4);
    cases.push_back({"random", std::move(data), std::move(pq)});
  }
  {
    Graph data = MakeData(63, 60, 4.0, 2, 0.0);
    GraphBuilder qb;
    qb.AddVertex(0);
    PreparedQuery pq{qb.Build(), CandidateSet(), {0}};
    pq.candidates = LDFFilter().Filter(pq.query, data).ValueOrDie();
    cases.push_back({"single-vertex", std::move(data), std::move(pq)});
  }
  {
    Graph data = MakeData(64, 40, 3.0, 3, 0.0);
    GraphBuilder qb;  // edge 0-1 plus the isolated vertex 2, placed last
    qb.AddVertex(0);
    qb.AddVertex(1);
    qb.AddVertex(2);
    qb.AddEdge(0, 1);
    PreparedQuery pq{qb.Build(), CandidateSet(), {0, 1, 2}};
    pq.candidates = LDFFilter().Filter(pq.query, data).ValueOrDie();
    cases.push_back({"component-break-leaf", std::move(data), std::move(pq)});
  }
  {
    LabelConfig cfg;
    cfg.num_labels = 2;
    cfg.num_edge_labels = 2;
    cfg.directed = true;
    Graph data = GenerateErdosRenyi(80, 8.0, cfg, 65).ValueOrDie();
    PreparedQuery pq = PrepareQuery(data, 66, 3);
    cases.push_back({"directed-edge-labeled", std::move(data), std::move(pq)});
  }
  return cases;
}

// The last order position counts its accepted candidates in one scan and
// claims them with one TryClaimMatches call. Over serial and 1/2/4
// threads x store_embeddings x {mask membership, mask growth denied on
// fresh workspaces (binary search)} x limits at and around every boundary
// — including one landing inside a leaf's candidate set — a run emits
// exactly min(total, limit), reports hit_match_limit iff limit <= total,
// and serial #enum depends on neither the membership path nor
// store_embeddings. A capped serial run stores the first `limit`
// embeddings of the unlimited run (the grant is emitted in scan order);
// parallel runs store distinct valid embeddings, and untruncated parallel
// runs are bit-identical to serial.
TEST(ParallelEnumTest, LeafLoopExactAcrossModesLimitsAndThreads) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (uint32_t threads : {1u, 2u, 4u}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (const LeafCase& c : LeafCases()) {
    SCOPED_TRACE(c.name);
    const Graph& data = c.data;
    const PreparedQuery& pq = c.pq;
    EnumerateOptions unlimited;
    unlimited.match_limit = 0;
    unlimited.store_embeddings = true;
    const EnumerateResult full = RunSerial(data, pq, unlimited);
    const uint64_t total = full.num_matches;
    ASSERT_GT(total, 8u) << "workload too small to exercise limits";
    ASSERT_EQ(total, BruteForceMatch(pq.query, data).size());
    for (const auto& embedding : full.embeddings) {
      ASSERT_TRUE(IsLabeledEmbedding(pq.query, data, embedding));
    }
    const std::set<std::vector<VertexId>> valid(full.embeddings.begin(),
                                                full.embeddings.end());
    ASSERT_EQ(valid.size(), total);

    // A limit inside one leaf's candidate set: emissions limit-1 and limit
    // (0-based) differ only at the last order position.
    uint64_t mid = 0;
    const VertexId leaf = pq.order.back();
    for (uint64_t k = total / 2; k < total && mid == 0; ++k) {
      std::vector<VertexId> a = full.embeddings[k - 1];
      std::vector<VertexId> b = full.embeddings[k];
      a[leaf] = b[leaf] = kInvalidVertex;
      if (a == b) mid = k;
    }
    ASSERT_NE(mid, 0u) << "no leaf set with two embeddings past the middle";

    std::map<uint64_t, uint64_t> serial_enum;  // limit -> serial #enum
    for (bool denied : {false, true}) {
      for (bool store : {false, true}) {
        for (uint64_t limit :
             {uint64_t{0}, uint64_t{1}, uint64_t{2}, mid, total - 1, total,
              total + 1}) {
          SCOPED_TRACE("denied=" + std::to_string(denied) +
                       " store=" + std::to_string(store) +
                       " limit=" + std::to_string(limit));
          const uint64_t expected = limit == 0 ? total : std::min(total, limit);
          const bool hits = limit != 0 && limit <= total;
          EnumerateOptions opts;
          opts.match_limit = limit;
          opts.store_embeddings = store;

          ScopedGrowthDenied deny(denied);
          EnumeratorWorkspace serial_ws;
          const EnumerateResult serial =
              Enumerator()
                  .Run(pq.query, data, pq.candidates, pq.order, opts,
                       &serial_ws)
                  .ValueOrDie();
          EXPECT_EQ(serial_ws.stats().last_mask, !denied);
          EXPECT_EQ(serial.num_matches, expected);
          EXPECT_EQ(serial.hit_match_limit, hits);
          const auto [it, inserted] =
              serial_enum.emplace(limit, serial.num_enumerations);
          if (!inserted) {
            EXPECT_EQ(serial.num_enumerations, it->second);
          }
          if (store) {
            EXPECT_TRUE(std::equal(serial.embeddings.begin(),
                                   serial.embeddings.end(),
                                   full.embeddings.begin(),
                                   full.embeddings.begin() + expected));
            EXPECT_EQ(serial.embeddings.size(), expected);
          } else {
            EXPECT_TRUE(serial.embeddings.empty());
          }

          for (const std::unique_ptr<ThreadPool>& pool : pools) {
            const uint32_t threads = static_cast<uint32_t>(pool->size());
            SCOPED_TRACE("threads=" + std::to_string(threads));
            std::vector<EnumeratorWorkspace> workspaces(pool->size());
            EnumeratorWorkspace caller_ws;
            const EnumerateResult parallel =
                RunParallelWith(data, pq, opts, threads, pool.get(),
                                &workspaces, &caller_ws);
            if (denied) {
              for (const EnumeratorWorkspace& ws : workspaces) {
                EXPECT_EQ(ws.stats().mask_prepares, 0u);
              }
            }
            EXPECT_EQ(parallel.num_matches, expected);
            EXPECT_EQ(parallel.hit_match_limit, hits);
            EXPECT_FALSE(parallel.timed_out);
            if (store) {
              ASSERT_EQ(parallel.embeddings.size(), expected);
              const std::set<std::vector<VertexId>> distinct(
                  parallel.embeddings.begin(), parallel.embeddings.end());
              EXPECT_EQ(distinct.size(), expected);
              for (const auto& embedding : parallel.embeddings) {
                EXPECT_TRUE(valid.contains(embedding));
              }
            }
            if (!hits) ExpectBitIdentical(serial, parallel, threads);
          }
        }
      }
    }
  }
}

TEST(ParallelEnumTest, UnlimitedMeansZeroAndNeverReportsLimit) {
  Graph data = MakeData(5, 70, 5.0, 2, 0.0);
  PreparedQuery pq = PrepareQuery(data, 15, 4);
  EnumerateOptions opts;
  opts.match_limit = 0;  // documented "unlimited" semantics
  const EnumerateResult serial = RunSerial(data, pq, opts);
  EXPECT_FALSE(serial.hit_match_limit);
  EXPECT_GT(serial.num_matches, 0u);

  ThreadPool pool(2);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const EnumerateResult parallel =
      RunParallelWith(data, pq, opts, 2, &pool, &workspaces, &caller_ws);
  EXPECT_FALSE(parallel.hit_match_limit);
  EXPECT_EQ(parallel.num_matches, serial.num_matches);
}

TEST(ParallelEnumTest, ExpiredDeadlineTimesOutBeforeAnyWork) {
  Graph data = MakeData(2, 80, 6.0, 1, 0.0);
  PreparedQuery pq = PrepareQuery(data, 4, 6);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.parallel_threads = 2;
  ThreadPool pool(2);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  ParallelEnumResources resources;
  resources.pool = &pool;
  resources.worker_workspaces = &workspaces;

  const Deadline expired(1e-12);
  while (!expired.Expired()) {
  }
  Enumerator enumerator;
  const EnumerateResult result =
      enumerator
          .RunParallel(pq.query, data, pq.candidates, pq.order, opts,
                       resources, &expired)
          .ValueOrDie();
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.num_matches, 0u);
  EXPECT_EQ(result.num_enumerations, 0u);  // cut before the root call
}

TEST(ParallelEnumTest, MidRunDeadlineStopsAllChunks) {
  // Dense single-label graph: far too many matches to finish in 2 ms, so
  // the deadline must fire and every chunk must unwind.
  Graph data = MakeData(6, 400, 12.0, 1, 0.0);
  PreparedQuery pq = PrepareQuery(data, 8, 10);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.time_limit_seconds = 2e-3;
  ThreadPool pool(4);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const EnumerateResult result =
      RunParallelWith(data, pq, opts, 4, &pool, &workspaces, &caller_ws);
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.hit_match_limit);
}

// Regression for the steal-handoff polling bug: a stolen segment must
// re-arm the deadline quantum (and check expiry immediately) when it
// starts on its new worker — inheriting the previous segment's poll
// position could let a thief run a whole extra quantum past the deadline.
// Steal/split delay injection churns handoffs while a mid-run deadline
// fires; every schedule must still report the timeout promptly.
TEST(ParallelEnumTest, MidRunDeadlineExpiresPromptlyUnderForcedSteals) {
  Graph data = MakeData(6, 400, 12.0, 1, 0.0);
  PreparedQuery pq = PrepareQuery(data, 8, 10);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.time_limit_seconds = 2e-3;
  ASSERT_TRUE(failpoint::Activate("enumerate.steal", "delay:1").ok());
  ASSERT_TRUE(failpoint::Activate("enumerate.split", "delay:1").ok());
  for (int attempt = 0; attempt < 3; ++attempt) {
    ThreadPool pool(3);
    std::vector<EnumeratorWorkspace> workspaces(pool.size());
    EnumeratorWorkspace caller_ws;
    const EnumerateResult result =
        RunParallelWith(data, pq, opts, 3, &pool, &workspaces, &caller_ws);
    EXPECT_TRUE(result.timed_out) << "attempt " << attempt;
    EXPECT_FALSE(result.hit_match_limit);
  }
  failpoint::DeactivateAll();
}

// >255 runs through the same per-worker workspaces: the uint8 epoch wraps
// and the wrap-clear must keep parallel results identical run after run.
TEST(ParallelEnumTest, EpochWrapReusesPerWorkerWorkspaces) {
  Graph data = MakeData(12, 60, 4.0, 3, 0.5);
  std::vector<PreparedQuery> queries;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    queries.push_back(PrepareQuery(data, 40 + seed, 4));
  }
  EnumerateOptions opts;
  opts.match_limit = 0;

  ThreadPool pool(2);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  std::vector<uint64_t> first_counts;
  for (const PreparedQuery& pq : queries) {
    first_counts.push_back(
        RunParallelWith(data, pq, opts, 2, &pool, &workspaces, &caller_ws)
            .num_matches);
  }
  for (int run = 0; run < 300; ++run) {
    const PreparedQuery& pq = queries[run % queries.size()];
    const EnumerateResult result =
        RunParallelWith(data, pq, opts, 2, &pool, &workspaces, &caller_ws);
    ASSERT_EQ(result.num_matches, first_counts[run % queries.size()])
        << "run " << run;
  }
}

TEST(ParallelEnumTest, FallsBackToSerialWithoutPool) {
  Graph data = MakeData(9, 60, 4.0, 3, 0.0);
  PreparedQuery pq = PrepareQuery(data, 10, 4);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  opts.parallel_threads = 4;
  ParallelEnumResources no_pool;  // pool == nullptr → serial path
  Enumerator enumerator;
  const EnumerateResult fallback =
      enumerator
          .RunParallel(pq.query, data, pq.candidates, pq.order, opts, no_pool)
          .ValueOrDie();
  const EnumerateResult serial = RunSerial(data, pq, opts);
  EXPECT_EQ(fallback.embeddings, serial.embeddings);
  EXPECT_EQ(fallback.num_enumerations, serial.num_enumerations);
}

TEST(ParallelEnumTest, RejectsInvalidInputsLikeSerial) {
  Graph data = MakeData(14, 40, 4.0, 2, 0.0);
  PreparedQuery pq = PrepareQuery(data, 17, 4);
  EnumerateOptions opts;
  opts.parallel_threads = 2;
  ThreadPool pool(2);
  ParallelEnumResources resources;
  resources.pool = &pool;
  Enumerator enumerator;
  std::vector<VertexId> bad_order(pq.order);
  bad_order[0] = bad_order[1];  // not a permutation
  EXPECT_FALSE(enumerator
                   .RunParallel(pq.query, data, pq.candidates, bad_order,
                                opts, resources)
                   .ok());
}

}  // namespace
}  // namespace rlqvo
