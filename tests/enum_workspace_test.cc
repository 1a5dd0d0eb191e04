#include "matching/enum_workspace.h"

#include <gtest/gtest.h>

#include <vector>

#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/matcher.h"
#include "matching/ordering.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::IsIsomorphism;
using testing_util::RandomData;
using testing_util::RandomQuery;
using testing_util::ScopedGrowthDenied;

EnumerateOptions Unlimited() {
  EnumerateOptions opts;
  opts.match_limit = 0;
  return opts;
}

std::vector<VertexId> IdentityOrder(const Graph& q) {
  std::vector<VertexId> order(q.num_vertices());
  for (VertexId u = 0; u < q.num_vertices(); ++u) order[u] = u;
  return order;
}

/// Randomized equivalence: a reused mask workspace and a fresh workspace
/// whose mask growth is denied (binary-search membership) both equal
/// BruteForceMatch — the reference the seed bitmap path was validated
/// against.
class WorkspaceEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkspaceEquivalenceTest, MaskAndFallbackAgreeWithBruteForce) {
  const uint64_t seed = GetParam();
  Graph data = RandomData(seed, 50, 4.0, 3);
  Graph query = RandomQuery(data, seed * 17 + 3, 3 + seed % 3);
  const uint64_t expected = BruteForceMatch(query, data).size();
  ASSERT_GT(expected, 0u);

  CandidateSet cs = GQLFilter().Filter(query, data).ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(octx).ValueOrDie();

  Enumerator enumerator;
  EnumeratorWorkspace ws;  // reused: the second run must see no stale bits
  for (int run = 0; run < 2; ++run) {
    auto result =
        enumerator.Run(query, data, cs, order, Unlimited(), &ws).ValueOrDie();
    EXPECT_EQ(result.num_matches, expected) << "run=" << run;
    EXPECT_FALSE(result.timed_out);
  }
  EXPECT_EQ(ws.stats().prepares, 2u);
  EXPECT_EQ(ws.stats().mask_prepares, 2u);

  EnumeratorWorkspace denied;
  {
    ScopedGrowthDenied deny;
    auto result = enumerator.Run(query, data, cs, order, Unlimited(), &denied)
                      .ValueOrDie();
    EXPECT_EQ(result.num_matches, expected);
    EXPECT_FALSE(result.timed_out);
  }
  EXPECT_EQ(denied.stats().mask_prepares, 0u);
  EXPECT_EQ(denied.stats().sparse_fallbacks, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkspaceEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 16));

TEST(EnumWorkspaceTest, DisconnectedQueryMatchesBruteForce) {
  // Two components: a labeled triangle and a disjoint edge. Any permutation
  // is a legal order now; the component break falls back to iterating C(u).
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  qb.AddEdge(2, 0);
  qb.AddVertex(1);
  qb.AddVertex(0);
  qb.AddEdge(3, 4);
  Graph query = qb.Build();

  Graph data = RandomData(91, 60, 5.0, 2);
  const uint64_t expected = BruteForceMatch(query, data).size();

  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  Enumerator enumerator;
  for (bool denied : {false, true}) {
    ScopedGrowthDenied deny(denied);
    EnumeratorWorkspace ws;
    auto result =
        enumerator.Run(query, data, cs, IdentityOrder(query), Unlimited(), &ws)
            .ValueOrDie();
    EXPECT_EQ(result.num_matches, expected) << "denied=" << denied;
    EXPECT_EQ(ws.stats().last_mask, !denied);
  }
}

TEST(EnumWorkspaceTest, DisconnectedOrderOnConnectedQueryStillExact) {
  // A path 0-1-2 enumerated in the non-connected order {0, 2, 1}: position 1
  // has no mapped backward neighbor, exercising the fallback mid-order.
  GraphBuilder qb;
  for (int i = 0; i < 3; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  Graph query = qb.Build();
  Graph data = RandomData(92, 40, 4.0, 1);
  const uint64_t expected = BruteForceMatch(query, data).size();

  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  auto result =
      enumerator.Run(query, data, cs, {0, 2, 1}, Unlimited(), &ws)
          .ValueOrDie();
  EXPECT_EQ(result.num_matches, expected);
}

TEST(EnumWorkspaceTest, ReuseAcrossQueriesAndGraphsLeavesNoStaleState) {
  // One workspace serves alternating (query, data) pairs of different sizes
  // for many rounds; every run must match a fresh-workspace run. This is
  // the cross-query leak test: stale membership bits, visited marks or
  // backward lists would skew counts.
  Enumerator enumerator;
  EnumeratorWorkspace reused;

  struct Case {
    Graph data;
    Graph query;
    CandidateSet cs;
    std::vector<VertexId> order;
    uint64_t expected = 0;
  };
  std::vector<Case> cases;
  for (uint64_t seed : {101u, 202u, 303u}) {
    Case c;
    c.data = RandomData(seed, 30 + 15 * (seed % 3), 4.0, 2 + seed % 2);
    c.query = RandomQuery(c.data, seed + 7, 3 + seed % 2);
    c.cs = LDFFilter().Filter(c.query, c.data).ValueOrDie();
    OrderingContext octx;
    octx.query = &c.query;
    octx.data = &c.data;
    octx.candidates = &c.cs;
    c.order = RIOrdering().MakeOrder(octx).ValueOrDie();
    EnumeratorWorkspace fresh;
    c.expected = enumerator
                     .Run(c.query, c.data, c.cs, c.order, Unlimited(), &fresh)
                     .ValueOrDie()
                     .num_matches;
    cases.push_back(std::move(c));
  }

  // 300 rounds crosses the uint8 epoch wrap (every 255 prepares), proving
  // the wrap-around clear keeps reuse exact.
  for (int round = 0; round < 300; ++round) {
    const Case& c = cases[round % cases.size()];
    auto result =
        enumerator.Run(c.query, c.data, c.cs, c.order, Unlimited(), &reused)
            .ValueOrDie();
    ASSERT_EQ(result.num_matches, c.expected) << "round " << round;
  }
  EXPECT_EQ(reused.stats().prepares, 300u);
  EXPECT_GE(reused.stats().epoch_resets, 1u);
  // Steady state: the mask grew to the high-water mark and stopped.
  EXPECT_LE(reused.stats().mask_grows, cases.size());
}

TEST(EnumWorkspaceTest, MatchLimitPathWithReusedWorkspace) {
  Graph data = RandomData(111, 100, 6.0, 1);  // single label: many matches
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddEdge(0, 1);
  Graph query = qb.Build();
  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();

  EnumerateOptions opts;
  opts.match_limit = 10;
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  for (int i = 0; i < 3; ++i) {
    auto result =
        enumerator.Run(query, data, cs, {0, 1}, opts, &ws).ValueOrDie();
    EXPECT_EQ(result.num_matches, 10u);
    EXPECT_TRUE(result.hit_match_limit);
  }
}

TEST(EnumWorkspaceTest, ExpiredExternalDeadlineCountsSetupAgainstBudget) {
  Graph data = RandomData(121, 80, 5.0, 2);
  Graph query = RandomQuery(data, 122, 5);
  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(octx).ValueOrDie();

  // A deadline that is already (effectively) expired when Run starts: the
  // post-setup check must report the timeout before any recursion happens.
  const Deadline expired(1e-12);
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  auto result =
      enumerator.Run(query, data, cs, order, Unlimited(), &ws, &expired)
          .ValueOrDie();
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.num_matches, 0u);
  EXPECT_EQ(result.num_enumerations, 0u);
}

TEST(EnumWorkspaceTest, MaskUsedOnLargeSparseGraph) {
  // 70k vertices with 200 uniform labels: every candidate row fills ~0.5%
  // of the graph. Membership is still answered from the bitmask — one
  // word per data vertex for this 4-vertex query — with the same counts as
  // binary search.
  LabelConfig labels;
  labels.num_labels = 200;
  labels.zipf_exponent = 0.0;  // uniform
  Graph data = GenerateErdosRenyi(70000, 4.0, labels, 131).ValueOrDie();
  Graph query = RandomQuery(data, 132, 4);
  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(octx).ValueOrDie();

  Enumerator enumerator;
  EnumeratorWorkspace mask_ws;
  auto masked =
      enumerator.Run(query, data, cs, order, {}, &mask_ws).ValueOrDie();
  EXPECT_TRUE(mask_ws.stats().last_mask);
  EXPECT_EQ(mask_ws.stats().mask_bytes,
            data.num_vertices() * sizeof(uint64_t));

  EnumeratorWorkspace search_ws;
  ScopedGrowthDenied deny;
  auto searched =
      enumerator.Run(query, data, cs, order, {}, &search_ws).ValueOrDie();
  EXPECT_FALSE(search_ws.stats().last_mask);
  EXPECT_EQ(search_ws.stats().mask_bytes, 0u);  // never allocated
  EXPECT_GT(masked.num_matches, 0u);
  EXPECT_EQ(masked.num_matches, searched.num_matches);
  EXPECT_EQ(masked.num_enumerations, searched.num_enumerations);
}

/// Data for the multi-word mask cases: a 140-cycle with labels i % 5 plus
/// chords i -> i + 6 (label + 1) at every tenth vertex, so label-ascending
/// paths branch now and then.
Graph ChordedCycle() {
  constexpr uint32_t kN = 140;
  GraphBuilder b;
  for (uint32_t i = 0; i < kN; ++i) b.AddVertex(i % 5);
  for (uint32_t i = 0; i < kN; ++i) {
    b.AddEdge(i, (i + 1) % kN);
    if (i % 10 == 0) b.AddEdge(i, (i + 6) % kN);
  }
  return b.Build();
}

/// A path query of `n` vertices labeled i % 5 with LDF candidates, minus
/// every data vertex divisible by `stride` from C(u) for u >= `pruned_from`.
/// Those candidates are label- and degree-compatible, so only the
/// membership test rejects them — through the mask's second word when
/// pruned_from >= 64.
struct PathCase {
  Graph query;
  CandidateSet cs;
  std::vector<VertexId> order;
};
PathCase PrunedPath(const Graph& data, uint32_t n, uint32_t pruned_from,
                    uint32_t stride) {
  GraphBuilder b;
  for (uint32_t i = 0; i < n; ++i) b.AddVertex(i % 5);
  for (uint32_t i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  PathCase c{b.Build(), CandidateSet(), {}};
  c.cs = LDFFilter().Filter(c.query, data).ValueOrDie();
  for (VertexId u = pruned_from; u < n; ++u) {
    std::vector<VertexId> kept;
    for (VertexId v : c.cs.candidates(u)) {
      if (v % stride != 0) kept.push_back(v);
    }
    c.cs.Set(u, std::move(kept));
  }
  c.order = IdentityOrder(c.query);
  return c;
}

EnumerateResult RunStored(const PathCase& c, const Graph& data,
                          EnumeratorWorkspace* ws) {
  EnumerateOptions opts = Unlimited();
  opts.store_embeddings = true;
  return Enumerator().Run(c.query, data, c.cs, c.order, opts, ws)
      .ValueOrDie();
}

TEST(EnumWorkspaceTest, TwoWordMaskAgreesWithBinarySearch) {
  const Graph data = ChordedCycle();
  const PathCase pruned = PrunedPath(data, 70, 64, 7);
  const PathCase full = PrunedPath(data, 70, 70, 7);

  EnumeratorWorkspace search_ws;
  EnumerateResult expected;
  {
    ScopedGrowthDenied deny;
    expected = RunStored(pruned, data, &search_ws);
    // The pruning of query vertices 64..69 must bite: fewer matches than
    // the unpruned path, but some.
    EXPECT_GT(expected.num_matches, 0u);
    EXPECT_LT(expected.num_matches,
              RunStored(full, data, &search_ws).num_matches);
  }
  EXPECT_EQ(search_ws.stats().mask_prepares, 0u);

  EnumeratorWorkspace ws;
  const EnumerateResult got = RunStored(pruned, data, &ws);
  EXPECT_TRUE(ws.stats().last_mask);
  EXPECT_EQ(ws.stats().mask_bytes,
            2 * data.num_vertices() * sizeof(uint64_t));
  EXPECT_EQ(got.num_matches, expected.num_matches);
  EXPECT_EQ(got.num_enumerations, expected.num_enumerations);
  EXPECT_EQ(got.embeddings, expected.embeddings);
  for (const std::vector<VertexId>& embedding : expected.embeddings) {
    EXPECT_TRUE(IsIsomorphism(pruned.query, data, embedding));
    for (VertexId u = 64; u < 70; ++u) EXPECT_NE(embedding[u] % 7, 0u);
  }
}

TEST(EnumWorkspaceTest, MaskWidthChangesLeaveNoStaleBits) {
  // 70 -> 4 -> 70 query vertices on one workspace: the mask stride goes
  // 2 -> 1 -> 2 words per data vertex. A bit left over from the previous
  // layout would read as a member of a pruned candidate set in the next
  // one and change the counts.
  const Graph data = ChordedCycle();
  const PathCase wide = PrunedPath(data, 70, 64, 7);
  const PathCase narrow = PrunedPath(data, 4, 3, 2);
  EnumeratorWorkspace reused;
  for (const PathCase* c : {&wide, &narrow, &wide, &narrow}) {
    EnumeratorWorkspace fresh;
    EnumerateResult expected;
    {
      ScopedGrowthDenied deny;
      expected = RunStored(*c, data, &fresh);
    }
    EXPECT_FALSE(fresh.stats().last_mask);
    const EnumerateResult got = RunStored(*c, data, &reused);
    EXPECT_TRUE(reused.stats().last_mask);
    EXPECT_EQ(got.num_matches, expected.num_matches)
        << "nq=" << c->query.num_vertices();
    EXPECT_EQ(got.num_enumerations, expected.num_enumerations);
    EXPECT_EQ(got.embeddings, expected.embeddings);
  }
}

TEST(EnumWorkspaceTest, StoredEmbeddingsAreIsomorphismsAcrossReuse) {
  Graph data = RandomData(141, 50, 4.0, 2);
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Graph query = RandomQuery(data, 400 + seed, 4);
    CandidateSet cs = GQLFilter().Filter(query, data).ValueOrDie();
    OrderingContext octx;
    octx.query = &query;
    octx.data = &data;
    octx.candidates = &cs;
    auto order = GQLOrdering().MakeOrder(octx).ValueOrDie();
    EnumerateOptions opts;
    opts.match_limit = 0;
    opts.store_embeddings = true;
    auto result =
        enumerator.Run(query, data, cs, order, opts, &ws).ValueOrDie();
    ASSERT_EQ(result.embeddings.size(), result.num_matches);
    for (const auto& embedding : result.embeddings) {
      EXPECT_TRUE(IsIsomorphism(query, data, embedding));
    }
  }
}

TEST(EnumWorkspaceTest, OutOfRangeCandidatesRejectedOnBothPaths) {
  Graph data = RandomData(151);
  Graph query = RandomQuery(data, 152, 4);
  CandidateSet cs(query.num_vertices());
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    cs.Set(u, {data.num_vertices() + 1});
  }
  Enumerator enumerator;
  for (bool denied : {false, true}) {
    ScopedGrowthDenied deny(denied);
    EnumeratorWorkspace ws;
    auto result =
        enumerator.Run(query, data, cs, IdentityOrder(query), {}, &ws);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument());
  }
}

/// The matcher-level workspace: repeated Match calls on one SubgraphMatcher
/// reuse its workspace and stay identical to a fresh matcher's results.
TEST(EnumWorkspaceTest, SubgraphMatcherReusesWorkspaceAcrossMatches) {
  Graph data = RandomData(161, 60, 4.0, 3);
  auto matcher = MakeMatcherByName("Hybrid").ValueOrDie();
  for (uint64_t seed : {11u, 12u, 13u, 11u}) {  // repeat 11 to re-hit state
    Graph query = RandomQuery(data, seed, 4);
    const MatchRunStats reused = matcher->Match(query, data).ValueOrDie();
    auto fresh_matcher = MakeMatcherByName("Hybrid").ValueOrDie();
    const MatchRunStats fresh = fresh_matcher->Match(query, data).ValueOrDie();
    EXPECT_EQ(reused.num_matches, fresh.num_matches);
    EXPECT_EQ(reused.num_enumerations, fresh.num_enumerations);
    EXPECT_EQ(reused.order, fresh.order);
  }
}

}  // namespace
}  // namespace rlqvo
