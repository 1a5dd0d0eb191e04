#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/ordering.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::EnumStatsFields;
using testing_util::IsIsomorphism;
using testing_util::RandomData;
using testing_util::RandomQuery;

EnumerateOptions Unlimited() {
  EnumerateOptions opts;
  opts.match_limit = 0;
  return opts;
}

TEST(EnumeratorTest, TriangleInTriangleDataHasSixAutomorphicMatches) {
  // Unlabeled triangle (all labels equal): 3! = 6 embeddings onto itself.
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph q = b.Build();
  CandidateSet cs = LDFFilter().Filter(q, q).ValueOrDie();
  Enumerator enumerator;
  auto result =
      enumerator.Run(q, q, cs, {0, 1, 2}, Unlimited()).ValueOrDie();
  EXPECT_EQ(result.num_matches, 6u);
  EXPECT_FALSE(result.timed_out);
  EXPECT_GT(result.num_enumerations, 6u);
}

TEST(EnumeratorTest, LabelsBreakSymmetry) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph q = b.Build();
  CandidateSet cs = LDFFilter().Filter(q, q).ValueOrDie();
  Enumerator enumerator;
  auto result =
      enumerator.Run(q, q, cs, {0, 1, 2}, Unlimited()).ValueOrDie();
  EXPECT_EQ(result.num_matches, 1u);
}

TEST(EnumeratorTest, SingleVertexQueryMatchesAllLabelMates) {
  GraphBuilder qb;
  qb.AddVertex(1);
  Graph q = qb.Build();
  GraphBuilder gb;
  gb.AddVertex(1);
  gb.AddVertex(1);
  gb.AddVertex(0);
  gb.AddEdge(0, 2);
  Graph g = gb.Build();
  CandidateSet cs = LDFFilter().Filter(q, g).ValueOrDie();
  Enumerator enumerator;
  auto result = enumerator.Run(q, g, cs, {0}, Unlimited()).ValueOrDie();
  EXPECT_EQ(result.num_matches, 2u);
}

TEST(EnumeratorTest, MatchLimitStopsEarly) {
  Graph data = RandomData(31, 100, 6.0, 1);  // single label: many matches
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddEdge(0, 1);
  Graph q = qb.Build();  // a single edge
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 10;
  Enumerator enumerator;
  auto result = enumerator.Run(q, data, cs, {0, 1}, opts).ValueOrDie();
  EXPECT_EQ(result.num_matches, 10u);
  EXPECT_TRUE(result.hit_match_limit);
}

TEST(EnumeratorTest, TimeLimitReported) {
  Graph data = RandomData(32, 400, 12.0, 1);
  QuerySampler sampler(&data, 1);
  Graph q = sampler.SampleQuery(10).ValueOrDie();
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.time_limit_seconds = 1e-4;
  Enumerator enumerator;
  auto result =
      enumerator.Run(q, data, cs, RIOrdering()
                                      .MakeOrder({.query = &q,
                                                  .data = &data,
                                                  .candidates = &cs,
                                                  .rng = nullptr})
                                      .ValueOrDie(),
                     opts)
          .ValueOrDie();
  // Either it finished very fast or it reports the timeout; on this dense
  // unlabeled graph the timeout is the expected outcome. Setup time counts
  // against the budget too, so a timed-out run may legitimately report zero
  // enumerations (the deadline fired before the first Extend).
  if (!result.timed_out) {
    EXPECT_FALSE(result.hit_match_limit);  // ran to completion
  }
  EXPECT_GE(result.enum_time_seconds, 0.0);
}

TEST(EnumeratorTest, StoredEmbeddingsAreIsomorphisms) {
  Graph data = RandomData(33);
  Graph q = RandomQuery(data, 34, 4);
  CandidateSet cs = GQLFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  Enumerator enumerator;
  OrderingContext octx;
  octx.query = &q;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(octx).ValueOrDie();
  auto result = enumerator.Run(q, data, cs, order, opts).ValueOrDie();
  ASSERT_EQ(result.embeddings.size(), result.num_matches);
  ASSERT_GT(result.num_matches, 0u);
  for (const auto& embedding : result.embeddings) {
    EXPECT_TRUE(IsIsomorphism(q, data, embedding));
  }
}

TEST(EnumeratorTest, RejectsInvalidOrder) {
  Graph data = RandomData(35);
  Graph q = RandomQuery(data, 36, 4);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  Enumerator enumerator;
  std::vector<VertexId> bad = {0, 0, 1, 2};
  EXPECT_FALSE(enumerator.Run(q, data, cs, bad, Unlimited()).ok());
  std::vector<VertexId> short_order = {0};
  EXPECT_FALSE(enumerator.Run(q, data, cs, short_order, Unlimited()).ok());
}

TEST(EnumeratorTest, RejectsMismatchedCandidates) {
  Graph data = RandomData(37);
  Graph q = RandomQuery(data, 38, 4);
  CandidateSet wrong(q.num_vertices() + 1);
  Enumerator enumerator;
  EXPECT_FALSE(
      enumerator.Run(q, data, wrong, {0, 1, 2, 3}, Unlimited()).ok());
}

TEST(EnumeratorTest, EmptyCandidateSetShortCircuits) {
  GraphBuilder qb;
  qb.AddVertex(9);  // label absent from data
  qb.AddVertex(9);
  qb.AddEdge(0, 1);
  Graph q = qb.Build();
  Graph data = RandomData(39, 50, 3.0, 2);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  ASSERT_TRUE(cs.AnyEmpty());
  Enumerator enumerator;
  auto result = enumerator.Run(q, data, cs, {0, 1}, Unlimited()).ValueOrDie();
  EXPECT_EQ(result.num_matches, 0u);
  EXPECT_EQ(result.num_enumerations, 0u);
}

TEST(BruteForceTest, RespectsLimit) {
  Graph data = RandomData(40, 50, 5.0, 1);
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddEdge(0, 1);
  Graph q = qb.Build();
  auto matches = BruteForceMatch(q, data, 5);
  EXPECT_EQ(matches.size(), 5u);
}

/// Property sweep: the engine agrees with brute force on match counts, and
/// the count is identical across every ordering method and filter — the
/// core correctness invariant of the three-phase framework.
class EnumeratorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumeratorPropertyTest, AgreesWithBruteForceForAllOrdersAndFilters) {
  const uint64_t seed = GetParam();
  Graph data = RandomData(seed, 50, 4.0, 3);
  Graph query = RandomQuery(data, seed * 13 + 5, 3 + seed % 3);

  const uint64_t expected = BruteForceMatch(query, data).size();
  ASSERT_GT(expected, 0u);

  Enumerator enumerator;
  for (const char* filter_name : {"LDF", "NLF", "GQL", "DAG-DP"}) {
    CandidateSet cs = MakeFilter(filter_name)
                          .ValueOrDie()
                          ->Filter(query, data)
                          .ValueOrDie();
    for (const char* order_name : {"RI", "QSI", "VF2PP", "GQL", "VEQ", "CFL"}) {
      OrderingContext ctx;
      ctx.query = &query;
      ctx.data = &data;
      ctx.candidates = &cs;
      auto order = MakeOrdering(order_name).ValueOrDie()->MakeOrder(ctx);
      ASSERT_TRUE(order.ok()) << order_name;
      auto result =
          enumerator.Run(query, data, cs, *order, Unlimited()).ValueOrDie();
      EXPECT_EQ(result.num_matches, expected)
          << "filter=" << filter_name << " order=" << order_name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumeratorPropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

/// The intersection core's work counters: no backward neighbors means no
/// intersections; a cycle query must intersect at its closing vertex.
TEST(EnumeratorTest, IntersectionCountersTrackBackwardStructure) {
  // Path query 0-1-2 in order {0,1,2}: every vertex has <= 1 backward
  // neighbor, so local candidates come straight from slices.
  GraphBuilder pb;
  for (int i = 0; i < 3; ++i) pb.AddVertex(0);
  pb.AddEdge(0, 1);
  pb.AddEdge(1, 2);
  Graph path = pb.Build();
  Graph data = RandomData(50, 60, 5.0, 1);
  CandidateSet cs = LDFFilter().Filter(path, data).ValueOrDie();
  Enumerator enumerator;
  auto result = enumerator.Run(path, data, cs, {0, 1, 2}, Unlimited())
                    .ValueOrDie();
  EXPECT_EQ(result.num_intersections, 0u);
  EXPECT_GT(result.local_candidate_sets, 0u);

  // Triangle query: the third vertex has two mapped backward neighbors.
  GraphBuilder tb;
  for (int i = 0; i < 3; ++i) tb.AddVertex(0);
  tb.AddEdge(0, 1);
  tb.AddEdge(1, 2);
  tb.AddEdge(2, 0);
  Graph triangle = tb.Build();
  CandidateSet tcs = LDFFilter().Filter(triangle, data).ValueOrDie();
  auto tresult = enumerator.Run(triangle, data, tcs, {0, 1, 2}, Unlimited())
                     .ValueOrDie();
  if (tresult.num_matches > 0 || tresult.num_enumerations > 2) {
    EXPECT_GT(tresult.num_intersections, 0u);
    EXPECT_GT(tresult.num_probe_comparisons, 0u);
  }
  EXPECT_GE(tresult.local_candidates_total, tresult.num_matches);
}

/// Heavily skewed label distributions exercise the gallop path (tiny rare-
/// label slices intersected against hub-label slices); results must still be
/// exactly the brute-force embedding set.
TEST(EnumeratorTest, SkewedLabelEquivalence) {
  for (uint64_t seed = 60; seed < 66; ++seed) {
    LabelConfig cfg;
    cfg.num_labels = 8;
    cfg.zipf_exponent = 1.8;
    Graph data = GenerateErdosRenyi(70, 5.0, cfg, seed).ValueOrDie();
    QuerySampler sampler(&data, seed + 1);
    auto query_or = sampler.SampleQuery(4);
    if (!query_or.ok()) continue;
    Graph q = std::move(query_or).ValueOrDie();
    auto expected_list = BruteForceMatch(q, data);
    std::set<std::vector<VertexId>> expected(expected_list.begin(),
                                             expected_list.end());
    CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
    OrderingContext octx;
    octx.query = &q;
    octx.data = &data;
    octx.candidates = &cs;
    auto order = RIOrdering().MakeOrder(octx).ValueOrDie();
    EnumerateOptions opts;
    opts.match_limit = 0;
    opts.store_embeddings = true;
    Enumerator enumerator;
    auto result = enumerator.Run(q, data, cs, order, opts).ValueOrDie();
    std::set<std::vector<VertexId>> actual(result.embeddings.begin(),
                                           result.embeddings.end());
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

/// The embeddings found are exactly the brute-force set (not just the same
/// count) when stored.
TEST(EnumeratorTest, EmbeddingSetsMatchBruteForceExactly) {
  Graph data = RandomData(41, 40, 4.0, 2);
  Graph q = RandomQuery(data, 42, 3);
  auto expected = BruteForceMatch(q, data);
  std::set<std::vector<VertexId>> expected_set(expected.begin(),
                                               expected.end());

  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  OrderingContext octx;
  octx.query = &q;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = GQLOrdering().MakeOrder(octx).ValueOrDie();
  Enumerator enumerator;
  auto result = enumerator.Run(q, data, cs, order, opts).ValueOrDie();
  std::set<std::vector<VertexId>> actual_set(result.embeddings.begin(),
                                             result.embeddings.end());
  EXPECT_EQ(actual_set, expected_set);
}

// --- EnumStats ---

constexpr size_t VisitedFieldCount() {
  size_t count = 0;
  EnumStats{}.ForEachField([&](std::string_view, uint64_t, bool) { ++count; });
  return count;
}

// A counter added to EnumStats but not to ForEachField would silently drop
// out of every bench JSON and whole-struct test comparison.
static_assert(sizeof(EnumStats) == VisitedFieldCount() * sizeof(uint64_t),
              "every EnumStats field must be visited by ForEachField");

TEST(EnumStatsTest, VisitorWalksEveryFieldOnceInDeclarationOrder) {
  // Aggregate initialization assigns 1..13 in declaration order, so the
  // visitor must read back exactly that sequence, with distinct names.
  const EnumStats stats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  std::vector<uint64_t> values;
  std::set<std::string> names;
  std::vector<bool> deterministic;
  stats.ForEachField([&](std::string_view name, uint64_t value, bool det) {
    values.push_back(value);
    names.emplace(name);
    deterministic.push_back(det);
  });
  EXPECT_EQ(values, (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13}));
  EXPECT_EQ(names.size(), values.size());
  // The eight search-work counters are covered by the bit-identity
  // contract; the five schedule fields are not.
  EXPECT_EQ(deterministic,
            (std::vector<bool>{true, true, true, true, true, true, true, true,
                               false, false, false, false, false}));
}

TEST(EnumStatsTest, MergeSumsCountersAndTakesMaxima) {
  EnumStats a{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const EnumStats b{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 7,
                    20, 30};
  a.Merge(b);
  const EnumStats expected{101, 202, 303, 404, 505, 606, 707, 808, 909, 1010,
                           /*max_segment_depth=*/11, /*min_worker_work=*/12,
                           /*max_worker_work=*/30};
  EXPECT_EQ(EnumStatsFields(a), EnumStatsFields(expected));

  // A default-constructed EnumStats is the identity of Merge.
  EnumStats fold;
  fold.Merge(b);
  EXPECT_EQ(EnumStatsFields(fold), EnumStatsFields(b));
}

TEST(EnumStatsTest, MinWorkerWorkIsMinOverRunsThatDidWork) {
  auto run = [](uint64_t min_work, uint64_t max_work) {
    EnumStats s;
    s.min_worker_work = min_work;
    s.max_worker_work = max_work;
    return s;
  };
  EnumStats fold;
  fold.Merge(run(0, 0));  // no work yet: must not pin the minimum at 0
  fold.Merge(run(5, 9));
  EXPECT_EQ(fold.min_worker_work, 5u);
  EXPECT_EQ(fold.max_worker_work, 9u);
  fold.Merge(run(0, 0));  // a zero-work run later is ignored too
  EXPECT_EQ(fold.min_worker_work, 5u);
  fold.Merge(run(3, 4));
  EXPECT_EQ(fold.min_worker_work, 3u);
  EXPECT_EQ(fold.max_worker_work, 9u);
  fold.Merge(run(7, 12));
  EXPECT_EQ(fold.min_worker_work, 3u);
  EXPECT_EQ(fold.max_worker_work, 12u);
  // A run that did work but left one worker idle reports a real 0.
  fold.Merge(run(0, 6));
  EXPECT_EQ(fold.min_worker_work, 0u);
  EXPECT_EQ(fold.max_worker_work, 12u);
}

}  // namespace
}  // namespace rlqvo
