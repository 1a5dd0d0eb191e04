#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;
using testing_util::ScopedGrowthDenied;

/// Triangle query A-B-C.
Graph TriangleQuery() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  return b.Build();
}

/// Data graph: one triangle {0,1,2} with labels 0,1,2 plus a label-0 vertex
/// 3 attached only to vertex 1, and an isolated label-0 vertex 4.
Graph TriangleData() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(1, 3);
  return b.Build();
}

TEST(LdfFilterTest, FiltersByLabelAndDegree) {
  Graph q = TriangleQuery();
  Graph g = TriangleData();
  CandidateSet cs = LDFFilter().Filter(q, g).ValueOrDie();
  // Query vertex 0 (label 0, degree 2): data vertices with label 0 and
  // degree >= 2 — only vertex 0 (v3 has degree 1, v4 degree 0).
  EXPECT_EQ(cs.candidates(0), (std::vector<VertexId>{0}));
  EXPECT_EQ(cs.candidates(1), (std::vector<VertexId>{1}));
  EXPECT_EQ(cs.candidates(2), (std::vector<VertexId>{2}));
}

TEST(NlfFilterTest, TighterThanLdf) {
  // Query: label-0 vertex with two label-1 neighbors.
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddEdge(0, 1);
  qb.AddEdge(0, 2);
  Graph q = qb.Build();
  // Data: v0 label 0 with neighbors labels {1, 1}; v3 label 0 with
  // neighbors labels {1, 2} — LDF keeps both, NLF drops v3.
  GraphBuilder gb;
  gb.AddVertex(0);  // v0
  gb.AddVertex(1);  // v1
  gb.AddVertex(1);  // v2
  gb.AddVertex(0);  // v3
  gb.AddVertex(1);  // v4
  gb.AddVertex(2);  // v5
  gb.AddEdge(0, 1);
  gb.AddEdge(0, 2);
  gb.AddEdge(3, 4);
  gb.AddEdge(3, 5);
  Graph g = gb.Build();

  CandidateSet ldf = LDFFilter().Filter(q, g).ValueOrDie();
  CandidateSet nlf = NLFFilter().Filter(q, g).ValueOrDie();
  EXPECT_EQ(ldf.candidates(0), (std::vector<VertexId>{0, 3}));
  EXPECT_EQ(nlf.candidates(0), (std::vector<VertexId>{0}));
}

TEST(GqlFilterTest, GlobalRefinementPrunes) {
  // Query: star with center label 0 and two leaves label 1.
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddEdge(0, 1);
  qb.AddEdge(0, 2);
  Graph q = qb.Build();
  // Data vertex v0: label 0 with ONE label-1 neighbor shared by both query
  // leaves -> no semi-perfect matching; v3: label 0 with two distinct
  // label-1 neighbors -> survives.
  GraphBuilder gb;
  gb.AddVertex(0);  // v0
  gb.AddVertex(1);  // v1 (v0's only label-1 neighbor)
  gb.AddVertex(2);  // v2 filler neighbor so degree passes
  gb.AddVertex(0);  // v3
  gb.AddVertex(1);  // v4
  gb.AddVertex(1);  // v5
  gb.AddEdge(0, 1);
  gb.AddEdge(0, 2);
  gb.AddEdge(3, 4);
  gb.AddEdge(3, 5);
  Graph g = gb.Build();

  CandidateSet gql = GQLFilter().Filter(q, g).ValueOrDie();
  EXPECT_EQ(gql.candidates(0), (std::vector<VertexId>{3}));
}

TEST(FiltersTest, EmptyInputsRejected) {
  Graph empty;
  Graph g = TriangleData();
  EXPECT_FALSE(LDFFilter().Filter(empty, g).ok());
  EXPECT_FALSE(NLFFilter().Filter(g, empty).ok());
  EXPECT_FALSE(GQLFilter().Filter(empty, empty).ok());
  EXPECT_FALSE(DagDpFilter().Filter(empty, g).ok());
}

TEST(FiltersTest, FactoryByName) {
  for (const char* name : {"LDF", "NLF", "GQL", "DAG-DP"}) {
    auto f = MakeFilter(name);
    ASSERT_TRUE(f.ok()) << name;
    EXPECT_EQ((*f)->name(), name);
  }
  EXPECT_FALSE(MakeFilter("bogus").ok());
}

TEST(FiltersTest, NamesAreStable) {
  EXPECT_EQ(LDFFilter().name(), "LDF");
  EXPECT_EQ(NLFFilter().name(), "NLF");
  EXPECT_EQ(GQLFilter().name(), "GQL");
  EXPECT_EQ(DagDpFilter().name(), "DAG-DP");
}

/// Property sweep: every filter is complete (Definition II.2) — no data
/// vertex participating in a brute-force match is ever pruned — and the
/// stronger filters are subsets of the weaker ones.
class FilterPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterPropertyTest, CompletenessAndContainment) {
  const uint64_t seed = GetParam();
  Graph data = RandomData(seed);
  Graph query = RandomQuery(data, seed * 31 + 1, 3 + seed % 3);

  auto matches = BruteForceMatch(query, data);
  ASSERT_FALSE(matches.empty()) << "sampled query must have a match";

  CandidateSet ldf = LDFFilter().Filter(query, data).ValueOrDie();
  CandidateSet nlf = NLFFilter().Filter(query, data).ValueOrDie();
  CandidateSet gql = GQLFilter().Filter(query, data).ValueOrDie();
  CandidateSet dag = DagDpFilter().Filter(query, data).ValueOrDie();

  for (const auto& match : matches) {
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      EXPECT_TRUE(ldf.Contains(u, match[u])) << "LDF pruned a true match";
      EXPECT_TRUE(nlf.Contains(u, match[u])) << "NLF pruned a true match";
      EXPECT_TRUE(gql.Contains(u, match[u])) << "GQL pruned a true match";
      EXPECT_TRUE(dag.Contains(u, match[u])) << "DAG-DP pruned a true match";
    }
  }
  // Pruning-power ordering: GQL ⊆ NLF ⊆ LDF and DAG-DP ⊆ NLF.
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    for (VertexId v : nlf.candidates(u)) {
      EXPECT_TRUE(ldf.Contains(u, v));
    }
    for (VertexId v : gql.candidates(u)) {
      EXPECT_TRUE(nlf.Contains(u, v));
    }
    for (VertexId v : dag.candidates(u)) {
      EXPECT_TRUE(nlf.Contains(u, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(FiltersTest, CandidateSetBasics) {
  CandidateSet cs(2);
  cs.Set(0, {5, 3, 3, 1});
  EXPECT_EQ(cs.candidates(0), (std::vector<VertexId>{1, 3, 5}));
  EXPECT_TRUE(cs.Contains(0, 3));
  EXPECT_FALSE(cs.Contains(0, 2));
  EXPECT_TRUE(cs.AnyEmpty());
  cs.Set(1, {0});
  EXPECT_FALSE(cs.AnyEmpty());
  EXPECT_EQ(cs.TotalSize(), 4u);
  EXPECT_NE(cs.ToString().find("C(0)=3"), std::string::npos);
}

/// The candidate sets of the two filters whose refinement tests membership
/// through the thread-local CandidateMask.
struct Refined {
  CandidateSet gql;
  CandidateSet dag;
};

Refined Refine(const Graph& query, const Graph& data) {
  return {GQLFilter().Filter(query, data).ValueOrDie(),
          DagDpFilter().Filter(query, data).ValueOrDie()};
}

/// Refine on a new thread, whose thread-local mask starts unallocated: its
/// first Reset has to grow the mask.
Refined RefineOnFreshThread(const Graph& query, const Graph& data) {
  Refined out;
  std::thread([&] { out = Refine(query, data); }).join();
  return out;
}

void ExpectSameSets(const Refined& got, const Refined& want) {
  ASSERT_EQ(got.gql.num_query_vertices(), want.gql.num_query_vertices());
  ASSERT_EQ(got.dag.num_query_vertices(), want.dag.num_query_vertices());
  for (VertexId u = 0; u < want.gql.num_query_vertices(); ++u) {
    EXPECT_EQ(got.gql.candidates(u), want.gql.candidates(u)) << "GQL u=" << u;
    EXPECT_EQ(got.dag.candidates(u), want.dag.candidates(u))
        << "DAG-DP u=" << u;
  }
}

struct MaskCase {
  const char* name;
  Graph data;
  Graph query;
};

/// 400 data vertices, so even a one-word mask (3200 bytes) exceeds a
/// 1 KiB budget: a small undirected query, a 70-vertex query whose second
/// mask word holds C(64..69), and a directed edge-labeled pair.
std::vector<MaskCase> MaskCases() {
  std::vector<MaskCase> cases;
  {
    Graph data = RandomData(1701, 400, 6.0, 3);
    Graph query = RandomQuery(data, 1702, 6);
    cases.push_back({"undirected", std::move(data), std::move(query)});
  }
  {
    Graph data = RandomData(1703, 400, 6.0, 3);
    Graph query = RandomQuery(data, 1704, 70);
    cases.push_back({"70-vertex query", std::move(data), std::move(query)});
  }
  {
    LabelConfig cfg;
    cfg.num_labels = 2;
    cfg.num_edge_labels = 2;
    cfg.directed = true;
    Graph data = GenerateErdosRenyi(400, 8.0, cfg, 1705).ValueOrDie();
    Graph query = RandomQuery(data, 1706, 5);
    cases.push_back(
        {"directed-edge-labeled", std::move(data), std::move(query)});
  }
  return cases;
}

class FilterMaskTest : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::DeactivateAll();
    MemoryBudget::Global().set_limit_bytes(0);
  }
};

// GQL's single Reset plus DAG-DP's two Resets per sweep.
constexpr uint64_t kResetsPerRefine = 1 + 2 * 3;

// Denied mask growth — through the failpoint or an exhausted budget —
// leaves the refinement filters on binary search over the live candidate
// sets, with the same output as the mask.
TEST_F(FilterMaskTest, GrowthDeniedGivesSameCandidateSets) {
  for (const MaskCase& c : MaskCases()) {
    SCOPED_TRACE(c.name);
    const Refined masked = RefineOnFreshThread(c.query, c.data);
    // The refinement must prune, or membership decided nothing.
    const CandidateSet nlf = NLFFilter().Filter(c.query, c.data).ValueOrDie();
    EXPECT_LT(masked.gql.TotalSize(), nlf.TotalSize());
    EXPECT_LT(masked.dag.TotalSize(), nlf.TotalSize());
    {
      const uint64_t fires = failpoint::FireCount("workspace.grow");
      ScopedGrowthDenied deny;
      ExpectSameSets(RefineOnFreshThread(c.query, c.data), masked);
      EXPECT_EQ(failpoint::FireCount("workspace.grow") - fires,
                kResetsPerRefine);
    }
    {
      const uint64_t denials = MemoryBudget::Global().denials();
      MemoryBudget::Global().set_limit_bytes(1024);
      ExpectSameSets(RefineOnFreshThread(c.query, c.data), masked);
      MemoryBudget::Global().set_limit_bytes(0);
      EXPECT_EQ(MemoryBudget::Global().denials() - denials, kResetsPerRefine);
    }
  }
}

// 70 -> 4 -> 70 -> 4 query vertices on one thread: the mask stride goes
// 2 -> 1 -> 2 -> 1 words per data vertex. A bit left over from the previous
// layout would read as a member of a pruned candidate set and change what
// the refinement keeps. The filter-side twin of the workspace's
// MaskWidthChangesLeaveNoStaleBits.
TEST_F(FilterMaskTest, QuerySizeChangesLeaveNoStaleBits) {
  const Graph data = RandomData(1703, 400, 6.0, 3);
  const Graph wide = RandomQuery(data, 1704, 70);
  const Graph narrow = RandomQuery(data, 1707, 4);
  const std::vector<const Graph*> sequence = {&wide, &narrow, &wide, &narrow};
  std::vector<Refined> reused;
  std::thread([&] {
    for (const Graph* q : sequence) reused.push_back(Refine(*q, data));
  }).join();
  for (size_t i = 0; i < sequence.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    ExpectSameSets(reused[i], RefineOnFreshThread(*sequence[i], data));
  }
}

}  // namespace
}  // namespace rlqvo
