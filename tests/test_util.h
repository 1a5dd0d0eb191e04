#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/query_sampler.h"
#include "matching/enum_stats.h"

namespace rlqvo {
namespace testing_util {

/// Small labeled random data graph for property tests.
inline Graph RandomData(uint64_t seed, uint32_t n = 60, double avg_degree = 4.0,
                        uint32_t labels = 3) {
  LabelConfig cfg;
  cfg.num_labels = labels;
  cfg.zipf_exponent = 0.5;
  return GenerateErdosRenyi(n, avg_degree, cfg, seed).ValueOrDie();
}

/// Connected query sampled from `data` (guaranteed at least one match).
inline Graph RandomQuery(const Graph& data, uint64_t seed, uint32_t size = 4) {
  QuerySampler sampler(&data, seed);
  return sampler.SampleQuery(size).ValueOrDie();
}

/// True iff `mapping` (query vertex -> data vertex) is a genuine subgraph
/// isomorphism (Definition II.1): injective, label preserving, edge
/// preserving.
inline bool IsIsomorphism(const Graph& query, const Graph& data,
                          const std::vector<VertexId>& mapping) {
  if (mapping.size() != query.num_vertices()) return false;
  std::vector<bool> used(data.num_vertices(), false);
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    const VertexId v = mapping[u];
    if (v >= data.num_vertices() || used[v]) return false;
    used[v] = true;
    if (query.label(u) != data.label(v)) return false;
  }
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    for (VertexId w : query.neighbors(u)) {
      if (u < w && !data.HasEdge(mapping[u], mapping[w])) return false;
    }
  }
  return true;
}

/// Every EnumStats counter by name, so a test compares whole structs in one
/// EXPECT_EQ and a failure prints the fields that differ.
inline std::map<std::string, uint64_t> EnumStatsFields(const EnumStats& stats) {
  std::map<std::string, uint64_t> fields;
  stats.ForEachField([&](std::string_view name, uint64_t value, bool) {
    fields.emplace(name, value);
  });
  return fields;
}

/// The counters the bit-identity contract covers: EnumStatsFields without
/// the schedule fields.
inline std::map<std::string, uint64_t> DeterministicFields(
    const EnumStats& stats) {
  std::map<std::string, uint64_t> fields;
  stats.ForEachField(
      [&](std::string_view name, uint64_t value, bool deterministic) {
        if (deterministic) fields.emplace(name, value);
      });
  return fields;
}

/// The deterministic counters every intersection kernel agrees on: the
/// comparison charge and the SIMD/bitmap dispatch counts are each kernel's
/// own, so they are dropped.
inline std::map<std::string, uint64_t> KernelInvariantFields(
    const EnumStats& stats) {
  std::map<std::string, uint64_t> fields = DeterministicFields(stats);
  for (const char* kernel_specific :
       {"num_probe_comparisons", "num_simd_intersections",
        "num_bitmap_intersections"}) {
    fields.erase(kernel_specific);
  }
  return fields;
}

/// While alive (and `active`), every CandidateMask growth is denied through
/// the `workspace.grow` failpoint, so a fresh EnumeratorWorkspace, or a
/// fresh thread's filter mask, answers membership by binary search.
class ScopedGrowthDenied {
 public:
  explicit ScopedGrowthDenied(bool active = true) : active_(active) {
    if (active_) {
      RLQVO_CHECK(failpoint::Activate("workspace.grow", "error").ok());
    }
  }
  ~ScopedGrowthDenied() {
    if (active_) failpoint::Deactivate("workspace.grow");
  }
  ScopedGrowthDenied(const ScopedGrowthDenied&) = delete;
  ScopedGrowthDenied& operator=(const ScopedGrowthDenied&) = delete;

 private:
  bool active_;
};

}  // namespace testing_util
}  // namespace rlqvo
