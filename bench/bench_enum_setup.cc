// Enumeration setup cost: the seed enumerator's per-query O(nq·|V(G)|)
// bitmap (allocate + memset + fill) vs the reusable EnumeratorWorkspace's
// Prepare (clear the last query's mask words, set this query's bits),
// across data-graph scales.
//
// For each graph size the harness times
//   - "seed bitmap": a faithful re-implementation of the seed setup — a
//     fresh nq x |V(G)| char vector zeroed and filled per query; and
//   - "workspace": steady-state EnumeratorWorkspace::Prepare on one reused
//     workspace (the first call grows the buffers; the measured repetitions
//     reuse them).
// It also reports peak RSS (VmHWM) and proves steady-state allocations are
// gone: the workspace's buffers must not grow across the measured reps.
//
// Acceptance bar (ISSUE 2): >= 5x lower per-query setup time at data scale
// >= 1.0. Metrics land in BENCH_enum_setup.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "graph/query_sampler.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/ordering.h"

using namespace rlqvo;
using namespace rlqvo::bench;

namespace {

/// Keeps the optimizer from deleting the setup loops under test.
inline void KeepAlive(const void* p) {
  asm volatile("" : : "g"(p) : "memory");
}

/// Peak resident set size in MiB (VmHWM), or 0 where /proc is unavailable.
double PeakRssMiB() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
#else
  return 0.0;
#endif
}

/// The seed enumerator's per-query setup, verbatim: allocate + zero the
/// nq x |V(G)| bitmap, then set the candidate cells.
double TimeSeedSetup(const Graph& query, const Graph& data,
                     const CandidateSet& cs, int reps) {
  const size_t nq = query.num_vertices();
  const size_t nv = data.num_vertices();
  Stopwatch watch;
  for (int r = 0; r < reps; ++r) {
    std::vector<char> bitmap(nq * nv, 0);
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      for (VertexId v : cs.candidates(u)) {
        bitmap[static_cast<size_t>(u) * nv + v] = 1;
      }
    }
    KeepAlive(bitmap.data());
  }
  return watch.ElapsedSeconds() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  PrintBanner("Enumerator: per-query setup cost (seed bitmap vs workspace)",
              opts);

  const uint32_t query_size = 12;
  const std::vector<uint32_t> base_sizes = {32768, 131072, 524288};
  std::vector<std::pair<std::string, double>> metrics;
  double min_speedup = 1e300;

  std::printf("%10s %6s %14s %14s %9s %10s\n", "|V(G)|", "mode",
              "seed setup/q", "ws setup/q", "speedup", "mask MiB");
  for (uint32_t base : base_sizes) {
    const uint32_t n =
        std::max(4096u, static_cast<uint32_t>(base * opts.scale));
    // 128 mildly-skewed labels: graphs at this scale carry hundreds of
    // labels (eu2005, DBLP), which is exactly the regime where the seed's
    // |V(G)|-proportional setup drowns the Σ|C(u)|-proportional work.
    LabelConfig labels;
    labels.num_labels = 128;
    labels.zipf_exponent = 0.4;
    Graph data =
        MustOk(GenerateErdosRenyi(n, 8.0, labels, opts.seed), "generate");
    QuerySampler sampler(&data, opts.seed + 1);
    Graph query = MustOk(sampler.SampleQuery(query_size), "sample");
    CandidateSet cs = MustOk(LDFFilter().Filter(query, data), "filter");
    OrderingContext octx;
    octx.query = &query;
    octx.data = &data;
    octx.candidates = &cs;
    std::vector<VertexId> order =
        MustOk(RIOrdering().MakeOrder(octx), "order");

    // Calibrate repetitions so each side runs ~0.2 s.
    const double seed_once = TimeSeedSetup(query, data, cs, 1);
    const int reps = std::clamp(static_cast<int>(0.2 / seed_once), 3, 2000);

    const double seed_per_query = TimeSeedSetup(query, data, cs, reps);

    EnumeratorWorkspace ws;
    RLQVO_CHECK(ws.Prepare(query, data, cs, order).ok());  // warm-up growth
    const uint64_t grows_before = ws.stats().mask_grows;
    Stopwatch ws_watch;
    for (int r = 0; r < reps; ++r) {
      RLQVO_CHECK(ws.Prepare(query, data, cs, order).ok());
      KeepAlive(&ws.stats());
    }
    const double ws_per_query = ws_watch.ElapsedSeconds() / reps;
    // Steady state must be allocation-free: the warmed buffers never grow.
    if (ws.stats().mask_grows != grows_before) {
      std::fprintf(stderr, "FATAL: workspace grew during steady state\n");
      return 1;
    }

    // Sanity: the workspace-backed enumeration still runs on this input.
    EnumerateOptions eopts = opts.EnumOptions();
    eopts.match_limit = 1000;
    Enumerator enumerator;
    MustOk(enumerator.Run(query, data, cs, order, eopts, &ws), "run");

    const double speedup = seed_per_query / ws_per_query;
    min_speedup = std::min(min_speedup, speedup);
    const double mask_mib =
        static_cast<double>(ws.stats().mask_bytes) / (1024.0 * 1024.0);
    const double fill =
        static_cast<double>(cs.TotalSize()) /
        (static_cast<double>(query.num_vertices()) * n);
    std::printf("%10u %6s %12.1f us %12.1f us %8.1fx %10.2f  (fill %.2f%%)\n",
                n, ws.stats().last_mask ? "mask" : "bsearch",
                seed_per_query * 1e6, ws_per_query * 1e6, speedup, mask_mib,
                fill * 100.0);

    // Spelled as append rather than `"n" + std::to_string(n)`: the
    // `const char* + string&&` overload trips GCC 12's -Wrestrict false
    // positive (GCC PR105329) at -O3.
    std::string key = "n";
    key += std::to_string(n);
    metrics.emplace_back("seed_setup_us_" + key, seed_per_query * 1e6);
    metrics.emplace_back("ws_setup_us_" + key, ws_per_query * 1e6);
    metrics.emplace_back("setup_speedup_" + key, speedup);
    metrics.emplace_back("ws_mask_" + key, ws.stats().last_mask ? 1.0 : 0.0);
    metrics.emplace_back("ws_mask_mib_" + key, mask_mib);
    metrics.emplace_back("candidate_fill_" + key, fill);
  }

  metrics.emplace_back("min_setup_speedup", min_speedup);
  metrics.emplace_back("peak_rss_mib", PeakRssMiB());
  std::printf("min setup speedup: %.1fx %s   peak RSS: %.1f MiB\n",
              min_speedup,
              min_speedup >= 5.0 ? "(PASS >= 5x)" : "(below 5x bar)",
              PeakRssMiB());
  WriteBenchJson("enum_setup", opts, metrics);
  return 0;
}
