// Intra-query parallel enumeration (Enumerator::RunParallel) vs the serial
// path, on heavy single queries — the workload ISSUE 4 targeted (one big
// query that used to pin a single core while the pool idled) now served by
// the work-stealing segment scheduler instead of static root chunks.
//
// Two heavy-query configurations:
//   dense:    Erdos-Renyi, few labels, d=16 — bushy search trees with many
//             root candidates (plenty of stealable breadth at the root).
//   powerlaw: Chung-Lu hubs with zipf labels — skewed root subtree sizes,
//             the hub-rooted load-imbalance case static chunking serialized
//             and lazy deep splitting + stealing now spreads across cores.
//
// match_limit is 0 (full enumeration) so serial and parallel traverse the
// identical search tree: match counts must agree exactly (checked fatally)
// and the speedup is a clean same-work ratio. Thread counts {1, 2, 4} are
// measured against the serial baseline; the multi-core acceptance bars
// (>= 2x absolute at 4 threads; >= 1.5x over PR 4's static chunking on the
// power-law config) are only observable on >= 4 hardware cores — the JSON
// records hardware_concurrency plus the scheduler's steal/split/depth and
// per-worker work-spread counters so results are interpretable per
// machine, and the 1-thread column doubles as the parallel-machinery
// overhead check (<= 3% vs serial; serial must stay unregressed: compare
// serial_us against previous runs).
//
// The power-law case also runs a *capped* leg (rows "powerlaw-capped",
// metrics capped_*): match_limit = a quarter of the heaviest query's
// count, the paper's per-query-cap setting (Sec IV-A). There nearly every
// recursive call is an emission, so the leg times EnumBudget's claim path
// — the unlimited leg above bypasses it entirely. Every capped run, serial
// and parallel at each thread count, must emit exactly
// min(full count, cap) matches (checked fatally).
//
// --smoke shrinks everything for CI: a seconds-long run that still
// verifies serial/parallel agreement (full and capped) without writing
// JSON, and — when the CI machine has > 1 core — fatally asserts that steals
// actually fire on the power-law config (a scheduler that never steals is
// static root chunking with overhead).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/query_sampler.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/ordering.h"

using namespace rlqvo;
using namespace rlqvo::bench;

namespace {

inline void KeepAlive(const void* p) {
  asm volatile("" : : "g"(p) : "memory");
}

struct WorkloadCase {
  std::string name;
  bool power_law;
  uint32_t num_labels;
  double zipf;
  double avg_degree;
  uint32_t query_size;
};

struct PreparedQuery {
  Graph query;
  CandidateSet candidates;
  std::vector<VertexId> order;
};

/// One timed configuration (a match_limit) over a case's query set: the
/// serial baseline and each thread count's parallel time.
struct LegResult {
  double serial_us = 0.0;
  std::vector<std::pair<uint32_t, double>> parallel_us;  // (threads, us)
  /// (threads, EnumStats::Merge fold over every parallel run at that
  /// thread count, warm-up included).
  std::vector<std::pair<uint32_t, EnumStats>> sched;
};

struct CaseResult {
  LegResult full;  // match_limit = 0
  /// Capped leg (power-law only; match_cap == 0 when not run): a
  /// match_limit that fires, so every emission goes through the budget's
  /// claim leases.
  uint64_t match_cap = 0;
  LegResult capped;
  EnumStats accumulated;  // serial Merge fold over the query set
};

/// Times serial Run and RunParallel at {1, 2, 4} threads under
/// `match_limit`. Every run's match count must equal `expected[i]` — the
/// full count, or min(full count, cap) for a capped leg — or the bench
/// exits fatally: serial and parallel must agree whatever the thread count.
LegResult TimeLeg(const WorkloadCase& c, const Graph& data,
                  const std::vector<PreparedQuery>& queries,
                  uint64_t match_limit, const std::vector<uint64_t>& expected) {
  EnumerateOptions eopts;
  eopts.match_limit = match_limit;
  const char* leg = match_limit == 0 ? "full" : "capped";
  auto check = [&](const char* path, uint32_t threads, size_t i,
                   uint64_t got) {
    if (got == expected[i]) return;
    std::fprintf(stderr,
                 "FATAL: %s count mismatch (%s %s, %u threads, query %zu: "
                 "%llu vs expected %llu)\n",
                 path, c.name.c_str(), leg, threads, i,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(expected[i]));
    std::exit(1);
  };

  Enumerator enumerator;
  EnumeratorWorkspace serial_ws;
  LegResult out;
  auto run_serial = [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      const PreparedQuery& pq = queries[i];
      auto r = MustOk(enumerator.Run(pq.query, data, pq.candidates, pq.order,
                                     eopts, &serial_ws),
                      "serial enumerate");
      check("serial", 0, i, r.num_matches);
      KeepAlive(&r);
    }
  };
  run_serial();  // warm-up
  Stopwatch calib;
  run_serial();
  const double once = std::max(1e-6, calib.ElapsedSeconds());
  const int reps = std::clamp(static_cast<int>(0.5 / once), 1, 200);

  Stopwatch sw;
  for (int r = 0; r < reps; ++r) run_serial();
  out.serial_us = sw.ElapsedSeconds() / (reps * queries.size()) * 1e6;

  for (uint32_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<EnumeratorWorkspace> workspaces(pool.size());
    EnumeratorWorkspace caller_ws;
    EnumerateOptions popts = eopts;
    popts.parallel_threads = threads;
    ParallelEnumResources resources;
    resources.pool = &pool;
    resources.worker_workspaces = &workspaces;
    resources.caller_workspace = &caller_ws;

    EnumStats sched;
    auto run_parallel = [&] {
      for (size_t i = 0; i < queries.size(); ++i) {
        const PreparedQuery& pq = queries[i];
        auto r = MustOk(
            enumerator.RunParallel(pq.query, data, pq.candidates, pq.order,
                                   popts, resources),
            "parallel enumerate");
        sched.Merge(r);
        check("parallel", threads, i, r.num_matches);
      }
    };
    run_parallel();  // warm-up: grows per-worker workspaces + checks counts
    Stopwatch pw;
    for (int r = 0; r < reps; ++r) run_parallel();
    out.parallel_us.emplace_back(
        threads, pw.ElapsedSeconds() / (reps * queries.size()) * 1e6);
    out.sched.emplace_back(threads, sched);
  }
  return out;
}

CaseResult RunCase(const WorkloadCase& c, const BenchOptions& opts) {
  const bool smoke = opts.smoke;
  // Full enumeration cost grows explosively with graph size; the base is
  // sized so a scale-1.0 case stays near ~0.1-1 s of serial work per query
  // on one core (heavy enough for chunking to matter, bounded enough to
  // calibrate).
  const uint32_t base = smoke ? 600 : 1400;
  const uint32_t n =
      std::max(256u, static_cast<uint32_t>(base * opts.scale));
  LabelConfig labels;
  labels.num_labels = c.num_labels;
  labels.zipf_exponent = c.zipf;
  Graph data =
      c.power_law
          ? MustOk(GeneratePowerLaw(n, c.avg_degree, 2.2, labels, opts.seed),
                   "generate")
          : MustOk(GenerateErdosRenyi(n, c.avg_degree, labels, opts.seed),
                   "generate");

  const uint32_t num_queries = smoke ? 2 : 3;
  QuerySampler sampler(&data, opts.seed + 5);
  std::vector<PreparedQuery> queries;
  for (uint32_t i = 0; i < num_queries; ++i) {
    PreparedQuery pq{MustOk(sampler.SampleQuery(c.query_size), "sample"),
                     CandidateSet(), {}};
    pq.candidates = MustOk(LDFFilter().Filter(pq.query, data), "filter");
    OrderingContext octx;
    octx.query = &pq.query;
    octx.data = &data;
    octx.candidates = &pq.candidates;
    pq.order = MustOk(RIOrdering().MakeOrder(octx), "order");
    queries.push_back(std::move(pq));
  }

  // One serial full enumeration per query records the expected counts and
  // the work counters. In the full leg serial and parallel do the exact
  // same work, so the timing ratio is a true speedup and match counts must
  // agree exactly.
  EnumerateOptions full;
  full.match_limit = 0;
  Enumerator enumerator;
  EnumeratorWorkspace serial_ws;
  CaseResult out;
  std::vector<uint64_t> expected(num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    const PreparedQuery& pq = queries[i];
    auto r = MustOk(enumerator.Run(pq.query, data, pq.candidates, pq.order,
                                   full, &serial_ws),
                    "serial enumerate");
    expected[i] = r.num_matches;
    out.accumulated.Merge(r);
  }
  out.full = TimeLeg(c, data, queries, 0, expected);

  if (c.power_law) {
    // The paper's evaluation setting: a per-query cap (Sec IV-A). A quarter
    // of the heaviest query's count fires on that query at least, so the
    // leg times the budget's claim path at its busiest (nearly every call
    // an emission) rather than the unlimited bypass.
    const uint64_t heaviest = *std::max_element(expected.begin(),
                                                expected.end());
    out.match_cap = std::max<uint64_t>(1, heaviest / 4);
    std::vector<uint64_t> capped_expected(num_queries);
    for (uint32_t i = 0; i < num_queries; ++i) {
      capped_expected[i] = std::min(expected[i], out.match_cap);
    }
    out.capped = TimeLeg(c, data, queries, out.match_cap, capped_expected);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  const bool smoke = opts.smoke;
  if (smoke) opts.scale = std::min(opts.scale, 1.0);
  PrintBanner("Intra-query parallel enumeration vs serial", opts);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# hardware_concurrency=%u (speedup is capped by cores)\n", hw);

  const std::vector<WorkloadCase> cases = {
      {"dense", false, 4, 0.0, 16.0, static_cast<uint32_t>(smoke ? 6 : 7)},
      {"powerlaw", true, 16, 1.2, 16.0,
       static_cast<uint32_t>(smoke ? 6 : 7)},
  };

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("hardware_concurrency", static_cast<double>(hw));
  double heavy_speedup_4t = 0.0;
  uint64_t powerlaw_multithread_steals = 0;
  std::printf("\n-- enumeration time per query (us) --\n");
  std::printf("%16s %12s %10s %10s %10s %9s %9s %9s\n", "case", "serial",
              "1t", "2t", "4t", "sp(1t)", "sp(2t)", "sp(4t)");
  // One table row per timed leg; `prefix` namespaces the capped leg's
  // metrics (e.g. capped_speedup_4t_powerlaw). Returns the 4t speedup.
  auto report_leg = [&](const std::string& row, const std::string& prefix,
                        const std::string& name, const LegResult& leg) {
    metrics.emplace_back(prefix + "serial_us_" + name, leg.serial_us);
    double us[3] = {0, 0, 0};
    for (size_t i = 0; i < leg.parallel_us.size(); ++i) {
      const auto& [threads, t_us] = leg.parallel_us[i];
      us[i] = t_us;
      metrics.emplace_back(
          prefix + "par" + std::to_string(threads) + "t_us_" + name, t_us);
      metrics.emplace_back(
          prefix + "speedup_" + std::to_string(threads) + "t_" + name,
          t_us > 0 ? leg.serial_us / t_us : 0.0);
    }
    std::printf("%16s %12.1f %10.1f %10.1f %10.1f %8.2fx %8.2fx %8.2fx\n",
                row.c_str(), leg.serial_us, us[0], us[1], us[2],
                leg.serial_us / us[0], leg.serial_us / us[1],
                leg.serial_us / us[2]);
    return leg.serial_us / us[2];
  };
  std::vector<std::pair<std::string, CaseResult>> results;
  for (const WorkloadCase& c : cases) {
    CaseResult r = RunCase(c, opts);
    const double speedup_4t = report_leg(c.name, "", c.name, r.full);
    if (r.match_cap != 0) {
      metrics.emplace_back("match_cap_" + c.name,
                           static_cast<double>(r.match_cap));
      report_leg(c.name + "-capped", "capped_", c.name, r.capped);
    }
    // Per-thread-count scheduler diagnostics (summed over all timed runs).
    const EnumStats* widest = nullptr;
    for (const auto& [threads, s] : r.full.sched) {
      const std::string t = std::to_string(threads) + "t_" + c.name;
      metrics.emplace_back("steals_" + t, static_cast<double>(s.num_steals));
      metrics.emplace_back("splits_" + t, static_cast<double>(s.num_splits));
      metrics.emplace_back("segment_depth_" + t,
                           static_cast<double>(s.max_segment_depth));
      if (c.power_law && threads >= 2) {
        powerlaw_multithread_steals += s.num_steals;
      }
      widest = &s;
    }
    // Serial work counters plus the widest thread count's schedule (its
    // own work counters sum every timed rep, so they are not emitted).
    EnumStats emitted = r.accumulated;
    if (widest != nullptr) {
      emitted.num_steals = widest->num_steals;
      emitted.num_splits = widest->num_splits;
      emitted.max_segment_depth = widest->max_segment_depth;
      emitted.min_worker_work = widest->min_worker_work;
      emitted.max_worker_work = widest->max_worker_work;
    }
    AppendEnumWorkMetrics(&metrics, c.name, emitted);
    if (c.name == "powerlaw") heavy_speedup_4t = speedup_4t;
    results.emplace_back(c.name, std::move(r));
  }

  std::printf("\n-- scheduler counters (summed over timed runs) --\n");
  std::printf("%10s %7s %12s %12s %10s\n", "case", "threads", "steals",
              "splits", "max_depth");
  for (const auto& [name, r] : results) {
    for (const auto& [threads, s] : r.full.sched) {
      std::printf("%10s %7u %12llu %12llu %10llu\n", name.c_str(), threads,
                  static_cast<unsigned long long>(s.num_steals),
                  static_cast<unsigned long long>(s.num_splits),
                  static_cast<unsigned long long>(s.max_segment_depth));
    }
  }

  metrics.emplace_back("heavy_speedup_4t", heavy_speedup_4t);
  std::printf(
      "\nheavy-query (powerlaw) 4-thread speedup: %.2fx %s\n",
      heavy_speedup_4t,
      heavy_speedup_4t >= 2.0
          ? "(PASS >= 2x)"
          : (hw < 4 ? "(below 2x bar — machine has < 4 cores)"
                    : "(below 2x bar)"));
  // CI tripwire: on a multi-core machine the skewed power-law case must
  // exercise the stealing path — zero steals across every multi-thread run
  // means the scheduler degenerated into static seeding (PR 4 behavior with
  // extra overhead) and the smoke run is no longer testing the new code.
  if (smoke && hw > 1 && powerlaw_multithread_steals == 0) {
    std::fprintf(stderr,
                 "FATAL: no steals fired on the powerlaw config across any "
                 "multi-thread run (hardware_concurrency=%u); the "
                 "work-stealing scheduler is not exercising its steal path\n",
                 hw);
    std::exit(1);
  }
  WriteBenchJson("parallel_enum", opts, metrics);
  return 0;
}
