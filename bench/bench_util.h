#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "matching/enum_stats.h"

namespace rlqvo {
namespace bench {

/// \brief Shared knobs for the figure/table harnesses.
///
/// Defaults are "laptop-sized": reduced dataset scale, few queries, short
/// training — enough to reproduce the paper's *shapes* in seconds per
/// binary. Pass --full for paper-scale parameters (full emulated datasets,
/// 1e5-match cap, 100-epoch training, 500 s limit); expect hours.
struct BenchOptions {
  double scale = 0.2;            ///< dataset scale multiplier
  uint32_t queries_per_set = 10; ///< before the 50/50 train/eval split
  int train_epochs = 6;          ///< PPO epochs for RL-QVO
  int incr_epochs = 2;           ///< incremental-training epochs
  uint64_t match_limit = 10000;  ///< per-query cap (paper: 1e5)
  double time_limit = 5.0;       ///< per-query limit in seconds (paper: 500)
  double train_budget = 120.0;   ///< wall-clock cap per training run
  uint64_t seed = 7;
  bool full = false;
  /// --smoke: the seconds-long CI configuration of the benches that have
  /// one. A smoke run writes no BENCH_<name>.json, so it can never
  /// overwrite a committed snapshot with smoke-sized numbers.
  bool smoke = false;
  bool json = true;              ///< write a BENCH_<name>.json results file

  static BenchOptions FromArgs(int argc, char** argv) {
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&](const char* prefix) -> const char* {
        return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix)
                                         : nullptr;
      };
      if (arg == "--full") {
        opts.full = true;
        opts.scale = 1.0;
        opts.queries_per_set = 100;
        opts.train_epochs = 100;
        opts.incr_epochs = 10;
        opts.match_limit = 100000;
        opts.time_limit = 500.0;
        opts.train_budget = 0.0;  // unlimited
      } else if (const char* v = value("--scale=")) {
        opts.scale = std::atof(v);
      } else if (const char* v = value("--queries=")) {
        opts.queries_per_set = static_cast<uint32_t>(std::atoi(v));
      } else if (const char* v = value("--epochs=")) {
        opts.train_epochs = std::atoi(v);
      } else if (const char* v = value("--match-limit=")) {
        opts.match_limit = std::strtoull(v, nullptr, 10);
      } else if (const char* v = value("--time-limit=")) {
        opts.time_limit = std::atof(v);
      } else if (const char* v = value("--seed=")) {
        opts.seed = std::strtoull(v, nullptr, 10);
      } else if (arg == "--smoke") {
        opts.smoke = true;
        opts.json = false;
      } else if (arg == "--no-json") {
        opts.json = false;
      }
    }
    return opts;
  }

  EnumerateOptions EnumOptions() const {
    EnumerateOptions eo;
    eo.match_limit = match_limit;
    eo.time_limit_seconds = time_limit;
    return eo;
  }
};

inline void PrintBanner(const char* title, const BenchOptions& opts) {
  std::printf("==== %s ====\n", title);
  std::printf(
      "# scale=%.2f queries/set=%u epochs=%d match_limit=%llu "
      "time_limit=%.1fs%s\n",
      opts.scale, opts.queries_per_set, opts.train_epochs,
      static_cast<unsigned long long>(opts.match_limit), opts.time_limit,
      opts.full ? " (FULL)" : "");
  if (opts.smoke) std::printf("# --smoke: reduced sizes for CI, no JSON\n");
}

/// Builds a workload restricted to the given sizes (empty = dataset default).
inline Result<Workload> BuildBenchWorkload(const std::string& dataset,
                                           const BenchOptions& opts,
                                           std::vector<uint32_t> sizes = {}) {
  WorkloadConfig config;
  config.scale = opts.scale;
  config.queries_per_set = opts.queries_per_set;
  config.query_sizes = std::move(sizes);
  config.seed = opts.seed;
  return BuildWorkload(dataset, config);
}

/// Trains an RL-QVO model on one query-size training set with bench limits.
inline Result<RLQVOModel> TrainForBench(const Workload& workload,
                                        uint32_t query_size,
                                        const BenchOptions& opts,
                                        const PolicyConfig& policy = {},
                                        const FeatureConfig& features = {},
                                        const RewardConfig* reward = nullptr) {
  auto it = workload.train_queries.find(query_size);
  if (it == workload.train_queries.end() || it->second.empty()) {
    return Status::InvalidArgument("no training queries of size " +
                                   std::to_string(query_size));
  }
  RLQVOModel model(policy, features);
  TrainConfig config;
  config.epochs = opts.train_epochs;
  config.max_train_seconds = opts.train_budget;
  config.train_match_limit = std::min<uint64_t>(opts.match_limit, 10000);
  config.seed = opts.seed + 1;
  if (reward != nullptr) config.reward = *reward;
  RLQVO_ASSIGN_OR_RETURN(TrainStats stats,
                         model.Train(it->second, workload.data, config));
  (void)stats;
  return model;
}

/// "1.23e-02"-style fixed-width scientific value for table cells.
inline std::string Sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%9.3e", v);
  return buf;
}

inline std::string Fixed(double v, int precision = 3) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Aborts the bench with a message when a Result fails (benches are tools;
/// hard failure beats silent half-tables).
template <typename T>
T MustOk(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

/// \brief Appends every EnumStats counter of a run, batch or fold to a
/// bench's metrics as `<prefix>_<field>`, the field's name without its
/// `num_` prefix (`_matches`, `_intersections`, `_steals`,
/// `_min_worker_work`, ...), plus the derived `<prefix>_avg_local_candidates`
/// (local_candidates_total / local_candidate_sets). Keeping these in every
/// BENCH_*.json lets the perf trajectory track work done, not just wall
/// time.
inline void AppendEnumWorkMetrics(
    std::vector<std::pair<std::string, double>>* metrics,
    const std::string& prefix, const EnumStats& stats) {
  stats.ForEachField([&](std::string_view name, uint64_t value, bool) {
    if (name.starts_with("num_")) name.remove_prefix(4);
    metrics->emplace_back(prefix + "_" + std::string(name),
                          static_cast<double>(value));
  });
  metrics->emplace_back(
      prefix + "_avg_local_candidates",
      stats.local_candidate_sets == 0
          ? 0.0
          : static_cast<double>(stats.local_candidates_total) /
                static_cast<double>(stats.local_candidate_sets));
}

/// \brief Appends the serving-side ordering metrics of a batch under
/// `<prefix>_...` keys: summed phase-2 seconds and the order-cache hit/miss
/// split (hits + misses == cache-consulting lookups; both zero when the
/// cache was bypassed or disabled).
inline void AppendOrderingMetrics(
    std::vector<std::pair<std::string, double>>* metrics,
    const std::string& prefix, double order_seconds, uint64_t order_cache_hits,
    uint64_t order_cache_misses) {
  metrics->emplace_back(prefix + "_order_seconds", order_seconds);
  metrics->emplace_back(prefix + "_order_cache_hits",
                        static_cast<double>(order_cache_hits));
  metrics->emplace_back(prefix + "_order_cache_misses",
                        static_cast<double>(order_cache_misses));
}

/// \brief Writes the machine-readable results file `BENCH_<name>.json`
/// (schema documented in docs/BENCHMARKS.md):
///
///   {"bench": <name>, "schema_version": 1,
///    "options": {"scale": ..., "queries_per_set": ..., "seed": ...,
///                "match_limit": ..., "time_limit": ..., "full": ...},
///    "metrics": {<key>: <double>, ...}}
///
/// The file lands in the current directory (usually build/) and, when the
/// build defined RLQVO_REPO_ROOT, a copy lands at the repository root so
/// committed bench trajectories track results without a manual copy step
/// (the double write when CWD *is* the root is harmless — same bytes).
/// A no-op when opts.json is false (--no-json or --smoke).
inline void WriteBenchJsonTo(
    const std::string& path, const std::string& name, const BenchOptions& opts,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARN: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema_version\": 1,\n",
               name.c_str());
  std::fprintf(f,
               "  \"options\": {\"scale\": %g, \"queries_per_set\": %u, "
               "\"seed\": %llu, \"match_limit\": %llu, \"time_limit\": %g, "
               "\"full\": %s},\n",
               opts.scale, opts.queries_per_set,
               static_cast<unsigned long long>(opts.seed),
               static_cast<unsigned long long>(opts.match_limit),
               opts.time_limit, opts.full ? "true" : "false");
  std::fprintf(f, "  \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.6g", i == 0 ? "" : ", ",
                 metrics[i].first.c_str(), metrics[i].second);
  }
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

inline void WriteBenchJson(
    const std::string& name, const BenchOptions& opts,
    const std::vector<std::pair<std::string, double>>& metrics) {
  if (!opts.json) return;
  const std::string file = "BENCH_" + name + ".json";
  WriteBenchJsonTo(file, name, opts, metrics);
#ifdef RLQVO_REPO_ROOT
  WriteBenchJsonTo(std::string(RLQVO_REPO_ROOT) + "/" + file, name, opts,
                   metrics);
#endif
}

}  // namespace bench
}  // namespace rlqvo
