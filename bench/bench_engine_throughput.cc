// Engine throughput: multi-query workloads served sequentially (one
// SubgraphMatcher, one thread) vs through QueryEngine::MatchBatch with a
// growing worker count, with and without the candidate cache.
//
// Expected shape: near-linear scaling while workers < cores, and a further
// drop in batch latency on repeated workloads once the cache is warm.
// Acceptance bar (ISSUE 1): >= 1.5x over sequential with >= 4 threads.
#include <algorithm>
#include <set>
#include <thread>

#include "bench_util.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "graph/query_sampler.h"

using namespace rlqvo;
using namespace rlqvo::bench;

namespace {

/// A workload with every query duplicated `repeats` times, shuffled
/// round-robin so repeats are spread across the batch (cache-friendly but
/// not adjacent).
std::vector<Graph> RepeatQueries(const std::vector<Graph>& base, int repeats) {
  std::vector<Graph> out;
  out.reserve(base.size() * repeats);
  for (int r = 0; r < repeats; ++r) {
    for (const Graph& q : base) out.push_back(q);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  PrintBanner("Engine: batch-serving throughput (queries/s)", opts);

  const std::string dataset = "yeast";
  Workload workload =
      MustOk(BuildBenchWorkload(dataset, opts), dataset.c_str());
  const uint32_t size = workload.spec.default_query_size;
  std::vector<Graph> base = workload.eval_queries.at(size);
  for (const auto& q : workload.train_queries.at(size)) base.push_back(q);
  const std::vector<Graph> queries = RepeatQueries(base, 8);
  std::printf("# dataset=%s |V(q)|=%u batch=%zu (%zu distinct)\n",
              dataset.c_str(), size, queries.size(), base.size());

  EnumerateOptions enum_options = opts.EnumOptions();
  auto data_ptr = std::make_shared<const Graph>(workload.data);

  // Sequential baseline: one matcher, one thread, no cache.
  auto matcher = MustOk(MakeMatcherByName("Hybrid", enum_options), "matcher");
  Stopwatch seq_watch;
  uint64_t seq_matches = 0;
  uint32_t seq_unsolved = 0;
  for (const Graph& q : queries) {
    const MatchRunStats stats = MustOk(matcher->Match(q, workload.data), "seq");
    seq_matches += stats.num_matches;
    if (!stats.solved) ++seq_unsolved;
  }
  const double seq_seconds = seq_watch.ElapsedSeconds();
  const double seq_qps = queries.size() / seq_seconds;
  std::printf("%-28s %8.2f s %10.1f q/s\n", "sequential (1 thread)",
              seq_seconds, seq_qps);

  const uint32_t cores = std::max(2u, std::thread::hardware_concurrency());
  std::vector<std::pair<std::string, double>> metrics = {
      {"batch_queries", static_cast<double>(queries.size())},
      {"sequential_seconds", seq_seconds},
      {"sequential_qps", seq_qps},
  };

  // Oversubscription beyond the core count is harmless, so the 4-thread
  // configuration always runs (it is the acceptance configuration).
  const std::set<uint32_t> thread_counts = {2u, 4u, cores};
  double best_speedup = 0.0;
  for (uint32_t threads : thread_counts) {
    for (const bool cached : {false, true}) {
      EngineOptions engine_options;
      engine_options.num_threads = threads;
      engine_options.candidate_cache_capacity = cached ? 1024 : 0;
      auto engine = MustOk(MakeEngineByName("Hybrid", data_ptr, engine_options,
                                            enum_options),
                           "engine");
      Stopwatch watch;
      BatchResult batch = MustOk(engine->MatchBatch(queries), "batch");
      const double seconds = watch.ElapsedSeconds();
      const double qps = queries.size() / seconds;
      const double speedup = seq_seconds / seconds;
      // Partial (deadline-cut) counts legitimately differ between runs —
      // cache hits shift budget into enumeration — so exact equality is
      // only enforced when every query finished in both runs.
      if (seq_unsolved == 0 && batch.unsolved == 0 &&
          batch.num_matches != seq_matches) {
        std::fprintf(stderr, "FATAL: match count mismatch (%llu vs %llu)\n",
                     static_cast<unsigned long long>(batch.num_matches),
                     static_cast<unsigned long long>(seq_matches));
        return 1;
      }
      if (seq_unsolved > 0 || batch.unsolved > 0) {
        std::printf("# note: deadlines fired (%u seq / %u engine unsolved); "
                    "equality check skipped\n",
                    seq_unsolved, batch.unsolved);
      }
      char label[64];
      std::snprintf(label, sizeof(label), "engine %2u threads%s", threads,
                    cached ? " + cache" : "");
      std::printf("%-28s %8.2f s %10.1f q/s  (%.2fx, %llu cache hits)\n",
                  label, seconds, qps, speedup,
                  static_cast<unsigned long long>(batch.cache_hits));
      char key[64];
      std::snprintf(key, sizeof(key), "engine_%u%s_qps", threads,
                    cached ? "_cached" : "");
      metrics.emplace_back(key, qps);
      if (threads == 4 && cached) {
        AppendEnumWorkMetrics(&metrics, "batch", batch);
        AppendOrderingMetrics(&metrics, "batch", batch.total_order_seconds,
                              batch.order_cache_hits,
                              batch.order_cache_misses);
      }
      best_speedup = std::max(best_speedup, speedup);
    }
  }
  metrics.emplace_back("best_speedup", best_speedup);
  std::printf("best speedup over sequential: %.2fx %s\n", best_speedup,
              best_speedup >= 1.5 ? "(PASS >= 1.5x)" : "(below 1.5x bar)");

  // Directed, edge-labeled configuration: the same serving stack over a
  // generated directed |Sigma|=4 graph, with queries sampled in the same
  // model. Exercises the labeled CSR slices + constraint-aware enumeration
  // end-to-end rather than the degenerate fast path above.
  {
    LabelConfig dir_labels;
    dir_labels.num_labels = 8;
    dir_labels.zipf_exponent = 0.8;
    dir_labels.num_edge_labels = 4;
    dir_labels.directed = true;
    const uint32_t n =
        std::max<uint32_t>(500, static_cast<uint32_t>(20000 * opts.scale));
    auto dir_data = std::make_shared<const Graph>(MustOk(
        GenerateErdosRenyi(n, 8.0, dir_labels, opts.seed), "directed data"));
    QuerySampler sampler(dir_data.get(), opts.seed + 3);
    std::vector<Graph> dir_base =
        MustOk(sampler.SampleQuerySet(5, 12), "directed queries");
    const std::vector<Graph> dir_queries = RepeatQueries(dir_base, 8);
    std::printf("\n# directed: %s, batch=%zu\n",
                dir_data->ToString().c_str(), dir_queries.size());
    EngineOptions engine_options;
    engine_options.num_threads = 4;
    engine_options.candidate_cache_capacity = 1024;
    auto engine = MustOk(
        MakeEngineByName("Hybrid", dir_data, engine_options, enum_options),
        "directed engine");
    Stopwatch watch;
    BatchResult batch = MustOk(engine->MatchBatch(dir_queries), "directed");
    const double seconds = watch.ElapsedSeconds();
    const double qps = dir_queries.size() / seconds;
    std::printf("%-28s %8.2f s %10.1f q/s  (%llu matches, %u failed)\n",
                "directed 4 threads + cache", seconds, qps,
                static_cast<unsigned long long>(batch.num_matches),
                batch.failed);
    if (batch.failed > 0) {
      std::fprintf(stderr, "FATAL: directed batch had failures\n");
      return 1;
    }
    metrics.emplace_back("directed_4_cached_qps", qps);
    metrics.emplace_back("directed_total_matches",
                         static_cast<double>(batch.num_matches));
  }

  WriteBenchJson("engine_throughput", opts, metrics);
  return 0;
}
