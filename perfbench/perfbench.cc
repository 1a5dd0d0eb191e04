// perfbench — the repository benchmark program.
//
// Runs one named workload through the public API (QueryEngine::MatchBatch,
// SubgraphMatcher::Match) for a fixed wall-clock budget and prints one JSON
// line of raw results: per-request latencies, set-up times, per-query
// embedding counts (checked by run.py against expected_counts.json), and —
// with --trace 1 — layer counters plus the trace spans the benchmark
// recorded around its own calls into each layer, including one
// RLQVOModel::Train call in the serve trace. run.py turns this into the
// benchmark's result line; see README.md.
//
//   perfbench --workload serve|enum_capped|enum_all --seed N
//             --seconds S --trace 0|1 --assets DIR [--trace-out FILE]
//   perfbench --make-expected FILE
//   perfbench --make-checkpoint FILE

#include <alloca.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/rlqvo.h"
#include "datasets/datasets.h"
#include "engine/query_engine.h"
#include "graph/query_sampler.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/intersect.h"
#include "matching/matcher.h"
#include "matching/ordering.h"
#include "rl/env.h"

namespace rlqvo {
namespace {

// ---------------------------------------------------------------------------
// Workload definitions. Query pools are fixed (fixed sampler seeds), so the
// committed expected counts stay valid; --seed drives only the request
// stream drawn from them.
// ---------------------------------------------------------------------------

constexpr uint32_t kWorkers = 4;
/// Set-up runs at least kSetupReps times and until kSetupSeconds have gone
/// into it (at most kMaxSetupReps times), so that its median is steady also
/// where one set-up takes a few milliseconds.
constexpr size_t kSetupReps = 5;
constexpr double kSetupSeconds = 1.0;
constexpr size_t kMaxSetupReps = 200;
/// Per-query safety deadline of the enumeration workloads. No query of
/// their pools comes near it; if one ever does, it counts as failed.
constexpr double kDeadlineSeconds = 30.0;

struct PoolSpec {
  const char* dataset;
  double scale;
  std::vector<uint32_t> sizes;
  uint32_t per_size;
  uint64_t sampler_seed;  // the sampler for size s is seeded sampler_seed + s
};

// serve: youtube Q8/Q16/Q32, 200 shapes each, Zipf-repeated.
const PoolSpec kServePool{"youtube", 1.0, {8, 16, 32}, 200, 11000};
constexpr size_t kServeBatch = 16;
constexpr size_t kServeWindow = 32;  // requests per throughput window
constexpr size_t kServeWarmupQueries = 256;  // = the default cache capacity
constexpr double kServeZipf = 1.0;
constexpr uint64_t kServeCap = 100000;  // the paper's cap (Sec IV-A)
/// Deadline per query on the RL-QVO engine, about 10x the slowest
/// GQL-ordered query of the pool. Under the committed policy, 9 of the 600
/// shapes take from 0.2 s to more than 20 s (GQL orders finish each in
/// under 10 ms). The client sends every query the RL-QVO engine cuts at
/// this deadline to a GQL-ordered engine on the same graph, so each request
/// gets its full answer and pays for the bad order in latency.
constexpr double kServeDeadlineSeconds = 0.1;

// enum_capped: unique eu2005 Q8/Q16 queries, large finite cap. At 1e7 one
// query takes about a second, too few samples per run for a tail percentile.
const PoolSpec kCappedPool{"eu2005", 1.0, {8, 16}, 8, 12000};
constexpr uint64_t kCappedCap = 1000000;

// enum_all: eu2005 Q8 at scale 0.05, enumerated to completion.
const PoolSpec kAllPool{"eu2005", 0.05, {8}, 64, 13000};

// RL training probe of the serve trace: one Train call over a youtube Q16
// split, then the trained policy against GQL on an eval split (checked).
// Both are sampled from the serve data graph.
const PoolSpec kTrainPool{"youtube", 1.0, {16}, 8, 14000};
const PoolSpec kEvalPool{"youtube", 1.0, {16}, 8, 15000};
constexpr int kTrainEpochs = 2;

// The committed serve checkpoint is trained on this pool (disjoint seeds).
const PoolSpec kCheckpointPool{"youtube", 1.0, {8, 16, 32}, 8, 16000};
constexpr int kCheckpointEpochs = 10;
constexpr const char* kCheckpointFile = "serve_policy.ckpt";

/// Distinct queries the serve layer probe runs in a traced run.
constexpr size_t kServeProbeQueries = 48;

// ---------------------------------------------------------------------------
// Small utilities.
// ---------------------------------------------------------------------------

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Uniform double in [0,1) from the benchmark's own generator, so the
/// request stream does not depend on the library's Rng.
double NextUnit(std::mt19937_64* rng) {
  return static_cast<double>((*rng)() >> 11) * 0x1.0p-53;
}

std::vector<size_t> SeededPermutation(size_t n, std::mt19937_64* rng) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[static_cast<size_t>(NextUnit(rng) * i)]);
  }
  return perm;
}

/// Zipf(s) over ranks 0..n-1; rank r is pool query r.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(std::mt19937_64* rng) const {
    const double u = NextUnit(rng);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Minimal JSON object writer (numbers at full precision).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
    return *this;
  }
  Json& Int(const std::string& key, uint64_t v) {
    Key(key);
    out_ << v;
    return *this;
  }
  Json& Str(const std::string& key, const std::string& v) {
    Key(key);
    out_ << '"' << v << '"';
    return *this;
  }
  Json& Raw(const std::string& key, const std::string& raw) {
    Key(key);
    out_ << raw;
    return *this;
  }
  template <typename T>
  Json& List(const std::string& key, const std::vector<T>& values) {
    std::ostringstream list;
    list << '[';
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(values[i]));
      list << (i ? "," : "") << buf;
    }
    list << ']';
    return Raw(key, list.str());
  }
  std::string str() const { return "{" + out_.str() + "}"; }

 private:
  void Key(const std::string& key) {
    if (!first_) out_ << ',';
    first_ = false;
    out_ << '"' << key << "\":";
  }
  std::ostringstream out_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's own calls into each layer, kept in
// memory and written out at exit. Off (a null check per call) unless --trace.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  int64_t Begin(const char* name, uint64_t request) {
    if (!on_) return -1;
    const int64_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Now(), 0, parent, request});
    open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int64_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = Now();
    open_.pop_back();
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) Die("cannot write trace file " + path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }
  size_t size() const { return spans_.size(); }

 private:
  using Clock = std::chrono::steady_clock;
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Shared measurement state.
// ---------------------------------------------------------------------------

struct Pool {
  std::shared_ptr<const Graph> data;
  std::vector<Graph> queries;  // interleaved by size: id = i * |sizes| + k
};

/// The spec's queries, interleaved by size: id = i * |sizes| + k.
std::vector<Graph> SampleQueries(const PoolSpec& spec, const Graph& data) {
  std::vector<std::vector<Graph>> by_size;
  for (uint32_t size : spec.sizes) {
    QuerySampler sampler(&data, spec.sampler_seed + size);
    by_size.push_back(
        Unwrap(sampler.SampleQuerySet(size, spec.per_size), "SampleQuerySet"));
  }
  std::vector<Graph> queries;
  for (uint32_t i = 0; i < spec.per_size; ++i) {
    for (auto& set : by_size) queries.push_back(set[i]);
  }
  return queries;
}

Pool BuildPool(const PoolSpec& spec, Tracer* tracer) {
  Pool pool;
  {
    Scope span(tracer, "setup.build", 0);
    const DatasetSpec ds = Unwrap(FindDataset(spec.dataset), "FindDataset");
    pool.data = std::make_shared<const Graph>(
        Unwrap(BuildDataset(ds, spec.scale), "BuildDataset"));
  }
  Scope span(tracer, "setup.sample", 0);
  pool.queries = SampleQueries(spec, *pool.data);
  return pool;
}

/// End-to-end observations of one measured loop.
struct Measure {
  std::vector<double> latencies_ms;
  uint64_t queries = 0;
  uint64_t failed = 0;    // errors and deadline cuts left without an answer
  uint64_t shed = 0;
  uint64_t rerouted = 0;  // serve: answered by the fallback engine
};

/// Embedding counts observed per pool query; a query answering with two
/// different counts within one run is a conflict.
struct Counts {
  std::map<size_t, uint64_t> by_id;
  uint64_t conflicts = 0;
  void Record(size_t id, uint64_t count) {
    auto [it, inserted] = by_id.emplace(id, count);
    if (!inserted && it->second != count) ++conflicts;
  }
  std::string ToJson() const {
    std::ostringstream out;
    out << '{';
    bool first = true;
    for (const auto& [id, count] : by_id) {
      out << (first ? "" : ",") << '"' << id << "\":" << count;
      first = false;
    }
    out << '}';
    return out.str();
  }
};

/// Enumeration-layer counters summed over successful queries.
struct EnumTotals {
  uint64_t queries = 0, enumerations = 0, matches = 0, limit_hits = 0;
  uint64_t intersections = 0, simd = 0, bitmap = 0, comparisons = 0;
  uint64_t local_total = 0, local_sets = 0, steals = 0, splits = 0;
  uint64_t max_work = 0, min_work = 0, deadline_cut = 0;

  void Add(uint64_t num_matches, uint64_t num_enumerations, bool hit_limit,
           bool solved, const auto& s) {
    ++queries;
    matches += num_matches;
    enumerations += num_enumerations;
    limit_hits += hit_limit ? 1 : 0;
    deadline_cut += solved ? 0 : 1;
    intersections += s.num_intersections;
    simd += s.num_simd_intersections;
    bitmap += s.num_bitmap_intersections;
    comparisons += s.num_probe_comparisons;
    local_total += s.local_candidates_total;
    local_sets += s.local_candidate_sets;
    steals += s.num_steals;
    splits += s.num_splits;
    if (s.min_worker_work > 0) {
      max_work += s.max_worker_work;
      min_work += s.min_worker_work;
    }
  }
  void Add(const MatchRunStats& s) {
    Add(s.num_matches, s.num_enumerations, s.hit_match_limit, s.solved, s);
  }
  void Add(const EnumerateResult& r) {
    Add(r.num_matches, r.num_enumerations, r.hit_match_limit, !r.timed_out, r);
  }

  void Emit(Json* out) const {
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double q = static_cast<double>(queries);
    out->Num("enum.calls_per_query", ratio(enumerations, q))
        .Num("enum.matches_per_call", ratio(matches, enumerations))
        .Num("enum.limit_hit_share", ratio(limit_hits, q))
        .Num("enum.deadline_cut_share", ratio(deadline_cut, q))
        .Num("enum.steals", ratio(steals, q))
        .Num("enum.splits", ratio(splits, q))
        .Num("enum.worker_work_spread", ratio(max_work, min_work))
        .Num("intersect.per_query", ratio(intersections, q))
        .Num("intersect.simd_share", ratio(simd, intersections))
        .Num("intersect.bitmap_share", ratio(bitmap, intersections))
        .Num("intersect.comparisons_per_intersection",
             ratio(comparisons, intersections))
        .Num("intersect.avg_local_candidates", ratio(local_total, local_sets));
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string assets;
  std::string trace_out;
  std::string make_expected;
  std::string make_checkpoint;
};

/// Everything one run reports (run.py computes the statistics).
struct Report {
  std::vector<double> setup_s;
  size_t window = 1;  // requests per throughput window (run.py)
  Measure untraced;  // the measured loop (first half in a traced run)
  Measure traced;    // second half of a traced run, spans on
  Counts counts;
  Counts rl_eval_counts;  // eval split of the RL training probe
  Json layer;             // per-layer counters (traced run only)
};

double ElapsedMs(const Stopwatch& w) { return w.ElapsedSeconds() * 1e3; }

EnumerateOptions EnumOptions(uint64_t cap, uint32_t threads,
                             double deadline = kDeadlineSeconds) {
  EnumerateOptions eo;
  eo.match_limit = cap;
  eo.time_limit_seconds = deadline;
  eo.parallel_threads = threads;
  return eo;
}

/// Runs `fn` with the stack pointer moved down by `bytes`. The parallel
/// enumerator keeps its shared EnumBudget on the calling thread's stack, so
/// where that object falls within a cache line depends on the stack's start
/// address, which differs per process; with one offset per process, whole
/// runs came out ~35% slower or faster. Cycling the offset through every
/// 16-byte position of a cache line gives each run the same mix.
constexpr size_t kStackShiftStep = 16;
constexpr size_t kStackShifts = 4;  // 4 x 16 bytes = one 64-byte line

template <typename Fn>
__attribute__((noinline)) void WithStackShift(size_t bytes, Fn&& fn) {
  volatile char* pad = static_cast<char*>(alloca(bytes + 1));
  pad[0] = 0;
  fn();
  pad[0] = 1;
}

std::mt19937_64 StreamRng(uint64_t seed, uint64_t salt) {
  return std::mt19937_64(seed * 0x9E3779B97F4A7C15ULL ^ salt);
}

/// Runs `setup` repeatedly (see kSetupReps), timing each; returns the last
/// result.
template <typename Fn>
auto RepeatedSetup(Report* report, Fn setup) {
  Stopwatch w;
  auto state = setup();
  report->setup_s.push_back(w.ElapsedSeconds());
  double spent = report->setup_s.back();
  while (report->setup_s.size() < kSetupReps ||
         (spent < kSetupSeconds && report->setup_s.size() < kMaxSetupReps)) {
    w.Restart();
    state = setup();
    report->setup_s.push_back(w.ElapsedSeconds());
    spent += report->setup_s.back();
  }
  return state;
}

/// Traced runs split the budget: the first half untraced, the second half
/// with spans, so the difference is the tracing overhead.
template <typename Loop>
void RunMeasured(const Args& args, Tracer* tracer, Report* report, Loop loop) {
  if (!args.trace) {
    loop(args.seconds, &report->untraced, tracer);
    return;
  }
  Tracer off(false);
  loop(args.seconds / 2, &report->untraced, &off);
  loop(args.seconds / 2, &report->traced, tracer);
}

// ---------------------------------------------------------------------------
// RL training probe (serve trace only): one RLQVOModel::Train call, a fresh
// default model and kTrainEpochs epochs of the default TrainConfig over a
// youtube Q16 split, then a replay of its per-query work through the same
// public calls. Train is not a gated workload: its reward enumeration runs
// under a 1 s wall-clock deadline, so identical calls train different
// policies and take different times.
// ---------------------------------------------------------------------------

void RunRlProbe(const Args& args, const Graph& g, Tracer* tracer,
                Report* report, uint64_t* request) {
  const std::vector<Graph> split = SampleQueries(kTrainPool, g);
  const std::vector<Graph> eval = SampleQueries(kEvalPool, g);

  TrainConfig config;
  config.epochs = kTrainEpochs;
  RLQVOModel model;
  const TrainStats stats = [&] {
    Scope span(tracer, "rl.Train", ++*request);
    return Unwrap(model.Train(split, g, config), "Train");
  }();

  // Correctness: the trained greedy RL-QVO matcher must return the expected
  // count on every eval query (counts do not depend on the order). Eval
  // queries get the training reward's deadline; a cut query is not checked
  // and adds its partial #enum.
  const EnumerateOptions eval_options =
      EnumOptions(kServeCap, 0, config.train_time_limit_seconds);
  std::shared_ptr<SubgraphMatcher> rl_matcher =
      Unwrap(model.MakeMatcher(eval_options), "MakeMatcher");
  std::shared_ptr<SubgraphMatcher> gql_matcher =
      Unwrap(MakeMatcherByName("GQL", eval_options), "MakeMatcherByName");
  uint64_t rl_enum = 0, gql_enum = 0;
  for (size_t id = 0; id < eval.size(); ++id) {
    const MatchRunStats rl = Unwrap(rl_matcher->Match(eval[id], g), "Match");
    if (rl.solved) report->rl_eval_counts.Record(id, rl.num_matches);
    rl_enum += rl.num_enumerations;
    const MatchRunStats gql = Unwrap(gql_matcher->Match(eval[id], g), "Match");
    if (gql.solved) report->rl_eval_counts.Record(id, gql.num_matches);
    gql_enum += gql.num_enumerations;
  }

  // Replay what the Train call does per query — the context (filter, RI
  // order, baseline Run), then one greedy rollout of training-mode forwards
  // and its reward Run.
  std::shared_ptr<CandidateFilter> filter = Unwrap(MakeFilter("GQL"), "filter");
  RIOrdering ri;
  Enumerator enumerator;
  EnumeratorWorkspace workspace;
  EnumerateOptions train_options;
  train_options.match_limit = config.train_match_limit;
  train_options.time_limit_seconds = config.train_time_limit_seconds;
  std::vector<CandidateSet> candidates(split.size());
  {
    Scope context_span(tracer, "rl.context", ++*request);
    for (size_t i = 0; i < split.size(); ++i) {
      candidates[i] = Unwrap(filter->Filter(split[i], g), "Filter");
      OrderingContext ctx{&split[i], &g, &candidates[i], nullptr};
      const std::vector<VertexId> order =
          Unwrap(ri.MakeOrder(ctx), "MakeOrder");
      Unwrap(enumerator.Run(split[i], g, candidates[i], order, train_options,
                            &workspace),
             "Run");
    }
  }
  Rng dropout_rng(args.seed);
  const PolicyNetwork& policy = model.policy();
  for (size_t i = 0; i < split.size(); ++i) {
    Scope episode_span(tracer, "rl.episode", ++*request);
    OrderingEnv env(&split[i], &g, model.feature_config());
    while (!env.Done()) {
      VertexId action = env.SoleAction();
      if (action == kInvalidVertex) {
        Scope span(tracer, "nn.forward", *request);
        PolicyNetwork::ForwardResult forward =
            policy.Forward(env.tensors(), env.FeaturesView(), env.ActionMask(),
                           /*training=*/true, &dropout_rng);
        double best = -1e300;
        for (VertexId u = 0; u < split[i].num_vertices(); ++u) {
          const double lp = forward.log_probs.value().At(u, 0);
          if (env.ActionMask()[u] && lp > best) {
            best = lp;
            action = u;
          }
        }
      }
      env.Step(action);
    }
    Scope span(tracer, "rl.reward_enum", *request);
    Unwrap(enumerator.Run(split[i], g, candidates[i], env.order(),
                          train_options, &workspace),
           "Run");
  }
  report->layer
      .Num("rl.train.final_reward", stats.epoch_mean_enum_reward.back())
      .Num("rl.train.episodes_per_s",
           static_cast<double>(stats.episodes) / stats.train_time_seconds)
      .Num("rl.train.eval_enum_ratio",
           gql_enum > 0 ? static_cast<double>(rl_enum) / gql_enum : 0.0);
}

// ---------------------------------------------------------------------------
// serve: QueryEngine, GQL filter + RL-QVO order, 4 workers, serial
// enumeration, cap 1e5; one closed-loop client sending Zipf-drawn batches.
// ---------------------------------------------------------------------------

void RunServe(const Args& args, Tracer* tracer, Report* report) {
  struct State {
    Pool pool;
    std::unique_ptr<RLQVOModel> model;
    std::shared_ptr<QueryEngine> engine;
    std::shared_ptr<QueryEngine> fallback;
  };
  const ZipfSampler zipf(kServePool.per_size * kServePool.sizes.size(),
                         kServeZipf);
  const EnumerateOptions serve_options =
      EnumOptions(kServeCap, 0, kServeDeadlineSeconds);
  std::mt19937_64 rng = StreamRng(args.seed, 1);
  auto draw_batch = [&](std::vector<size_t>* ids, std::vector<Graph>* batch,
                        const Pool& pool) {
    ids->clear();
    batch->clear();
    for (size_t i = 0; i < kServeBatch; ++i) {
      ids->push_back(zipf.Draw(&rng));
      batch->push_back(pool.queries[ids->back()]);
    }
  };
  // One request: the batch on the RL-QVO engine, then the queries it cut at
  // the deadline, as one batch, on the GQL engine.
  struct Served {
    Result<BatchResult> primary;
    std::vector<size_t> rerouted;  // indices into the batch
    Result<BatchResult> fallback;  // aligned with `rerouted`
  };
  auto serve = [](const State& st, const std::vector<Graph>& batch,
                  Tracer* t, uint64_t request) {
    Served out{[&] {
                 Scope span(t, "engine.MatchBatch", request);
                 return st.engine->MatchBatch(batch);
               }(),
               {},
               BatchResult{}};
    if (!out.primary.ok()) return out;
    std::vector<Graph> again;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (out.primary->statuses[i].ok() && !out.primary->per_query[i].solved) {
        out.rerouted.push_back(i);
        again.push_back(batch[i]);
      }
    }
    if (!again.empty()) {
      Scope span(t, "engine.fallback", request);
      out.fallback = st.fallback->MatchBatch(again);
    }
    return out;
  };

  State s = RepeatedSetup(report, [&] {
    State st;
    st.pool = BuildPool(kServePool, tracer);
    {
      Scope span(tracer, "setup.load_checkpoint", 0);
      st.model = std::make_unique<RLQVOModel>(Unwrap(
          RLQVOModel::Load(args.assets + "/" + kCheckpointFile), "Load"));
    }
    EngineOptions eopts;
    eopts.num_threads = kWorkers;
    st.engine = Unwrap(
        st.model->MakeEngine(st.pool.data, eopts, serve_options, "GQL"),
        "MakeEngine");
    st.fallback =
        Unwrap(MakeEngineByName("GQL", st.pool.data, eopts,
                                EnumOptions(kServeCap, 0)),
               "MakeEngineByName");
    // Warm-up: the same fixed work on every seed — the kServeWarmupQueries
    // most popular shapes, in batches, which also fills the caches.
    Tracer off(false);
    std::vector<Graph> batch;
    for (size_t id = 0; id < kServeWarmupQueries; ++id) {
      batch.push_back(st.pool.queries[id]);
      if (batch.size() == kServeBatch) {
        Served warm = serve(st, batch, &off, 0);
        if (!warm.primary.ok() || !warm.fallback.ok()) Die("warm-up failed");
        batch.clear();
      }
    }
    return st;
  });

  report->window = kServeWindow;
  EnumTotals totals;
  uint64_t cand_hits = 0, cand_misses = 0, order_hits = 0, order_misses = 0;
  double service_s = 0.0, batch_wall_s = 0.0;
  uint64_t request = 0;
  auto loop = [&](double seconds, Measure* m, Tracer* t) {
    std::vector<size_t> ids;
    std::vector<Graph> batch;
    const uint64_t shed_before = s.engine->counters().queries_shed +
                                 s.fallback->counters().queries_shed;
    Stopwatch budget;
    while (budget.ElapsedSeconds() < seconds) {
      draw_batch(&ids, &batch, s.pool);
      Stopwatch w;
      const Served served = serve(s, batch, t, ++request);
      m->latencies_ms.push_back(ElapsedMs(w));
      m->queries += batch.size();
      if (!served.primary.ok()) {
        m->failed += batch.size();
        continue;
      }
      // Enumeration counters describe the RL-QVO engine's runs; service
      // time and wall time cover both engines.
      const BatchResult& r = *served.primary;
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!r.statuses[i].ok()) {
          ++m->failed;
          continue;
        }
        totals.Add(r.per_query[i]);
        service_s += r.per_query[i].total_time_seconds;
        if (r.per_query[i].solved) {
          report->counts.Record(ids[i], r.per_query[i].num_matches);
        }
      }
      cand_hits += r.cache_hits;
      cand_misses += r.cache_misses;
      order_hits += r.order_cache_hits;
      order_misses += r.order_cache_misses;
      batch_wall_s += r.wall_seconds;
      m->rerouted += served.rerouted.size();
      if (served.rerouted.empty()) continue;
      if (!served.fallback.ok()) {
        m->failed += served.rerouted.size();
        continue;
      }
      const BatchResult& f = *served.fallback;
      for (size_t j = 0; j < served.rerouted.size(); ++j) {
        if (!f.statuses[j].ok() || !f.per_query[j].solved) {
          ++m->failed;
          continue;
        }
        service_s += f.per_query[j].total_time_seconds;
        report->counts.Record(ids[served.rerouted[j]],
                              f.per_query[j].num_matches);
      }
      batch_wall_s += f.wall_seconds;
    }
    m->shed = s.engine->counters().queries_shed +
              s.fallback->counters().queries_shed - shed_before;
  };
  RunMeasured(args, tracer, report, loop);
  if (!args.trace) return;

  // Layer probe: the benchmark's own filter -> RL-QVO order -> serial
  // enumeration on the first distinct queries of the request stream.
  std::vector<size_t> probe_ids;
  std::mt19937_64 probe_rng = StreamRng(args.seed, 3);
  while (probe_ids.size() < kServeProbeQueries) {
    const size_t id = zipf.Draw(&probe_rng);
    if (std::find(probe_ids.begin(), probe_ids.end(), id) == probe_ids.end()) {
      probe_ids.push_back(id);
    }
  }
  std::shared_ptr<CandidateFilter> filter = Unwrap(MakeFilter("GQL"), "filter");
  auto ordering =
      std::dynamic_pointer_cast<RLQVOOrdering>(s.model->MakeOrdering());
  Enumerator enumerator;
  EnumeratorWorkspace workspace;
  double candidates_per_vertex = 0.0;
  for (size_t id : probe_ids) {
    const Graph& q = s.pool.queries[id];
    const Graph& g = *s.pool.data;
    Scope query_span(tracer, "probe.query", ++request);
    CandidateSet candidates = [&] {
      Scope span(tracer, "filter", request);
      return Unwrap(filter->Filter(q, g), "Filter");
    }();
    candidates_per_vertex += static_cast<double>(candidates.TotalSize()) /
                             q.num_vertices() / probe_ids.size();
    OrderingContext ctx{&q, &g, &candidates, nullptr};
    std::vector<VertexId> order = [&] {
      Scope span(tracer, "order", request);
      return Unwrap(ordering->MakeOrder(ctx), "MakeOrder");
    }();
    Scope span(tracer, "enum", request);
    EnumerateResult r = Unwrap(enumerator.Run(q, g, candidates, order,
                                              serve_options, &workspace),
                               "Run");
    if (!r.timed_out) report->counts.Record(id, r.num_matches);
  }

  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report->layer
      .Num("engine.candidate_cache.hit_ratio",
           ratio(cand_hits, cand_hits + cand_misses))
      .Num("engine.order_cache.hit_ratio",
           ratio(order_hits, order_hits + order_misses))
      .Num("engine.worker_busy_share",
           ratio(service_s, batch_wall_s * kWorkers))
      .Int("engine.shed_queries", report->traced.shed + report->untraced.shed)
      .Num("filter.candidates_per_query_vertex", candidates_per_vertex)
      .Int("order.rlqvo_fallbacks", ordering->fallback_count())
      .Int("nn.inference.buffer_grows",
           ordering->inference_workspace().buffer_grows());
  totals.Emit(&report->layer);
  RunRlProbe(args, *s.pool.data, tracer, report, &request);
}

// ---------------------------------------------------------------------------
// enum_capped / enum_all: SubgraphMatcher, GQL filter + GQL order,
// parallel_threads = 4, one query at a time in seeded whole passes.
// ---------------------------------------------------------------------------

void RunEnum(const Args& args, const PoolSpec& spec, uint64_t cap,
             Tracer* tracer, Report* report) {
  struct State {
    Pool pool;
    std::shared_ptr<SubgraphMatcher> matcher;
  };
  State s = RepeatedSetup(report, [&] {
    State st;
    st.pool = BuildPool(spec, tracer);
    st.matcher = Unwrap(MakeMatcherByName("GQL", EnumOptions(cap, kWorkers)),
                        "MakeMatcherByName");
    // Warm-up: one query spawns the matcher's enumeration pool.
    Unwrap(st.matcher->Match(st.pool.queries[0], *st.pool.data), "warm-up");
    return st;
  });

  std::mt19937_64 rng = StreamRng(args.seed, 4);
  report->window = s.pool.queries.size();  // one pass
  EnumTotals totals;
  uint64_t request = 0;
  auto run_pass = [&](Measure* m, Tracer* t) {
    for (size_t id : SeededPermutation(s.pool.queries.size(), &rng)) {
      Stopwatch w;
      Result<MatchRunStats> r = [&] {
        Scope span(t, "matcher.Match", ++request);
        return s.matcher->Match(s.pool.queries[id], *s.pool.data);
      }();
      m->latencies_ms.push_back(ElapsedMs(w));
      ++m->queries;
      if (!r.ok()) {
        ++m->failed;
        continue;
      }
      totals.Add(*r);
      if (r->solved) {
        report->counts.Record(id, r->num_matches);
      } else {
        ++m->failed;
      }
    }
  };
  // Whole groups of kStackShifts passes, one per stack offset.
  auto loop = [&](double seconds, Measure* m, Tracer* t) {
    Stopwatch budget;
    size_t pass = 0;
    do {
      WithStackShift(kStackShiftStep * (pass++ % kStackShifts),
                     [&] { run_pass(m, t); });
    } while (pass % kStackShifts != 0 || budget.ElapsedSeconds() < seconds);
  };
  RunMeasured(args, tracer, report, loop);
  if (!args.trace) return;

  // Layer probe: one seeded pass calling filter, order and the parallel
  // enumerator directly, plus a serial Run on the same order for the
  // parallel speedup.
  std::shared_ptr<CandidateFilter> filter = Unwrap(MakeFilter("GQL"), "filter");
  GQLOrdering ordering;
  Enumerator enumerator;
  ThreadPool pool(kWorkers);
  std::vector<EnumeratorWorkspace> worker_workspaces(kWorkers);
  EnumeratorWorkspace caller_workspace;
  const ParallelEnumResources resources{&pool, &worker_workspaces,
                                        &caller_workspace};
  const EnumerateOptions options = EnumOptions(cap, kWorkers);
  double candidates_per_vertex = 0.0;
  const size_t n = s.pool.queries.size();
  for (size_t id : SeededPermutation(n, &rng)) {
    const Graph& q = s.pool.queries[id];
    const Graph& g = *s.pool.data;
    Scope query_span(tracer, "probe.query", ++request);
    CandidateSet candidates = [&] {
      Scope span(tracer, "filter", request);
      return Unwrap(filter->Filter(q, g), "Filter");
    }();
    candidates_per_vertex +=
        static_cast<double>(candidates.TotalSize()) / q.num_vertices() / n;
    OrderingContext ctx{&q, &g, &candidates, nullptr};
    std::vector<VertexId> order = [&] {
      Scope span(tracer, "order", request);
      return Unwrap(ordering.MakeOrder(ctx), "MakeOrder");
    }();
    {
      Scope span(tracer, "enum", request);
      EnumerateResult r = Unwrap(
          enumerator.RunParallel(q, g, candidates, order, options, resources),
          "RunParallel");
      if (!r.timed_out) report->counts.Record(id, r.num_matches);
    }
    Scope span(tracer, "enum.serial_ref", request);
    EnumerateResult r = Unwrap(
        enumerator.Run(q, g, candidates, order, options, &caller_workspace),
        "Run");
    if (!r.timed_out) report->counts.Record(id, r.num_matches);
  }
  report->layer.Num("filter.candidates_per_query_vertex",
                    candidates_per_vertex);
  totals.Emit(&report->layer);
}

// ---------------------------------------------------------------------------
// Maintenance modes: expected counts and the serve checkpoint.
// ---------------------------------------------------------------------------

void MakeExpected(const std::string& path) {
  Tracer off(false);
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  struct Entry {
    const char* key;
    const PoolSpec* spec;
    uint64_t cap;
  };
  const Entry entries[] = {{"serve", &kServePool, kServeCap},
                           {"enum_capped", &kCappedPool, kCappedCap},
                           {"enum_all", &kAllPool, 0},
                           {"rl_eval", &kEvalPool, kServeCap}};
  out << "{\n";
  for (size_t e = 0; e < std::size(entries); ++e) {
    const Pool pool = BuildPool(*entries[e].spec, &off);
    EnumerateOptions eo;
    eo.match_limit = entries[e].cap;  // no deadline: the true count
    std::shared_ptr<SubgraphMatcher> matcher =
        Unwrap(MakeMatcherByName("GQL", eo), "MakeMatcherByName");
    std::vector<uint64_t> counts;
    double slowest = 0.0;
    for (const Graph& q : pool.queries) {
      MatchRunStats r = Unwrap(matcher->Match(q, *pool.data), "Match");
      counts.push_back(r.num_matches);
      slowest = std::max(slowest, r.total_time_seconds);
    }
    std::fprintf(stderr, "%s: %zu queries, slowest serial %.3fs\n",
                 entries[e].key, counts.size(), slowest);
    out << "  \"" << entries[e].key << "\": [";
    for (size_t i = 0; i < counts.size(); ++i) {
      out << (i ? ", " : "") << counts[i];
    }
    out << "]" << (e + 1 < std::size(entries) ? "," : "") << "\n";
  }
  out << "}\n";
}

void MakeCheckpoint(const std::string& path) {
  Tracer off(false);
  const Pool pool = BuildPool(kCheckpointPool, &off);
  RLQVOModel model;
  TrainConfig config;
  config.epochs = kCheckpointEpochs;
  TrainStats stats = Unwrap(model.Train(pool.queries, *pool.data, config),
                            "Train");
  std::fprintf(stderr, "trained %d epochs, %zu episodes in %.1fs; "
               "last epoch mean enum reward %.3f\n",
               stats.epochs_run, stats.episodes, stats.train_time_seconds,
               stats.epoch_mean_enum_reward.back());
  const Status saved = model.Save(path);
  if (!saved.ok()) Die("Save: " + saved.ToString());
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--assets") {
      args.assets = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--make-expected") {
      args.make_expected = value;
    } else if (flag == "--make-checkpoint") {
      args.make_checkpoint = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!args.make_expected.empty()) {
    MakeExpected(args.make_expected);
    return 0;
  }
  if (!args.make_checkpoint.empty()) {
    MakeCheckpoint(args.make_checkpoint);
    return 0;
  }
  Tracer tracer(args.trace);
  Report report;
  if (args.workload == "serve") {
    RunServe(args, &tracer, &report);
  } else if (args.workload == "enum_capped") {
    RunEnum(args, kCappedPool, kCappedCap, &tracer, &report);
  } else if (args.workload == "enum_all") {
    RunEnum(args, kAllPool, 0, &tracer, &report);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  if (args.trace && !args.trace_out.empty()) tracer.Write(args.trace_out);

  auto measure = [](const Measure& m) {
    return Json()
        .List("latencies_ms", m.latencies_ms)
        .Int("queries", m.queries)
        .Int("failed", m.failed)
        .Int("shed", m.shed)
        .Int("rerouted", m.rerouted)
        .str();
  };
  Json out;
  out.Str("workload", args.workload)
      .List("setup_s", report.setup_s)
      .Int("window", report.window)
      .Raw("untraced", measure(report.untraced))
      .Num("peak_rss_mb", PeakRssMb())
      .Raw("counts", report.counts.ToJson())
      .Raw("rl_eval_counts", report.rl_eval_counts.ToJson())
      .Int("count_conflicts",
           report.counts.conflicts + report.rl_eval_counts.conflicts)
      .Str("intersect_kernel", IntersectKernelName(GetIntersectKernel()))
      .Str("simd_kernel", IntersectKernelName(AutoSimdKernel()));
  if (args.trace) {
    out.Raw("traced", measure(report.traced))
        .Raw("layer", report.layer.str())
        .Int("spans", tracer.size());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace rlqvo

int main(int argc, char** argv) { return rlqvo::Main(argc, argv); }
