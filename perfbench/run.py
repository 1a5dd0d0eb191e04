#!/usr/bin/env python3
"""The repository benchmark: build perfbench, run one workload, check it.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Builds the perfbench binary from the library sources (CMake, Release) into
.bench_build/perfbench, runs the workload, checks every embedding count
against perfbench/expected_counts.json and prints a report. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs every workload in turn and ends with one line mapping each
workload to its result; it exits non-zero if any run is not correct.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(computed from the spans the benchmark records around its calls into each
layer, written to .bench_build/perfbench/traces/). Exits non-zero on a build
failure, a crash, or any wrong embedding count. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve", "enum_capped", "enum_all")
# Limit on the benchmark binary, counted from when the build is ready: the
# first run in a checkout builds first, later runs' no-op build takes seconds.
RUN_TIMEOUT_S = 165

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("datasets.build_s", "s"),
    ("datasets.sample_s", "s"),
    ("core.checkpoint_load_s", "s"),
    ("engine.candidate_cache.hit_ratio", "ratio"),
    ("engine.order_cache.hit_ratio", "ratio"),
    ("engine.worker_busy_share", "ratio"),
    ("engine.shed_queries", "count"),
    ("filter.ms_per_query", "ms"),
    ("filter.candidates_per_query_vertex", "count"),
    ("order.ms_per_query", "ms"),
    ("order.rlqvo_fallbacks", "count"),
    ("nn.inference.buffer_grows", "count"),
    ("enum.ms_per_query", "ms"),
    ("enum.calls_per_query", "count"),
    ("enum.matches_per_call", "ratio"),
    ("enum.limit_hit_share", "ratio"),
    ("enum.deadline_cut_share", "ratio"),
    ("enum.speedup_vs_serial", "x"),
    ("enum.steals", "count"),
    ("enum.splits", "count"),
    ("enum.worker_work_spread", "ratio"),
    ("intersect.per_query", "count"),
    ("intersect.simd_share", "ratio"),
    ("intersect.bitmap_share", "ratio"),
    ("intersect.comparisons_per_intersection", "count"),
    ("intersect.avg_local_candidates", "count"),
    ("rl.train.context_s", "s"),
    ("rl.train.forward_ms_per_step", "ms"),
    ("rl.train.reward_enum_ms_per_episode", "ms"),
    ("rl.train.episodes_per_s", "1/s"),
    ("rl.train.final_reward", "reward"),
    ("rl.train.eval_enum_ratio", "ratio"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.spans", "count"),
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def tail_latency(values):
    """Highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], "max", n
    return ordered[n - 11], "p%.2f" % (100.0 * (n - 10) / n), n


def windowed_throughput(latencies_ms, queries_per_request, window):
    """Median over whole windows of `window` requests of queries per second.

    A median over windows keeps a burst of load from elsewhere on the host
    in a few windows, where a run-wide mean would take it in whole.
    """
    rates = []
    for start in range(0, len(latencies_ms) - window + 1, window):
        seconds = sum(latencies_ms[start:start + window]) / 1e3
        rates.append(window * queries_per_request / seconds)
    if not rates:  # shorter than one window
        rates.append(len(latencies_ms) * queries_per_request * 1e3 / sum(latencies_ms))
    return statistics.median(rates), len(rates)


def end_to_end(raw, measure):
    lat = measure["latencies_ms"]
    failed = measure["failed"] + measure["shed"]
    served = measure["queries"] - failed
    tail, tail_label, samples = tail_latency(lat)
    rate, windows = windowed_throughput(lat, measure["queries"] / len(lat), raw["window"])
    metrics = {
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail,
        # completed queries per second of request time
        "throughput_qps": rate * served / measure["queries"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setup_s"]),
    }
    info = {
        "failed_ratio": failed / max(1, measure["queries"]),
        "rerouted_ratio": measure["rerouted"] / max(1, measure["queries"]),
        "tail_percentile": tail_label,
        "latency_samples": samples,
        "throughput_windows": windows,
    }
    return metrics, info


def load_spans(path):
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_name = {}
    for s, covered in zip(spans, child_ns):
        total = s["end_ns"] - s["start_ns"]
        entry = by_name.setdefault(s["name"], {"count": 0, "total_ns": 0, "self_ns": 0})
        entry["count"] += 1
        entry["total_ns"] += total
        entry["self_ns"] += total - covered
    return by_name


def per_layer(raw, spans):
    def mean_ms(name, field="self_ns"):
        entry = spans.get(name)
        return entry[field] / entry["count"] / 1e6 if entry else 0.0

    def total_s(name):
        entry = spans.get(name)
        return entry["total_ns"] / 1e9 if entry else 0.0

    reps = spans.get("setup.build", {"count": 1})["count"]
    metrics = dict(raw["layer"])
    metrics.update({
        "datasets.build_s": total_s("setup.build") / reps,
        "datasets.sample_s": total_s("setup.sample") / reps,
        "core.checkpoint_load_s": total_s("setup.load_checkpoint") / reps,
        "filter.ms_per_query": mean_ms("filter"),
        "order.ms_per_query": mean_ms("order"),
        "enum.ms_per_query": mean_ms("enum"),
        "rl.train.context_s": mean_ms("rl.context", "total_ns") / 1e3,
        "rl.train.forward_ms_per_step": mean_ms("nn.forward", "total_ns"),
        "rl.train.reward_enum_ms_per_episode": mean_ms("rl.reward_enum", "total_ns"),
        "trace.spans": raw["spans"],
    })
    if "enum.serial_ref" in spans and total_s("enum") > 0:
        metrics["enum.speedup_vs_serial"] = total_s("enum.serial_ref") / total_s("enum")
    untraced = statistics.median(raw["untraced"]["latencies_ms"])
    traced = statistics.median(raw["traced"]["latencies_ms"])
    metrics["trace.overhead_p50_pct"] = 100.0 * (traced - untraced) / untraced
    missing = [name for name, _ in PER_LAYER if name not in metrics]
    for name in missing:
        metrics[name] = 0
    return metrics, missing


def check_counts(workload, raw):
    """Every observed count must equal the committed min(available, cap)."""
    with open(os.path.join(HERE, "expected_counts.json")) as f:
        expected = json.load(f)
    errors = []
    if raw["count_conflicts"]:
        errors.append("%d queries answered with two different counts" % raw["count_conflicts"])
    if not raw["counts"]:
        errors.append("no query completed")
    # The serve trace also checks the eval split of its RL training probe.
    for pool, counts in ((workload, raw["counts"]), ("rl_eval", raw["rl_eval_counts"])):
        for qid, count in sorted(counts.items(), key=lambda kv: int(kv[0])):
            want = expected[pool][int(qid)]
            if count != want:
                errors.append("%s query %s: %d embeddings, expected %d"
                              % (pool, qid, count, want))
    return errors


def cpu_times():
    """Aggregate CPU time counters of the host (/proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return round(delta[7] / max(1, sum(delta)), 4)


def environment(raw, steal):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=10)
            if out.returncode == 0 and out.stdout:
                return out.stdout.splitlines()[0].strip()
            return None
        except (OSError, subprocess.SubprocessError):
            return None

    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                cache[key.split(":")[0]] = value
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
        "simd_kernel": raw["simd_kernel"],
        "intersect_kernel": raw["intersect_kernel"],
        "git_sha": (first_line(["git", "rev-parse", "HEAD"])
                    if os.path.isdir(os.path.join(ROOT, ".git")) else None) or "unavailable",
        "src_sha256": digest.hexdigest(),
        # Time stolen from this VM's CPUs during the run; it slows every
        # timing, so high values explain slow runs.
        "host_steal_share": steal,
    }


def run_all(args):
    """Runs every workload in turn; the last line maps each to its result."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        try:
            results[workload] = json.loads(lines.pop())
        except (IndexError, ValueError):
            results[workload] = None
        print("\n".join(lines))
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    started = time.monotonic()
    if not build():
        return 1
    log("perfbench: build ready after %.1fs" % (time.monotonic() - started))
    started = time.monotonic()

    trace_path = os.path.join(BUILD_DIR, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--assets", HERE, "--trace-out", trace_path]
    cpu_before = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench: binary failed with code %d" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    steal = steal_share(cpu_before, cpu_times())

    errors = check_counts(args.workload, raw)
    metrics, info = end_to_end(raw, raw["untraced"])
    units = dict(END_TO_END)
    if args.trace:
        layer, missing = per_layer(raw, load_spans(trace_path))
        traced, _ = end_to_end(raw, raw["traced"])
        print("# trace: %s (spans: %s)" % (trace_path, raw["spans"]))
        print("# tracing overhead: p50 %.4f -> %.4f ms, throughput %.2f -> %.2f 1/s"
              % (metrics["latency_p50_ms"], traced["latency_p50_ms"],
                 metrics["throughput_qps"], traced["throughput_qps"]))
        if missing:
            print("# layers not exercised by %s (reported as 0): %s"
                  % (args.workload, ", ".join(missing)))
        metrics = layer
        units = dict(PER_LAYER)

    measure = raw["untraced"]
    print("# workload %s seed %d: %d queries, %d requests, %d set-ups from %.4fs to %.4fs"
          % (args.workload, args.seed, measure["queries"], len(measure["latencies_ms"]),
             len(raw["setup_s"]), min(raw["setup_s"]), max(raw["setup_s"])))
    for name, value in info.items():
        print("# %-34s %s" % (name, value))
    for name, unit in (END_TO_END if not args.trace else PER_LAYER):
        print("# %-34s %.6g %s" % (name, metrics[name], unit))
    print("# env " + json.dumps(environment(raw, steal), sort_keys=True))
    for error in errors[:20]:
        print("# WRONG: " + error)

    failed = measure["failed"] + measure["shed"]
    result = {
        "correct": not errors,
        "attempted": measure["queries"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
