#!/usr/bin/env python3
"""Perf-regression gate for the engine's fast paths.

Runs (or parses) the bench_micro_engine google-benchmark JSON and checks
that each gated fast path keeps its speedup over its slow-path
reference on the same machine (which factors out host speed):

  speedup = real_time(reference) / real_time(fast path)

Gated pairs:
  - vectorized group-by scan vs the interpreted row-at-a-time oracle
    (BM_PartitionGroupBy vs BM_PartitionGroupByInterpreted)
  - the same over a 3-dim key space past the direct-slot cap, grouped by
    packed keys (BM_PartitionGroupByWide vs
    BM_PartitionGroupByWideInterpreted)
  - k-ary tree-merge coordinator fold vs the flat fan-in fold
    (BM_CoordinatorMergeTreeRoot vs BM_CoordinatorMergeFlat): the
    planner's tree topology must keep moving ~(fan-out / fan-in) of the
    coordinator's fold work onto the aggregator servers
  - the morsel-parallel scan at 4 workers vs the serial scan
    (BM_PartitionGroupByParallel/4 vs BM_PartitionGroupByParallel/1),
    only on hosts with at least 4 hardware threads; on smaller hosts the
    pair is skipped with the reason printed

Gated self-measured ratios (a benchmark that runs both sides in every
iteration, alternating, and reports their ratio as a counter, so host
drift lands on both sides alike):
  - the AVX-512 scan-kernel body vs the portable body on a filtered wide
    group-by (BM_WideFilteredScanBodies, counter "speedup"), only on CPUs
    with AVX-512F: elsewhere the benchmark skips itself with an error
    starting "skipped:" and the ratio is skipped with that reason printed

The gate fails when a measured speedup drops below the absolute floor
or below (1 - tolerance) of the committed baseline speedup.

Usage:
  check_perf_regression.py --json build/BENCH_micro_engine.json \
      [--baseline bench/BENCH_micro_engine.baseline.json]
  check_perf_regression.py --bench build/bench/bench_micro_engine \
      --out /tmp/BENCH_micro_engine.json [--baseline ...]

With --bench, the benchmark binary is run first (filtered to the gated
benchmarks, five repetitions in random interleaving) to produce the JSON;
each benchmark's time is then the median of its repetitions (a JSON with
a single run per benchmark is read as is). Exits 0 on pass, 1 on
regression, 2 on missing/unparseable inputs.
"""

import argparse
import json
import os
import subprocess
import sys

GATED = [
    # (fast-path benchmark, slow-path reference benchmark, minimum
    # hardware threads for the ratio to mean anything)
    ("BM_PartitionGroupBy", "BM_PartitionGroupByInterpreted", 1),
    ("BM_PartitionGroupByWide", "BM_PartitionGroupByWideInterpreted", 1),
    ("BM_CoordinatorMergeTreeRoot", "BM_CoordinatorMergeFlat", 1),
    ("BM_PartitionGroupByParallel/4", "BM_PartitionGroupByParallel/1", 4),
]

COUNTER_GATED = [
    # (benchmark, counter holding its fast-path speedup)
    ("BM_WideFilteredScanBodies", "speedup"),
]


REPETITIONS = 5


def load_benchmarks(path):
    """Per benchmark: its median over repetitions when the JSON has one,
    else its (last) plain iteration result."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    medians = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench["run_name"]] = bench
            continue
        out[bench["name"]] = bench
    out.update(medians)
    return out


def run_bench(binary, out_path):
    names = [name for fast, slow, _ in GATED for name in (fast, slow)]
    names += [name for name, _ in COUNTER_GATED]
    bench_filter = "|".join("^%s$" % name for name in names)
    # Repetitions run in random interleaving, and each benchmark counts at
    # its median: a burst of load from a neighbour on a shared host lands
    # on one repetition of one side of a pair, not on a whole side.
    cmd = [
        binary,
        "--benchmark_filter=%s" % bench_filter,
        "--benchmark_out=%s" % out_path,
        "--benchmark_out_format=json",
        "--benchmark_min_time=0.2",
        "--benchmark_repetitions=%d" % REPETITIONS,
        "--benchmark_enable_random_interleaving=true",
    ]
    env = dict(os.environ, SCALEWALL_BENCH_QUICK="1")
    print("+ %s" % " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, env=env)
    if proc.returncode != 0:
        print("benchmark binary failed (exit %d)" % proc.returncode)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="existing benchmark JSON to check")
    parser.add_argument("--bench", help="bench_micro_engine binary to run")
    parser.add_argument("--out", default="BENCH_micro_engine.json",
                        help="JSON output path when running --bench")
    parser.add_argument("--baseline",
                        default=os.path.join(os.path.dirname(__file__),
                                             os.pardir, "bench",
                                             "BENCH_micro_engine.baseline.json"),
                        help="committed baseline with expected speedups")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional regression vs baseline")
    args = parser.parse_args()

    if args.bench:
        run_bench(args.bench, args.out)
        json_path = args.out
    elif args.json:
        json_path = args.json
    else:
        parser.error("one of --json or --bench is required")

    try:
        results = load_benchmarks(json_path)
    except (OSError, ValueError) as e:
        print("cannot read %s: %s" % (json_path, e))
        return 2
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print("cannot read baseline %s: %s" % (args.baseline, e))
        return 2

    failures = []
    threads = os.cpu_count() or 1

    def check(name, speedup, reference):
        base = baseline.get(name, {})
        floor = base.get("min_speedup", 1.0)
        expected = base.get("speedup_vs_interpreted")
        required = floor
        if expected is not None:
            required = max(required, expected * (1.0 - args.tolerance))
        status = "PASS" if speedup >= required else "FAIL"
        print("%s: %s %.2fx %s (required >= %.2fx, baseline %s)" %
              (status, name, speedup, reference, required,
               "%.2fx" % expected if expected is not None else "n/a"))
        if speedup < required:
            failures.append(
                "%s speedup %.2fx below required %.2fx"
                % (name, speedup, required))

    for vec_name, interp_name, min_threads in GATED:
        if threads < min_threads:
            print("SKIP: %s vs %s needs >= %d hardware threads, host has %d"
                  % (vec_name, interp_name, min_threads, threads))
            continue
        if vec_name not in results or interp_name not in results:
            failures.append("missing benchmark results for %s / %s"
                            % (vec_name, interp_name))
            continue
        vec = results[vec_name]
        interp = results[interp_name]
        if vec.get("time_unit") != interp.get("time_unit"):
            failures.append("%s and %s use different time units"
                            % (vec_name, interp_name))
            continue
        check(vec_name, interp["real_time"] / vec["real_time"],
              "vs %s" % interp_name)
    for name, counter in COUNTER_GATED:
        bench = results.get(name)
        if bench is None:
            failures.append("missing benchmark results for %s" % name)
            continue
        message = bench.get("error_message", "")
        if bench.get("error_occurred") and message.startswith("skipped:"):
            print("SKIP: %s: %s" % (name, message))
            continue
        if bench.get("error_occurred") or counter not in bench:
            failures.append("%s has no %s counter (%s)"
                            % (name, counter, message or "no error"))
            continue
        check(name, bench[counter], "(counter %s)" % counter)

    if failures:
        for f in failures:
            print("FAIL: %s" % f)
        return 1
    print("perf regression gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
