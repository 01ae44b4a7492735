#!/usr/bin/env python3
"""Builds and runs the scalewall benchmark (perfbench) for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json, one of UNSTEADY_WORKLOADS below, or
"all" to run every one of them in turn.

Run from the repository root. The first run configures and builds the
benchmark under .bench_build/ (the scalewall libraries from src/ plus the
program in perfbench/src); later runs rebuild incrementally. The program's
output is passed through, and the last line printed is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Exits non-zero on a failed build, a failed or wrong query, or
output that does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULT_PREFIX = "PERFBENCH_RESULT "
RUN_TIMEOUT_S = 170

# Workloads the program implements but BENCHMARK.json leaves out, with why.
UNSTEADY_WORKLOADS = {
    "dashboard_socket": "real-socket dashboards (1 ProxyNode, 2 ServerNodes, "
                        "open loop at 100/s then a closed loop); left out of "
                        "BENCHMARK.json because on a shared 4-vCPU host its "
                        "p99 and throughput spread by more than any allowed "
                        "bound from run to run; its node layer is probed in "
                        "cached_ingest's traced run",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark_json(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def build(jobs=None):
    """Configures (once) and builds the program and the helper test."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("scalewall sources (src/) not found next to perfbench/")
    jobs = jobs or os.cpu_count() or 1
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs), "--target",
                    "perfbench", "perfbench_helpers_test"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.strip().split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def source_digest():
    """sha256 over the files the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_times():
    """Aggregate CPU jiffies from /proc/stat: (total, steal), or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        # user nice system idle iowait irq softirq steal (guest time is
        # already counted in user).
        return sum(fields[:8]), fields[7]
    except (OSError, ValueError, IndexError):
        return None


def parse_result(stdout):
    """Returns the program's result object (its PERFBENCH_RESULT line)."""
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX):])
    raise ValueError("program printed no %r line" % RESULT_PREFIX.strip())


def check_metrics(result, bench, traced):
    """Errors where the reported metrics differ from BENCHMARK.json.

    A traced run must report exactly the per_layer metrics, an untraced run
    exactly the end_to_end ones, each once, in BENCHMARK.json's units, as
    finite numbers.
    """
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if traced else "end_to_end"]}
    errors = []
    seen = set()
    for metric in result.get("metrics", []):
        name = metric.get("name")
        if name in seen:
            errors.append("metric %s reported twice" % name)
        seen.add(name)
        if name not in expected:
            errors.append("metric %s is not in BENCHMARK.json" % name)
            continue
        if metric.get("unit") != expected[name]:
            errors.append("metric %s has unit %r, BENCHMARK.json says %r"
                          % (name, metric.get("unit"), expected[name]))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or value != value or \
                value in (float("inf"), float("-inf")):
            errors.append("metric %s has no finite value" % name)
    for name in expected:
        if name not in seen:
            errors.append("metric %s is missing" % name)
    return errors


def contract_line(result, correct):
    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in result["metrics"]}
    return json.dumps({"correct": correct,
                       "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]),
                       "metrics": metrics})


def run_workload(binary, bench, workload, seed, seconds, trace):
    """Runs the program once; prints its output and the result line."""
    why = {w["name"]: w["why"] for w in bench["workloads"]}.get(
        workload, UNSTEADY_WORKLOADS.get(workload))
    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (workload, seed, seconds, trace))
    print("why: %s" % why)
    print("host: nproc=%d cpu=%r build=%s commit=%s sources=%s python=%s"
          % (os.cpu_count() or 0, cpu_model(), build_type(), git_commit(),
             source_digest(), platform.python_version()))
    sys.stdout.flush()

    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (workload, seed))]
    cpu_before = cpu_times()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: program did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    for line in stdout.splitlines():
        if not line.startswith(RESULT_PREFIX):
            print(line)
    cpu_after = cpu_times()
    if cpu_before and cpu_after and cpu_after[0] > cpu_before[0]:
        # CPU time the hypervisor gave to other guests: the main source of
        # run-to-run spread on a shared host.
        print("host: cpu steal during the run %.1f%% of CPU time"
              % (100.0 * (cpu_after[1] - cpu_before[1])
                 / (cpu_after[0] - cpu_before[0])))
    try:
        result = parse_result(stdout)
    except ValueError as e:
        log("perfbench: %s (exit code %d)" % (e, proc.returncode))
        return 3
    errors = check_metrics(result, bench, bool(trace))
    for error in errors:
        log("perfbench: %s" % error)
    if errors:
        return 3
    correct = (proc.returncode == 0 and result["failed"] == 0
               and result["wrong_rows"] == 0)
    print(contract_line(result, correct), flush=True)
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # A terminated run still stops (and waits for) the program.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        bench = load_benchmark_json()
        names = [w["name"] for w in bench["workloads"]]
        names += sorted(UNSTEADY_WORKLOADS)
        if args.workload != "all" and args.workload not in names:
            raise RuntimeError("unknown workload %r (BENCHMARK.json has %s)"
                               % (args.workload, ", ".join(names)))
        binary = build()
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError) as e:
        log("perfbench: cannot build or configure: %s" % e)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    return max(run_workload(binary, bench, w, args.seed, args.seconds,
                            args.trace) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
