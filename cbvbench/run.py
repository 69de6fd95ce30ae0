#!/usr/bin/env python3
"""Builds and runs one workload of the cbvlink benchmark.

    python3 cbvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
cbvbench/ (which compiles the library from src/) into .bench_build/; later
calls rebuild incrementally.  The run's report goes to stdout: provenance,
every correctness check, and every metric with its unit and sample count.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Exit status 0 means every check passed; 1 means a
check failed, the build failed or the run produced no result; 2 means the
sources are missing or the arguments are wrong.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

WORKLOADS = ("link_pl", "link_ph", "serve_query", "serve_churn")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"cbvbench: {message}", file=sys.stderr, flush=True)


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return "git:" + result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "cbvbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "cbvbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "--target", "cbvbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def declared_metrics(root):
    """Metric names BENCHMARK.json promises, if the file is present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def report(result, table_names):
    print("provenance:")
    for key, value in result["provenance"].items():
        print(f"  {key}: {value}")
    print("checks:")
    for check in result["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"  [{status}] {check['name']}{detail}")
    print(f"ops: attempted {result['attempted']}, failed {result['failed']}")
    for table in table_names:
        print(f"{table}:")
        for name, metric in result[table].items():
            value = metric["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:34s} {shown:>14s} {metric['unit']:<6s} "
                  f"(n={metric['samples']})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no cbvlink sources under {root}/src; run from a full checkout")
        return 2
    bench_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(bench_dir, "cbvbench")
    work_dir = os.path.join(bench_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    if not build(root, build_dir):
        log("build failed")
        return 1

    command = [os.path.join(build_dir, "cbvbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--source-id", source_id(root)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result (exit status {run.returncode})")
        return 1

    table = "per_layer" if args.trace else "end_to_end"
    metrics = result[table]
    correct = bool(result["correct"]) and run.returncode in (0, 1)
    declared = declared_metrics(root)
    if declared is not None:
        # The result line carries exactly the metrics BENCHMARK.json
        # declares; the report above it shows every measured one.
        wanted = declared[1] if args.trace else declared[0]
        missing = [name for name in wanted if name not in metrics]
        if missing:
            log(f"metrics missing from the result: {missing}")
            correct = False
        metrics = {name: metrics[name] for name in wanted if name in metrics}
    for name, metric in metrics.items():
        if metric["value"] is None or not math.isfinite(metric["value"]):
            log(f"metric {name} is not a number")
            correct = False

    report(result, ["end_to_end", "detail"] if not args.trace
           else ["per_layer", "detail"])
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
