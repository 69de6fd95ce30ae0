#!/usr/bin/env python3
"""Self-test of the cbvlink benchmark: exact counts repeat per seed.

    python3 cbvbench/selftest.py [workload ...]

Runs each workload's traced mode twice with the same seed and asserts that
the counts which depend only on the seeded inputs are identical: blocking
candidates and comparisons per query, the dedup ratio, LSH groups and the
largest bucket, Hamming comparisons, the service's comparisons per query
on serve_query, journal bytes per op on serve_churn, and the pair-set
digest of the link workloads.  Then it runs each workload once, untraced,
on the held-out seed.  Exit status 0 when every count repeats and every
run produced a result; each run's correctness is reported alongside.
"""

import json
import os
import subprocess
import sys

SEED = 3
HELD_OUT_SEED = 9001
SECONDS = "2"
WORKLOADS = ("link_pl", "link_ph", "serve_query", "serve_churn")
COMMON_COUNTS = (
    "blocking.candidates_per_query",
    "blocking.comparisons_per_query",
    "blocking.dedup_ratio",
    "lsh.groups",
    "lsh.max_bucket",
    "hamming.comparisons",
)
EXTRA_COUNTS = {
    "serve_query": ("service.comparisons_per_query",),
    "serve_churn": ("io.journal_bytes_per_op",),
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace):
    """Runs the benchmark; returns (result line, pair digest, exit code)."""
    command = [sys.executable, os.path.join(ROOT, "cbvbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    digest = None
    for line in lines:
        if line.strip().startswith("pair_digest:"):
            digest = line.split(":", 1)[1].strip()
    try:
        return json.loads(lines[-1]), digest, done.returncode
    except (IndexError, json.JSONDecodeError):
        return None, digest, done.returncode


def main():
    workloads = sys.argv[1:] or list(WORKLOADS)
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    ok = True
    for workload in workloads:
        first, first_digest, code1 = run(workload, SEED, 1)
        second, second_digest, code2 = run(workload, SEED, 1)
        if first is None or second is None:
            print(f"FAIL {workload}: no result (exit {code1}, {code2})")
            ok = False
            continue
        names = COMMON_COUNTS + EXTRA_COUNTS.get(workload, ())
        for name in names:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            same = a == b
            ok = ok and same
            print(f"{'ok  ' if same else 'FAIL'} {workload} {name}: "
                  f"{a!r} vs {b!r}")
        if workload.startswith("link_"):
            same = first_digest is not None and first_digest == second_digest
            ok = ok and same
            print(f"{'ok  ' if same else 'FAIL'} {workload} pair digest: "
                  f"{first_digest} vs {second_digest}")
        print(f"info {workload} seed {SEED}: correct "
              f"{first['correct']}, {second['correct']}")
        held, _, code = run(workload, HELD_OUT_SEED, 0)
        if held is None:
            print(f"FAIL {workload} held-out seed {HELD_OUT_SEED}: no result "
                  f"(exit {code})")
            ok = False
        else:
            print(f"info {workload} held-out seed {HELD_OUT_SEED}: correct "
                  f"{held['correct']}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
