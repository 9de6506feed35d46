#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pairs|serve|figures|verify \
        --seed N --seconds S --trace 0|1

Builds perfbench/bin/main.exe with dune into .bench_build/ (nothing is
written outside the checkout: the dune cache is off and temporary files
go under .bench_build/tmp), runs it, and passes its output through.
The last line of output is one JSON object; its metric names must be
exactly the end-to-end (--trace 0) or per-layer (--trace 1) names of
BENCHMARK.json, or the run fails.  A traced run writes its spans to
.bench_build/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "dune", "default", "perfbench", "bin", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["pairs", "serve", "figures", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail(f"{need} missing under {ROOT}: not a checkout of the "
                        "repository", 2)

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir",
             os.path.join(BUILD, "dune"), "--profile", "release",
             "./perfbench/bin/main.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}", 3)
    if build.returncode != 0:
        return fail("build failed", 3)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stderr.write(run.stdout)
        return fail("no result line", 5)
    want = expected_names(args.trace)
    if names != want:
        sys.stderr.write(run.stdout)
        return fail(f"metrics differ from BENCHMARK.json: missing "
                    f"{sorted(want - names)}, unexpected {sorted(names - want)}",
                    5)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
