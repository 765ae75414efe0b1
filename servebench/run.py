#!/usr/bin/env python3
"""Builds and runs the serving benchmark (serve_bench) from this checkout.

    python3 servebench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
tickc libraries and serve_bench under .bench_build/servebench; later runs
rebuild only what changed. The benchmark's JSON result is the last line of
standard output. Build logs go to standard error. Exits non-zero without a
result when the sources are missing or the build or run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hot", "churn", "restart", "tier_ramp")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("tickc sources (src/) not found next to the benchmark")
    build_dir = os.path.join(root, ".bench_build", "servebench")

    # The library reads TICKC_* knobs from the environment; pin the
    # configuration the streams define. Compiler temporaries stay in the
    # build tree.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TICKC_")}
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    def step(cmd):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail(f"command failed ({r.returncode}): {' '.join(cmd)}")

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", bench_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", build_dir, "--target", "serve_bench",
          "-j", str(min(4, os.cpu_count() or 1))])

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        r = subprocess.run(
            [os.path.join(build_dir, "serve_bench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", work],
            stdout=subprocess.PIPE, stderr=sys.stderr, env=env, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"serve_bench exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        fail(f"serve_bench exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("serve_bench printed no result")
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
