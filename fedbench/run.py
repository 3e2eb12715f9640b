#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 fedbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The framework and the benchmark are built
from source into .bench_build/ (CMake, RelWithDebInfo like the repository's
default build); build output goes to stderr. The last line of stdout is the
benchmark's JSON result; BENCHMARK.json names the metrics it must carry.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_LIMIT_S = 170


def fail(msg):
    print(f"fedbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no framework sources (src/) beside the benchmark; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "fedbench", "fedbench_selftest"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def commit_id():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    build()
    selftest = subprocess.run([os.path.join(BUILD, "fedbench_selftest")],
                              capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("harness self-test failed")

    cmd = [os.path.join(BUILD, "fedbench"), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--commit", commit_id()]
    start = time.monotonic()
    try:
        run = subprocess.run(cmd, cwd=BUILD, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_LIMIT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("no JSON result on the last line")
    want = expected_metrics(a.trace)
    got = set(result["metrics"])
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"extra {sorted(got - want)}")
    print("\n".join(lines[:-1]))
    print(f"# wall {time.monotonic() - start:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
