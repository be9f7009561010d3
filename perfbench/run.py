#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload study|tick|serve --seed N \
        --seconds S --trace 0|1 [--smoke]

Builds the program and the perfbench binary from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload in a fresh per-run
work dir under .bench_tmp (caches, snapshots and deltas live there and
$REUSE_CACHE_DIR points at it; it is removed at exit), and prints the
binary's context line and, last, the result object with the metrics
BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
--trace 1). With --trace 1 the Chrome trace of the run is written to
.bench_out/.

Exits 0 when every correctness gate passed, 1 when a gate failed or the
binary did not produce a result, 2 when the program's sources are missing
or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the program's sources (src/) are not in this checkout")
        return None
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "tick", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale shapes (the smoke test)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2

    work_dir = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    if args.trace == "1":
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.trace.json")]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, REUSE_CACHE_DIR=work_dir)
    try:
        done = subprocess.run(command, cwd=work_dir, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        raw = json.loads(lines[-1])
        values = raw["values"]
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        # Layers a workload does not run read 0; every end-to-end metric
        # must have been measured.
        declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]] if args.trace == "0"
                               else values.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in declared}
    except (IndexError, KeyError, ValueError):
        log(f"no result from the binary (exit {done.returncode})")
        return 1
    # A value the binary measured but BENCHMARK.json does not declare would
    # silently drop out of the result (and out of the layer accounting).
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        log(f"measured but not declared in BENCHMARK.json: {undeclared}")
        return 1
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
