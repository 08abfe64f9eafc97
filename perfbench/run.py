#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. It builds perfbench/wgbench (the wg_*
libraries from src/ plus the benchmark program) under .bench_build/, sets
the workload up from the seed SETUP_REPS times with `wgbench prepare`
(setup_s takes the median), measures it with `wgbench run`, and prints as
its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json, with
--trace 1 its per_layer ones. The line before it records the
provenance: commit or source digest, nproc, thread counts, seed, sample
counts and stage times. Build output and rung summaries go to stderr. A
failed check still prints the result line, then exits with status 1.
Everything the run writes lives under .bench_build/ and the run's own
directory there is removed at exit.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPS = 3
# Set-up plus measurement must end within this; the build before it is not
# counted (the first build in a fresh tree takes minutes).
DEADLINE_S = 170

class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds wgbench from this tree's sources; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources (src/) next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1), "--target", "wgbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "wgbench")


def source_identity():
    """The commit when this is a git checkout, plus a digest of the sources
    the benchmark compiles, which identifies the code either way."""
    commit = None
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()


def last_json_line(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("wgbench printed no result")
    return json.loads(lines[-1])


def call(args, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}")
    return last_json_line(proc.stdout)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # BENCHMARK.json's workloads, or another one wgbench defines.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not re.fullmatch(r"[A-Za-z0-9_-]+", args.workload):
        parser.error("--workload must be a plain name")

    wgbench = build()
    commit, digest = source_identity()
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(ROOT, ".bench_build", "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", run_dir]
    try:
        prepare_s = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            call([wgbench, "prepare"] + common, deadline)
            prepare_s.append(time.perf_counter() - t0)
        result = call([wgbench, "run"] + common +
                      ["--seconds", repr(args.seconds),
                       "--trace", str(args.trace)], deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = dict(result["metrics"])
    if args.trace == 0:
        measured["setup_s"] = statistics.median(prepare_s) + result["setup_s"]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = [name for name in units if name not in measured]
    if missing:
        raise BenchError(f"wgbench did not measure {', '.join(missing)}")
    if not result["correct"]:
        log(f"incorrect: {result.get('error', '')}")

    provenance = {
        "commit": commit,
        "source_sha256": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "prepare_s": prepare_s,
        "run": {key: result[key] for key in result
                if key not in ("metrics", "correct", "error")},
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
