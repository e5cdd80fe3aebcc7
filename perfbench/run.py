#!/usr/bin/env python3
"""Builds the served-request benchmark from source and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload repeat_read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The build goes to .bench_build/perfbench (Release, tests/benches/examples
off) and is incremental. Build output goes to stderr; stdout carries only
the benchmark's own lines, the last being the result JSON. Traced runs
write their spans to .bench_build/spans/<workload>-seed<seed>.jsonl.
Exits non-zero without a result when the checkout has no fdrepair sources.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("repeat_read", "cold_marriage", "mutate_stream")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "service", "repair_service.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no fdrepair sources at %s (missing %s)" % (ROOT, needed))
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "served_bench", "-j4"],
        check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "served_bench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def smoke(binary):
    """Runs served_bench --smoke and checks every run's metrics, names and
    units against BENCHMARK.json: end_to_end untraced, per_layer traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    out = subprocess.run([binary, "--smoke"], stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out.stdout)
    lines = [json.loads(l) for l in out.stdout.splitlines() if l.startswith("{")]
    trace, runs, ok = None, 0, out.returncode == 0
    for line in lines[:-1]:
        if "fingerprint" in line:
            trace = line["fingerprint"]["trace"]
            continue
        runs += 1
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        if got != expected[trace]:
            print("perfbench: smoke metrics differ from BENCHMARK.json "
                  "(trace %d): %s" % (trace, sorted(set(got) ^ set(expected[trace]))),
                  file=sys.stderr)
            ok = False
    if runs != 6:
        print("perfbench: smoke printed %d runs, expected 6" % runs, file=sys.stderr)
        ok = False
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload, traced and not")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)

    if args.smoke:
        return smoke(binary)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", commit()]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
