#!/usr/bin/env python3
"""Entry point of the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake package compiling the library sources under src/)
into .bench_build/perfbench, runs the benchmark binary, and relays its
output: human-readable lines, then one JSON object as the last line.  With
--trace 1 the run also writes .bench_build/traces/<workload>.json (Chrome
trace events, loadable in Perfetto); it is checked here before the result is
printed.  Exits non-zero, without a result line, when the library sources
are missing, the build fails, the run fails or an answer is wrong.

--self-test runs every workload at a tiny size, traced and untraced, and
checks that each prints exactly the metrics BENCHMARK.json names, with their
units; it also checks that a tree holding only the benchmark fails without
printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "topk_perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Every workload the binary runs.  BENCHMARK.json gates a subset; the rest
# stay runnable by name (see README.md).
WORKLOADS = ("paper_sweep", "serve_rowwise", "serve_mixed")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "topk.hpp")):
        log(f"library sources not found under {os.path.join(ROOT, 'src')}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The last stdout line as a result object, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def trace_ok(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return bool(events) and all(
        e.get("ph") == "X" and "ts" in e and "dur" in e and "name" in e
        for e in events)


def trace_path(workload):
    return os.path.join(BUILD_ROOT, "traces", f"{workload}.json")


def run(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (exit code, stdout lines)."""
    out = trace_path(workload)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--trace-out", out]
    if tiny:
        args.append("--tiny")
    code, lines = run_binary(args)
    veto = None
    if code == 0 and parse_result(lines) is None:
        veto = "the run printed no result line"
    elif code == 0 and trace and not trace_ok(out):
        veto = f"trace file {out} is missing or not Chrome trace-event JSON"
    if veto:
        # A result the binary printed is withdrawn when a check here fails.
        log(veto)
        return 1, lines[:-1]
    return code, lines


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tables = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = [f"BENCHMARK.json workload {w['name']} is not one the binary runs"
                for w in spec["workloads"] if w["name"] not in WORKLOADS]
    for workload in WORKLOADS:
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            code, lines = run(workload, 1, 1, trace, tiny=True)
            result = parse_result(lines)
            if code != 0 or result is None:
                problems.append(f"{what}: exit {code}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{what}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            got = result["metrics"]
            want = tables[trace]
            if set(got) != set(want):
                problems.append(f"{what}: missing {sorted(set(want) - set(got))}"
                                f" extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append(f"{what}: {name} unit {m.get('unit')} "
                                    f"!= {unit}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{what}: {name} value {v!r}")
            print(f"self-test: {what}: {len(got)} metrics", flush=True)

    # A tree holding only the benchmark must fail without printing a result.
    bare = os.path.join(BUILD_ROOT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", spec["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode == 0 or parse_result(proc.stdout.splitlines()):
        problems.append("a tree without the library sources did not fail")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"self-test FAILED: {p}")
    if not problems:
        print("self-test: ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return self_test()
    code, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
