#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload campaign_144h --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the DroidFuzz libraries plus the
perfbench binary into .bench_build/perfbench (Release); later calls only
re-run the incremental build. The binary's progress goes to stderr, and the
last stdout line is the result JSON: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end list,
with --trace 1 its per_layer list; spans of a traced run are written to
.bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources missing under {ROOT / 'src'}; cannot build")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return BINARY.is_file()


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(workload, seed, seconds, trace, tiny=False):
    """Runs one benchmark pass; returns the parsed result or None."""
    work = ROOT / ".bench_build" / "work"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work)]
    if trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench printed no result line")
        return None


def check_shape(result, spec, trace):
    """Returns a list of problems with the result's keys, names and units."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    want = expected_metrics(spec, trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name] != unit:
            problems.append(f"metric {name} unit {got[name]} != {unit}")
    for name in got.keys() - want.keys():
        problems.append(f"unexpected metric {name}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    return problems


def self_test(spec):
    """Tiny-budget pass over every workload in both modes."""
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            result = run_binary(w["name"], 1, 1, trace, tiny=True)
            label = f"{w['name']} trace={int(trace)}"
            if result is None:
                log(f"self-test {label}: no result")
                ok = False
                continue
            problems = check_shape(result, spec, trace)
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(
                    f"{result.get('failed')}/{result.get('attempted')} "
                    "operations failed")
            if trace and result["metrics"].get(
                    "oracle.mismatches", {}).get("value") != 0:
                problems.append("traced content disagrees with untraced")
            for p in problems:
                log(f"self-test {label}: {p}")
            ok = ok and not problems
            log(f"self-test {label}: {'ok' if not problems else 'FAILED'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log(f"{spec_path} missing")
        return 2
    spec = json.loads(spec_path.read_text())
    if not build():
        return 1
    if args.self_test:
        if not self_test(spec):
            return 1
        log("self-test ok")
        return 0

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"--workload must be one of {names}")
        return 2
    result = run_binary(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    if result is None:
        return 1
    problems = check_shape(result, spec, bool(args.trace))
    if problems:
        for p in problems:
            log(p)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
