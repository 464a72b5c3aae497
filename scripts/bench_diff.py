#!/usr/bin/env python3
"""Compare two BENCH_*.json exports (or directories of them) for
performance regressions and content drift.

The determinism contract, defined once in scripts/check_bench_json.py and
imported from there (is_timing_key, strip_timing), splits every bench
document into two halves:

  content  - everything outside "timing"/"secs"/"wall_seconds"/"ts"/"dur"
             keys and *_ns/*_per_sec suffixes, less the toolchain fields
             of the "build" block (compiler, compiler_version, build_type,
             flags: how the binary was built, not what the campaign did;
             build.schema stays in). Identically-seeded runs must agree
             byte-for-byte here; any difference is reported as CONTENT
             drift (and fails the diff unless --allow-content).

  timing   - wall-dependent leaves. These are compared direction-aware:
             *_per_sec, *_per_hour, *speedup* and *uplift* leaves are
             higher-is-better (the snapshot layer's restore_speedup,
             execs_per_sec_uplift_percent, and the service scheduler's
             jobs_per_hour land here), while duration leaves
             (wall_seconds, secs, *_ns, *_ms, *_us, ts, dur — including the
             snapshot capture_us / restore_us / reestablish_us probe) are
             lower-is-better. A leaf that moves in the bad direction by
             more than --threshold percent is a REGRESSION.

With --timing-warn-only, timing regressions are demoted to WARN lines and
never fail the diff; only content drift (and missing timing leaves) still
fails. This is the CI soft-gate mode: shared runners make wall-clock
numbers too noisy to block a merge on, but the content halves of two
identically-seeded runs must still agree byte-for-byte.

Corpus-size leaves ("corpus" series arrays and the before/after counts of
"distill" stats objects) get direction-aware warn-only tracking on top:
distillation makes lower better, so growth beyond --threshold prints a
WARN line and a shrink prints as an improvement, but neither ever fails
the diff — corpus size is a quality signal, not a contract.

Usage:
  bench_diff.py BASELINE CANDIDATE [--threshold PCT] [--allow-content]
      BASELINE/CANDIDATE are two files, or two directories that are
      matched by BENCH_*.json basename.
  bench_diff.py --self-test

Exit status: 0 clean, 1 regression (or content drift), 2 usage error.
"""

import argparse
import json
import os
import sys

from check_bench_json import is_timing_key, strip_timing

# Leaf-name patterns deciding which direction is an improvement.
HIGHER_BETTER_SUFFIXES = ("_per_sec", "_per_hour")
HIGHER_BETTER_SUBSTRINGS = ("speedup", "uplift")
LOWER_BETTER_KEYS = {"wall_seconds", "secs", "ts", "dur"}
LOWER_BETTER_SUFFIXES = ("_ns", "_ms", "_us")


def is_corpus_leaf(path):
    """Corpus-size leaves tracked warn-only, lower-is-better: "corpus"
    series arrays anywhere, plus before/after counts directly inside a
    "distill" stats object."""
    leaf = leaf_name(path)
    if leaf == "corpus":
        return True
    if leaf in ("before", "after"):
        parts = path.rsplit(".", 2)
        return len(parts) >= 2 and leaf_name(parts[-2]) == "distill"
    return False


def direction(leaf):
    """+1 higher-is-better, -1 lower-is-better, 0 informational only."""
    if leaf.endswith(HIGHER_BETTER_SUFFIXES):
        return 1
    if any(s in leaf for s in HIGHER_BETTER_SUBSTRINGS):
        return 1
    if leaf in LOWER_BETTER_KEYS or leaf.endswith(LOWER_BETTER_SUFFIXES):
        return -1
    return 0


def _flatten(doc, path, in_timing, out):
    """Numeric leaves as {dotted.path: (value, is_timing_leaf)}."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            sub = f"{path}.{key}" if path else key
            _flatten(val, sub, in_timing or is_timing_key(key), out)
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            _flatten(val, f"{path}[{i}]", in_timing, out)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[path] = (float(doc), in_timing)


def numeric_leaves(doc):
    out = {}
    _flatten(doc, "", False, out)
    return out


# Fields of the top-level "build" block that describe the toolchain, not
# the campaign: the committed seeds say Release while a default configure
# builds RelWithDebInfo, and a compiler upgrade changes no content.
TOOLCHAIN_KEYS = ("compiler", "compiler_version", "build_type", "flags")


def content_of(doc):
    """The content half of a bench document: timing stripped and the
    toolchain fields of its build block dropped."""
    out = strip_timing(doc)
    if isinstance(out, dict) and isinstance(out.get("build"), dict):
        out["build"] = {k: v for k, v in out["build"].items()
                        if k not in TOOLCHAIN_KEYS}
    return out


def leaf_name(path):
    """Last key segment of a dotted path, with array indices dropped."""
    last = path.rsplit(".", 1)[-1]
    return last.split("[", 1)[0]


class Report:
    def __init__(self):
        self.regressions = []   # (path, base, cand, pct)
        self.improvements = []  # (path, base, cand, pct)
        self.warnings = []      # (path, base, cand, pct), never fail
        self.content = []       # human-readable drift lines

    def clean(self, allow_content):
        return not self.regressions and (allow_content or not self.content)


def diff_docs(base, cand, threshold_pct, report, label=""):
    tag = f"{label}: " if label else ""

    if content_of(base) != content_of(cand):
        report.content.append(
            f"{tag}content differs after stripping timing and toolchain "
            f"fields (identically-seeded runs must agree)")

    base_leaves = numeric_leaves(base)
    cand_leaves = numeric_leaves(cand)
    for path in sorted(base_leaves.keys() & cand_leaves.keys()):
        bval, btiming = base_leaves[path]
        cval, _ = cand_leaves[path]
        if not btiming:
            # Content equality is already enforced above; corpus sizes get
            # an extra warn-only direction check (growth is suspicious once
            # distillation is on, but not automatically wrong).
            if is_corpus_leaf(path) and bval != 0:
                pct = (cval - bval) / abs(bval) * 100.0
                if pct > threshold_pct:
                    report.warnings.append((f"{tag}{path}", bval, cval, pct))
                elif -pct > threshold_pct:
                    report.improvements.append(
                        (f"{tag}{path}", bval, cval, pct))
            continue
        sign = direction(leaf_name(path))
        if sign == 0 or bval == 0:
            continue
        pct = (cval - bval) / abs(bval) * 100.0
        if sign * pct < -threshold_pct:
            report.regressions.append((f"{tag}{path}", bval, cval, pct))
        elif sign * pct > threshold_pct:
            report.improvements.append((f"{tag}{path}", bval, cval, pct))

    only_base = base_leaves.keys() - cand_leaves.keys()
    only_cand = cand_leaves.keys() - base_leaves.keys()
    for path in sorted(only_base):
        if base_leaves[path][1]:
            report.content.append(f"{tag}timing leaf only in baseline: "
                                  f"{path}")
    for path in sorted(only_cand):
        if cand_leaves[path][1]:
            report.content.append(f"{tag}timing leaf only in candidate: "
                                  f"{path}")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def pair_paths(a, b):
    """(label, base_path, cand_path) pairs for files or directories."""
    if os.path.isdir(a) != os.path.isdir(b):
        raise ValueError("BASELINE and CANDIDATE must both be files or "
                         "both be directories")
    if not os.path.isdir(a):
        return [(os.path.basename(a), a, b)]
    names_a = {n for n in os.listdir(a)
               if n.startswith("BENCH_") and n.endswith(".json")}
    names_b = {n for n in os.listdir(b)
               if n.startswith("BENCH_") and n.endswith(".json")}
    common = sorted(names_a & names_b)
    if not common:
        raise ValueError("no common BENCH_*.json files to compare")
    pairs = [(n, os.path.join(a, n), os.path.join(b, n)) for n in common]
    for n in sorted(names_a ^ names_b):
        side = "baseline" if n in names_a else "candidate"
        print(f"note: {n} only present in {side}; skipped")
    return pairs


def demote_timing_regressions(report):
    """--timing-warn-only: timing regressions become warn-only lines."""
    demoted = report.regressions
    report.regressions = []
    return demoted


def run_diff(baseline, candidate, threshold_pct, allow_content,
             timing_warn_only=False):
    try:
        pairs = pair_paths(baseline, candidate)
    except ValueError as e:
        print(f"error: {e}")
        return 2
    report = Report()
    for label, pa, pb in pairs:
        try:
            diff_docs(load(pa), load(pb), threshold_pct, report, label)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {label}: {e}")
            return 2

    if timing_warn_only:
        for path, bval, cval, pct in demote_timing_regressions(report):
            print(f"WARN       {path}: timing regressed {bval:g} -> "
                  f"{cval:g} ({pct:+.1f}%) [--timing-warn-only]")
    for path, bval, cval, pct in report.regressions:
        print(f"REGRESSION {path}: {bval:g} -> {cval:g} ({pct:+.1f}%)")
    for path, bval, cval, pct in report.improvements:
        print(f"improved   {path}: {bval:g} -> {cval:g} ({pct:+.1f}%)")
    for path, bval, cval, pct in report.warnings:
        print(f"WARN       {path}: corpus grew {bval:g} -> {cval:g} "
              f"({pct:+.1f}%)")
    for line in report.content:
        print(f"CONTENT    {line}")
    if report.clean(allow_content):
        print(f"OK: no timing regressions beyond {threshold_pct:g}% "
              f"across {len(pairs)} file(s)")
        return 0
    return 1


# --- self-test ---------------------------------------------------------------

def _doc(execs_per_sec=1000.0, wall=2.0, coverage=40, corpus=20,
         distilled=10):
    return {
        "bench": "fig4_coverage", "seed": 1, "reps": 1,
        "series": [{
            "device": "A1", "config": "droidfuzz", "rep": 0,
            "executions": [0, 100], "kernel_coverage": [0, coverage],
            "corpus": [0, corpus],
            "distill": {"before": corpus, "after": distilled,
                        "verified": True, "dry_run": True},
            "timing": {"secs": [0.0, wall]},
        }],
        "fleet_parallel": {
            "configs": [{"workers": 1,
                         "timing": {"wall_seconds": wall,
                                    "execs_per_sec": execs_per_sec,
                                    "speedup_vs_sequential": 1.0}}],
        },
        "timing": {"wall_seconds": wall},
    }


def self_test():
    failures = 0

    def case(name, ok):
        nonlocal failures
        if not ok:
            failures += 1
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")

    r = Report()
    diff_docs(_doc(), _doc(), 5.0, r)
    case("identical docs are clean", r.clean(allow_content=False))

    r = Report()
    diff_docs(_doc(execs_per_sec=1000.0), _doc(execs_per_sec=900.0), 5.0, r)
    case("throughput drop beyond threshold regresses",
         len(r.regressions) == 1 and not r.content)

    r = Report()
    diff_docs(_doc(execs_per_sec=1000.0), _doc(execs_per_sec=980.0), 5.0, r)
    case("throughput drop inside threshold passes",
         r.clean(allow_content=False))

    r = Report()
    diff_docs(_doc(wall=2.0), _doc(wall=3.0), 5.0, r)
    case("wall-clock growth regresses (lower is better)",
         any("wall_seconds" in p for p, *_ in r.regressions))

    r = Report()
    diff_docs(_doc(wall=3.0), _doc(wall=2.0), 5.0, r)
    case("wall-clock shrink is an improvement, not a regression",
         not r.regressions and r.improvements)

    r = Report()
    diff_docs(_doc(execs_per_sec=1000.0), _doc(execs_per_sec=1200.0), 5.0, r)
    case("throughput gain is an improvement",
         not r.regressions and r.improvements)

    r = Report()
    diff_docs(_doc(coverage=40), _doc(coverage=41), 5.0, r)
    case("content drift is flagged", len(r.content) == 1)
    case("content drift fails by default", not r.clean(allow_content=False))
    case("--allow-content downgrades drift", r.clean(allow_content=True))

    r = Report()
    a, b = _doc(), _doc()
    del b["fleet_parallel"]["configs"][0]["timing"]["execs_per_sec"]
    diff_docs(a, b, 5.0, r)
    case("missing timing leaf is reported",
         any("only in baseline" in line for line in r.content))

    r = Report()
    diff_docs(_doc(corpus=20), _doc(corpus=30), 5.0, r)
    case("corpus growth warns without failing",  # corpus[] + distill.before
         len(r.warnings) == 2 and not r.regressions
         and r.clean(allow_content=True))

    r = Report()
    diff_docs(_doc(distilled=10), _doc(distilled=6), 5.0, r)
    case("distilled corpus shrink is an improvement",
         not r.warnings and not r.regressions
         and any("distill.after" in p for p, *_ in r.improvements))

    r = Report()
    diff_docs(_doc(distilled=10), _doc(distilled=14), 5.0, r)
    case("distill.after growth warns",
         any("distill.after" in p for p, *_ in r.warnings))

    case("corpus leaf: series corpus arrays",
         is_corpus_leaf("series[0].corpus[1]"))
    case("corpus leaf: distill before/after only under distill",
         is_corpus_leaf("series[0].distill.after")
         and not is_corpus_leaf("fault_recovery.before"))

    case("direction: *_per_sec is higher-better",
         direction("execs_per_sec") == 1)
    case("direction: *_per_hour is higher-better",
         direction("jobs_per_hour") == 1)
    case("direction: speedup is higher-better",
         direction("speedup_vs_sequential") == 1)
    case("direction: snapshot restore_speedup is higher-better",
         direction("restore_speedup") == 1)
    case("direction: snapshot uplift is higher-better",
         direction("execs_per_sec_uplift_percent") == 1)
    case("direction: snapshot latencies are lower-better",
         direction("restore_us") == -1 and direction("reestablish_us") == -1)
    case("direction: *_ms is lower-better", direction("busy_imbalance_ms")
         == -1)
    case("direction: plain counters are informational",
         direction("executions") == 0)

    r = Report()
    diff_docs(_doc(execs_per_sec=1000.0), _doc(execs_per_sec=900.0), 5.0, r)
    demoted = demote_timing_regressions(r)
    case("--timing-warn-only demotes timing regressions",
         len(demoted) == 1 and r.clean(allow_content=False))

    r = Report()
    diff_docs(_doc(coverage=40), _doc(coverage=41), 5.0, r)
    demote_timing_regressions(r)
    case("--timing-warn-only still fails on content drift",
         not r.clean(allow_content=False))

    r = Report()
    a = {"bench": "service", "service": {
        "timing": {"jobs_per_hour": 1000.0}}}
    b = {"bench": "service", "service": {
        "timing": {"jobs_per_hour": 800.0}}}
    diff_docs(a, b, 5.0, r)
    case("jobs_per_hour drop beyond threshold regresses",
         any("jobs_per_hour" in p for p, *_ in r.regressions))

    r = Report()
    a, b = _doc(), _doc()
    a["snapshot"] = {"captures": 5, "off_deterministic": True,
                     "timing": {"on_execs_per_sec": 70000.0,
                                "execs_per_sec_uplift_percent": 4.0}}
    b["snapshot"] = {"captures": 5, "off_deterministic": True,
                     "timing": {"on_execs_per_sec": 70000.0,
                                "execs_per_sec_uplift_percent": 2.0}}
    diff_docs(a, b, 5.0, r)
    case("snapshot uplift drop beyond threshold regresses",
         any("uplift" in p for p, *_ in r.regressions) and not r.content)

    build = {"compiler": "gcc", "compiler_version": "12.2.0",
             "build_type": "Release", "sanitizer": "", "flags": "",
             "cxx_standard": 202002, "assertions": False,
             "schema": {"checkpoint": 4, "analytics": 2}}
    r = Report()
    a, b = _doc(), _doc()
    a["build"] = build
    b["build"] = dict(build, compiler="clang", compiler_version="16.0.6",
                      build_type="RelWithDebInfo", flags="-O2 -g")
    diff_docs(a, b, 5.0, r)
    case("toolchain-only build difference is not content drift",
         r.clean(allow_content=False) and not r.content)

    r = Report()
    b["build"] = dict(build, schema={"checkpoint": 5, "analytics": 2})
    diff_docs(a, b, 5.0, r)
    case("build.schema difference is content drift",
         len(r.content) == 1 and not r.clean(allow_content=False))

    print(f"self-test: {'PASS' if failures == 0 else 'FAIL'}")
    return failures == 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json exports for regressions.")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--threshold", type=float, default=10.0,
                        metavar="PCT",
                        help="allowed timing movement in percent "
                             "(default 10)")
    parser.add_argument("--allow-content", action="store_true",
                        help="report content drift without failing "
                             "(for runs with different seeds/budgets)")
    parser.add_argument("--timing-warn-only", action="store_true",
                        help="demote timing regressions to warnings; only "
                             "content drift fails (CI soft-gate mode for "
                             "noisy shared runners)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return 0 if self_test() else 1
    if args.baseline is None or args.candidate is None:
        parser.print_usage()
        return 2
    if args.threshold < 0:
        print("error: --threshold must be >= 0")
        return 2
    return run_diff(args.baseline, args.candidate, args.threshold,
                    args.allow_content, args.timing_warn_only)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
