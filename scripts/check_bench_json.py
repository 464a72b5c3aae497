#!/usr/bin/env python3
"""Validate DroidFuzz telemetry JSON and compare runs for determinism.

Seven documents, told apart by a top-level key: BENCH_*.json ("bench"),
Chrome traces from --trace-out ("traceEvents"), crash_<hash>.json
provenance reports ("crash"), --stats-json exports ("campaign"), and the
--json reports of df_lint ("lint"), df_explain ("report") and df_distill
("distill"). Optional sections are validated whenever present.

Usage:
  check_bench_json.py FILE...            validate each document
  check_bench_json.py --compare A B      validate, then require A == B after
                                         stripping wall-clock fields
  check_bench_json.py --self-test        run the built-in unit checks

How the checker is built: every document and section shape is written
once, as a literal, in the SHAPES section below, and walk() applies it.
The combinators are obj({...}) for an object, arr(item) for an array,
pick(...) for a shape chosen by the key an object carries, and scalar
kinds (NAT, POS, STR, TEXT, BOOL, TRUE, NUM, HEX16, enum(...)). An
object is open (other members are allowed) unless closed=True, which
allows no other members but timing keys: a section whose wall-clock must
live under "timing". A member key ending in "?" is optional.

  - A new field is one line in its shape: "seeds": NAT.
  - A new invariant that relates fields is one rule, usually
    holds(test, "what must hold"), in the rules=[...] of the smallest
    shape holding every field it reads. A rule is any function of
    (value, path) that raises CheckError; it runs after that shape's
    members have passed, so it may rely on their kinds.

Every error names the dotted JSON path of the offending value
("series[0].analytics.operators[3].accepts must be a non-negative int").

Determinism contract (DESIGN.md "Observability"), defined here once and
imported by bench_diff.py: everything wall-dependent lives under the
TIMING_KEYS ("ts"/"dur" being the Chrome trace format's) or keys ending
in a TIMING_SUFFIX. Stripping those keys must make two identically-seeded
runs byte-identical. A counter/gauge whose *name* ends in a timing suffix
carries a wall-dependent value, so it serializes under "value_ns" or
"value_per_sec" instead of "value", as the checker enforces.
"""

import json
import sys
from functools import reduce
from operator import getitem
from typing import Callable, NamedTuple

TIMING_KEYS = {"timing", "wall_seconds", "secs", "ts", "dur"}
TIMING_SUFFIXES = ("_ns", "_per_sec")


def is_timing_key(key):
    return key in TIMING_KEYS or key.endswith(TIMING_SUFFIXES)


def strip_timing(doc):
    """Recursively drop wall-clock fields; returns a new structure."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items()
                if not is_timing_key(k)}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# --- combinators and the walker ----------------------------------------------

class Kind(NamedTuple):
    """A scalar value for which test(value) holds."""
    what: str
    test: Callable


class Obj(NamedTuple):
    fields: tuple   # (name, required, shape) per declared member
    extra: object   # other members: any value, timing keys only, or a shape
    rules: tuple


class Arr(NamedTuple):
    item: object
    nonempty: bool = False
    rules: tuple = ()


class Pick(NamedTuple):
    """The shape of the first case whose key the object carries, else the
    default (None: the value must carry one of the keys)."""
    cases: tuple
    default: object


def number(what, ok=lambda v: True):
    return Kind(what, lambda v: isinstance(v, (int, float)) and ok(v))


def enum(*choices):
    what = f"one of {choices}" if len(choices) > 1 else repr(choices[0])
    return Kind(what, lambda v: v in choices)


# The int kinds accept bools, as isinstance(True, int) does.
ANY = Kind("anything", lambda v: True)
INT = Kind("an int", lambda v: isinstance(v, int))
NAT = Kind("a non-negative int", lambda v: isinstance(v, int) and v >= 0)
POS = Kind("a positive int", lambda v: isinstance(v, int) and v > 0)
STR = Kind("a non-empty string", lambda v: isinstance(v, str) and v != "")
TEXT = Kind("a string", lambda v: isinstance(v, str))
BOOL = Kind("a bool", lambda v: isinstance(v, bool))
TRUE = Kind("true", lambda v: v is True)
NUM = number("a number")
NONNEG_NUM = number("a non-negative number", lambda v: v >= 0)
POS_NUM = number("a positive number", lambda v: v > 0)
FRACTION = number("a number in [0, 1]", lambda v: 0 <= v <= 1)
HEX16 = Kind("16 lowercase hex digits",
             lambda v: isinstance(v, str) and len(v) == 16
             and all(c in "0123456789abcdef" for c in v))
TIMING_ONLY = object()  # Obj.extra of a closed object


def obj(fields, closed=False, values=ANY, rules=()):
    """`fields` maps member keys to shapes ("key?": optional); any other
    member must match `values`, or be a timing key when closed."""
    return Obj(tuple((key.rstrip("?"), not key.endswith("?"), shape)
                     for key, shape in fields.items()),
               TIMING_ONLY if closed else values, rules)


arr = Arr


def pick(*cases, default=None):
    return Pick(cases, default)


def many(shape, *keys):
    """Members `keys` all of one shape, for splicing into obj({...})."""
    return dict.fromkeys(keys, shape)


def join(path, key):
    return f"{path}.{key}" if path else key


def fail(path, what):
    raise CheckError(f"{path or 'document'} {what}")


def walk(shape, value, path=""):
    """Checks `value` against `shape`, then the shape's rules. Messages are
    built only on failure: a trace or stats export holds ~10^6 values."""
    if isinstance(shape, Kind):
        if not shape.test(value):
            fail(path, f"must be {shape.what}")
        return
    if isinstance(shape, Arr):
        if not (isinstance(value, list) and (value or not shape.nonempty)):
            fail(path, f"must be {'a non-empty' if shape.nonempty else 'an'} "
                       f"array")
        leaf = isinstance(shape.item, Kind)
        for i, item in enumerate(value):
            if not leaf or not shape.item.test(item):  # paths on failure only
                walk(shape.item, item, f"{path}[{i}]")
    elif isinstance(shape, Obj):
        if not isinstance(value, dict):
            fail(path, "must be an object")
        for name, required, sub in shape.fields:
            if name in value:
                if not isinstance(sub, Kind) or not sub.test(value[name]):
                    walk(sub, value[name], join(path, name))
            elif required:
                fail(join(path, name), "is required")
        if shape.extra is not ANY:
            names = {name for name, _, _ in shape.fields}
            for key, item in value.items():
                if key in names:
                    continue
                if shape.extra is not TIMING_ONLY:
                    walk(shape.extra, item, join(path, key))
                elif not is_timing_key(key):
                    fail(join(path, key), "is wall-dependent: it must live "
                                          "under 'timing'")
    else:
        chosen = next((s for key, s in shape.cases
                       if isinstance(value, dict) and key in value),
                      shape.default)
        if chosen is None:
            fail(path, "must carry one of the keys "
                       f"{', '.join(repr(key) for key, _ in shape.cases)}")
        return walk(chosen, value, path)
    for rule in shape.rules:
        rule(value, path)


# --- rules -------------------------------------------------------------------

def holds(test, what):
    """A rule: test(value) must hold; `what` states the invariant."""
    def rule(value, path):
        require(test(value), f"{path or 'document'}: {what}")
    return rule


def increasing(*keys, strict=False):
    """Array of objects: the member at `keys` never decreases from one item
    to the next; with strict, it always increases."""
    def rule(items, path):
        for i in range(1, len(items)):
            a, b = (reduce(getitem, keys, item) for item in items[i - 1:i + 1])
            require(b > a if strict else b >= a,
                    f"{path}[{i}].{'.'.join(keys)} must be "
                    f"{'strictly increasing' if strict else 'non-decreasing'}")
    return rule


def sorted_arrays(*keys):
    return holds(lambda o: all(b >= a for key in keys
                               for a, b in zip(o[key], o[key][1:])),
                 f"arrays {', '.join(keys)} must be non-decreasing")


def same_length(*keys):
    return holds(lambda o: len({len(o[key]) for key in keys}) == 1,
                 f"arrays {', '.join(keys)} must share one length")


# --- SHAPES: analytics, lineage, state coverage ------------------------------

# ProgramOrigin wire names in enum order (obs/analytics.h); the exported
# operator table must carry exactly these rows, in this order.
ORIGINS = ("generate", "mutate_arg", "mutate_insert", "mutate_remove",
           "mutate_duplicate", "mutate_splice", "mutate_rewire",
           "plan_injected", "minimized", "replay", "snapshot_fork")
FRONTIER_CLASSES = ("unreachable-from-frontier", "planned-but-failed",
                    "never-attempted")
# v2 added the snapshot_fork operator row (DESIGN.md §13).
ANALYTICS_SCHEMA_VERSION = 2
SERIES_POINT_FIELDS = ("executions", "kernel_coverage", "total_coverage",
                       "corpus_size", "unique_bugs", "states_visited")

# Per-driver state-machine coverage matrices (DriverStateCoverage).
STATE_COVERAGE = arr(obj({
    "driver": STR, "states": arr(STR, nonempty=True), "current": STR,
    "visits": arr(NAT), "matrix": arr(arr(NAT)),
    "states_visited": NAT, "transitions_observed": NAT,
}, rules=[
    holds(lambda c: c["current"] in c["states"],
          "current must name one of the states"),
    holds(lambda c: len(c["visits"]) == len(c["states"]),
          "visits must have one entry per state"),
    holds(lambda c: len(c["matrix"]) == len(c["states"])
          and all(len(row) == len(c["states"]) for row in c["matrix"]),
          "matrix must be states x states"),
    holds(lambda c: c["states_visited"] == sum(v > 0 for v in c["visits"]),
          "states_visited must equal the number of states with visits > 0"),
    holds(lambda c: c["transitions_observed"]
          == sum(v > 0 for row in c["matrix"] for v in row),
          "transitions_observed must equal the number of non-zero matrix "
          "cells"),
]), nonempty=True)


def frontier_class(s):
    """A class consistent with the state's plan-attempt counters."""
    attempts = (s["plans_injected"] + s["materialize_failed"]
                + s["executed_no_visit"])
    if s["class"] == "never-attempted":
        return attempts == 0
    if s["class"] == "planned-but-failed":
        return attempts > 0
    return s["plan_length"] == 0  # unreachable: no plan exists


LINEAGE_LINK = obj({"hash": HEX16, "origin": enum(*ORIGINS),
                    "exec_index": NAT, "depth": NAT})
# A derivation chain, root first.
LINEAGE_CHAIN = arr(LINEAGE_LINK, rules=[increasing("depth", strict=True)])

# One obs::AnalyticsSnapshot: per-operator yield table, corpus lineage
# digest, coverage-frontier classification and a downsampled series.
ANALYTICS = obj({
    "schema_version": enum(ANALYTICS_SCHEMA_VERSION),
    "operators": arr(obj({
        "origin": enum(*ORIGINS),
        **many(NAT, "attempts", "total_calls", "accepts", "new_features",
               "new_states", "bugs"),
        "mean_cost": NONNEG_NUM,
    }, rules=[
        holds(lambda r: r["accepts"] <= r["attempts"],
              "accepts cannot exceed attempts"),
        holds(lambda r: r["attempts"] > 0 or r["mean_cost"] == 0,
              "mean_cost must be 0 with no attempts"),
    ]), rules=[holds(lambda rows: [r["origin"] for r in rows]
                     == list(ORIGINS),
                     f"must have one row per origin, in enum order "
                     f"{ORIGINS}")]),
    "lineage": obj({
        **many(NAT, "seeds", "roots", "max_depth"),
        "depth_histogram": arr(NAT),
        "top_ancestors": arr(obj({
            "hash": HEX16,
            **many(NAT, "exec_index", "descendants", "subtree_new_features"),
        })),
    }, rules=[
        holds(lambda lin: lin["roots"] <= lin["seeds"],
              "roots cannot exceed seeds"),
        holds(lambda lin: sum(lin["depth_histogram"]) == lin["seeds"],
              "depth_histogram must sum to seeds"),
        holds(lambda lin: lin["seeds"] == 0
              or len(lin["depth_histogram"]) == lin["max_depth"] + 1,
              "depth_histogram must have max_depth+1 buckets"),
    ]),
    # Every declared-but-unvisited state, classified exactly once.
    "frontier": obj({
        **many(NAT, "states_total", "states_visited"),
        "unvisited": arr(obj({
            **many(STR, "driver", "state"),
            **many(NAT, "state_index", "plan_length", "plans_injected",
                   "materialize_failed", "executed_no_visit"),
            "class": enum(*FRONTIER_CLASSES),
        }, rules=[holds(frontier_class, "class must match the plan and "
                                        "plan-attempt counters")])),
    }, rules=[
        holds(lambda fr: fr["states_visited"] <= fr["states_total"],
              "states_visited cannot exceed states_total"),
        holds(lambda fr: len(fr["unvisited"])
              == fr["states_total"] - fr["states_visited"],
              "unvisited must classify every unvisited state"),
    ]),
    "series?": arr(obj({
        **many(NAT, *SERIES_POINT_FIELDS),
        "timing": obj({"secs": NONNEG_NUM}),
    }), rules=[increasing("executions"), increasing("timing", "secs")]),
})

DEVICE_ANALYTICS = arr(obj({"device": STR, "analytics": ANALYTICS}),
                       nonempty=True)

# Build self-identification block (obs::write_build_json).
BUILD = obj({
    "compiler": STR,
    **many(TEXT, "compiler_version", "build_type", "sanitizer", "flags"),
    "cxx_standard": POS, "assertions": BOOL,
    "schema": obj({}, values=POS),
})

# --- SHAPES: distillation, lint, bug lists -----------------------------------

# core::DistillStats: every input seed is kept or dropped exactly once.
DISTILL_COUNTS = {
    **many(NAT, "before", "after", "dropped_static", "dropped_covered",
           "footprint_union"),
    "fraction_dropped": FRACTION, "verified": BOOL,
}
DISTILL_RULES = [
    holds(lambda d: d["after"] + d["dropped_static"] + d["dropped_covered"]
          == d["before"],
          "after + dropped_static + dropped_covered must equal before"),
    # The emitter prints doubles at 6 significant digits (%.6g).
    holds(lambda d: abs(d["fraction_dropped"] - (
        (d["before"] - d["after"]) / d["before"] if d["before"] else 0.0))
          < 1e-6, "fraction_dropped must equal (before - after) / before"),
    holds(lambda d: not d["verified"] or d["footprint_union"] > 0,
          "replay verification implies a non-empty footprint union"),
]

DATAFLOW = obj({
    "arg_classes": obj(many(NAT, "guard_relevant", "shape_relevant",
                            "dead")),
    "lifetimes": obj(many(NAT, "live", "closed", "leaked")),
    "stale_uses": NAT,
})

BUGS = arr(obj({
    **many(STR, "device", "title", "component", "origin", "class"),
    **many(NAT, "first_exec", "dup_count"),
    # Ends in the triggering program.
    "lineage": LINEAGE_CHAIN._replace(nonempty=True),
}))

# --- SHAPES: campaign series, metrics, stats ---------------------------------

SERIES_ARRAYS = ("executions", "kernel_coverage", "total_coverage",
                 "corpus", "bugs")
STATS_ARRAYS = ("executions", "kernel_coverage", "total_coverage", "corpus",
                "bugs", "relation_edges", "reboots")

SERIES_ENTRY = obj({
    "device": STR, "config": STR,
    **many(arr(NAT, nonempty=True), *SERIES_ARRAYS),
    "state_coverage?": STATE_COVERAGE,
    "analytics?": ANALYTICS,
    "distill?": obj({**DISTILL_COUNTS, "dry_run": BOOL}, rules=DISTILL_RULES),
}, rules=[same_length(*SERIES_ARRAYS),
          sorted_arrays("executions", "kernel_coverage", "total_coverage",
                        "bugs")])


def metric_value(value_kind):
    """Counter/gauge value: under the key the metric *name* dictates."""
    def rule(m, path):
        key = "value" + next((s for s in TIMING_SUFFIXES
                              if m["name"].endswith(s)), "")
        for other in ("value", "value_ns", "value_per_sec"):
            require(other == key or other not in m,
                    f"{path}.{other}: metric {m['name']!r} must serialize "
                    f"under {key!r}")
        walk(value_kind, m.get(key), f"{path}.{key}")
    return rule


METRICS = obj({
    "counters": arr(obj({"name": STR}, rules=[metric_value(NAT)])),
    "gauges": arr(obj({"name": STR}, rules=[metric_value(NUM)])),
    "histograms": arr(obj({"name": STR, "label?": ANY, "count": NAT},
                          closed=True)),
})


def device_sum(stats):
    """aggregate.executions sums the devices' series, point by point, over
    the shortest one."""
    execs = [d["executions"] for d in stats["devices"]]
    agg = stats["aggregate"].get("executions", [])
    return len(agg) == min(map(len, execs)) and all(
        a == sum(e[i] for e in execs) for i, a in enumerate(agg))


STATS = obj({
    "sample_every": POS,
    "devices": arr(obj({
        "device": STR,
        "executions": arr(NUM),
        **many(arr(ANY), *STATS_ARRAYS[1:]),
        "state_coverage?": STATE_COVERAGE,
    }, rules=[same_length(*STATS_ARRAYS), sorted_arrays("executions")]),
        nonempty=True),
    "aggregate": obj({"executions?": arr(ANY)}),
}, rules=[holds(device_sum, "aggregate.executions must be the per-point sum "
                            "of the device series")])

EVENTS = arr(obj({"event": STR, "exec": NAT}))

# --- SHAPES: fleet, velocity, faults, snapshots, service ---------------------

# Per-worker busy/idle/barrier accounting inside a "timing" object
# (DESIGN.md §10). All wall-dependent: only the shape is enforced.
UTILIZATION_TIMING = obj({
    "utilization": arr(obj({
        "worker": NAT, "rounds": NAT,
        **many(NONNEG_NUM, "busy_ms", "idle_ms", "barrier_ms"),
    }), nonempty=True, rules=[
        holds(lambda util: all(u["worker"] == i for i, u in enumerate(util)),
              "each entry's worker must be its index")]),
    "busy_imbalance_ms": NONNEG_NUM,
})
WALL_TIMING = pick(("utilization", UTILIZATION_TIMING), default=ANY)

# Campaign-level fleet section (--workers in fleet_campaign).
FLEET = obj({"workers": POS, "devices": POS, "timing?": WALL_TIMING},
            closed=True)

# The deterministic time-to-coverage ladder (obs::VelocityTracker); the
# EWMA rates are wall-dependent and live under "timing".
MILESTONES = arr(obj({
    "fraction": number("a number in (0, 1]", lambda v: 0 < v <= 1),
    "target_coverage": POS, "executions": NAT,
}, closed=True), rules=[increasing("fraction", strict=True),
                        increasing("target_coverage"),
                        increasing("executions")])
VELOCITY = obj({
    "half_life_secs": POS_NUM,
    "devices": arr(obj({"device": STR, "time_to_coverage?": MILESTONES},
                       closed=True)),
    "aggregate": obj({"time_to_coverage?": MILESTONES}, closed=True),
})

# bench_fleet_parallel: throughput and speedup are wall-dependent; the
# content contract is that every worker configuration was deterministic.
FLEET_PARALLEL = obj({
    **many(POS, "devices", "execs_per_device", "slice",
           "hardware_concurrency"),
    "deterministic": TRUE,
    "configs": arr(obj({"workers": POS, "timing?": WALL_TIMING},
                       closed=True), nonempty=True, rules=[
        increasing("workers", strict=True),
        holds(lambda c: c[0]["workers"] == 1,
              "must start with the sequential baseline (workers=1)")]),
})

FAULT_COUNTERS = ("injected", "hangs", "transport_errors", "reboots",
                  "kasan_reboots", "retries", "lost_execs")

# bench_fault_recovery: the seeded fault schedule makes every rate
# deterministic; recovery latency is virtual time and therefore content.
FAULT_RECOVERY = obj({
    **many(POS, "devices", "execs_per_device", "slice"),
    "deterministic": TRUE, "budget_saturated": BOOL, "lost_bugs": NAT,
    "configs": arr(obj({
        "fault_rate_ppm": NAT, "bugs": NAT,
        "faults": obj(many(NAT, *FAULT_COUNTERS), rules=[
            holds(lambda f: f["reboots"] >= f["hangs"],
                  "every hang forces a reboot, so reboots must be >= hangs")
        ]),
        "recovery": obj(many(NAT, "virtual_us", "mean_us_per_event")),
        "timing": pick(("utilization", UTILIZATION_TIMING),
                       default=obj({})),
    }, closed=True, rules=[
        holds(lambda c: c["fault_rate_ppm"] > 0
              or (all(c["faults"][key] == 0 for key in FAULT_COUNTERS)
                  and c["recovery"]["virtual_us"] == 0),
              "the fault-free baseline cannot report injected faults or "
              "recovery time")]), nonempty=True, rules=[
        increasing("fault_rate_ppm", strict=True),
        holds(lambda c: c[0]["fault_rate_ppm"] == 0,
              "must start with the fault-free baseline (fault_rate_ppm=0)")]),
}, rules=[holds(lambda fr: not fr["budget_saturated"] or fr["lost_bugs"] == 0,
                "lost_bugs must be 0 at a saturation budget: faults may cost "
                "throughput but never bugs")])

SNAPSHOT_COUNTERS = ("captures", "restores", "forks", "fault_recoveries",
                     "prefix_execs_saved", "prefix_calls_saved",
                     "sections_total", "sections_shared", "bytes_total",
                     "bytes_shared")
SNAPSHOT_CAMPAIGN_FIELDS = {
    **many(NAT, *SNAPSHOT_COUNTERS),
    # The snapshots-off trajectory is bit-identical across reps too.
    "off_deterministic": TRUE,
    "timing": obj({**many(POS_NUM, "on_execs_per_sec", "off_execs_per_sec"),
                   "execs_per_sec_uplift_percent": NUM}),
}
# Every restore is a frontier fork or a fault recovery, and the
# delta-sharing stats never exceed their totals.
SNAPSHOT_COUNTER_RULES = [
    holds(lambda s: s["restores"] == s["forks"] + s["fault_recoveries"],
          "restores must equal forks + fault_recoveries"),
    holds(lambda s: s["sections_shared"] <= s["sections_total"],
          "sections_shared cannot exceed sections_total"),
    holds(lambda s: s["bytes_shared"] <= s["bytes_total"],
          "bytes_shared cannot exceed bytes_total"),
]


def useful_uplift(s):
    if s["useful_fraction_off"] == 0:
        return True
    want = 100.0 * (s["useful_fraction_on"] / s["useful_fraction_off"] - 1.0)
    return abs(s["useful_uplift_percent"] - want) <= 1e-4 + 0.01 * abs(want)


# Snapshot layer (DESIGN.md §13) in three shapes: bench_micro's one
# snapshot plus its latency probe; the SnapshotStats counters of
# bench_fleet_parallel; and those plus bench_fault_recovery's
# useful-throughput comparison.
SNAPSHOT = pick(
    ("snapshot_bytes", obj({
        "device": STR, "snapshot_bytes": POS, "snapshot_sections": POS,
        "timing": obj(many(POS_NUM, "capture_us", "restore_us",
                           "reestablish_us", "restore_speedup"), rules=[
            holds(lambda t: abs(t["restore_speedup"] - t["reestablish_us"]
                                / t["restore_us"])
                  <= 0.01 * t["reestablish_us"] / t["restore_us"],
                  "restore_speedup must equal reestablish_us / restore_us")]),
    }, closed=True)),
    ("replay_execs_on", obj({
        **SNAPSHOT_CAMPAIGN_FIELDS,
        **many(NAT, "fault_rate_ppm", "replay_execs_on", "replay_execs_off"),
        **many(FRACTION, "useful_fraction_on", "useful_fraction_off"),
        "useful_uplift_percent": NUM,
    }, closed=True, rules=SNAPSHOT_COUNTER_RULES + [
        holds(useful_uplift, "useful_uplift_percent must equal 100 * "
                             "(useful_fraction_on / useful_fraction_off - 1)")
    ])),
    default=obj(SNAPSHOT_CAMPAIGN_FIELDS, closed=True,
                rules=SNAPSHOT_COUNTER_RULES))

# bench_service_throughput (DESIGN.md §14): every preempted job reproduced
# its uninterrupted reference byte-for-byte. Tick counts are content
# (scheduler passes); jobs/hour, overhead and millisecond waits are timing.
SERVICE = obj({
    **many(POS, "jobs", "workers", "quantum_barriers", "checkpoint_every",
           "budget_per_job"),
    "deterministic": TRUE,
    **many(NAT, "scheduler_ticks", "preemptions_total"),
    "wait_ticks": obj(many(NAT, "p50", "p90", "max"), rules=[
        holds(lambda w: w["p50"] <= w["p90"] <= w["max"],
              "percentiles must be ordered (p50 <= p90 <= max)")]),
    "per_job": arr(obj({
        "id": POS, "device": STR,
        **many(NAT, "seed", "priority", "preemptions", "wait_ticks"),
    }), rules=[increasing("id", strict=True)]),
    "timing": obj({**many(NUM, "preempted_wall_seconds",
                          "uninterrupted_wall_seconds",
                          "preemption_overhead_percent", "queue_wait_p50_ms",
                          "queue_wait_p90_ms", "queue_wait_max_ms"),
                   "jobs_per_hour": NONNEG_NUM}),
}, closed=True, rules=[
    holds(lambda sv: sv["scheduler_ticks"] >= sv["jobs"],
          "scheduler_ticks must be at least one quantum per job"),
    holds(lambda sv: len(sv["per_job"]) == sv["jobs"],
          "per_job must have one entry per job"),
    holds(lambda sv: sum(j["preemptions"] for j in sv["per_job"])
          == sv["preemptions_total"],
          "preemptions_total must equal the per-job sum"),
])

# --- SHAPES: the seven documents ---------------------------------------------

BENCH_DOC = obj({
    "bench": STR, "seed": INT, "reps": POS,
    "series": arr(SERIES_ENTRY, nonempty=True),
    "metrics?": METRICS,
    "fleet_parallel?": FLEET_PARALLEL,
    "fault_recovery?": FAULT_RECOVERY,
    "snapshot?": SNAPSHOT,
    "service?": SERVICE,
    "velocity?": VELOCITY,
    "bugs?": BUGS, "syzkaller_bugs?": BUGS,
    "build": BUILD,
    "timing": obj({"wall_seconds": NUM}),
})

CAMPAIGN_DOC = obj({
    "campaign": obj({"example": STR, "seed": INT}),
    "stats": STATS,
    "fleet?": FLEET,
    "velocity?": VELOCITY,
    "analytics?": obj({"devices": DEVICE_ANALYTICS}),
    "build?": BUILD,
    "metrics?": METRICS,
    "events?": EVENTS,
})


def span_tree(events, path):
    """Complete spans: timestamps monotone per track (the exporter sorts
    by (tid, ts)), unique ids, and every parent a span of the trace."""
    spans = [(f"{path}[{i}]", ev) for i, ev in enumerate(events)
             if ev["ph"] == "X"]
    require(spans, f"{path} must contain at least one complete span")
    last_ts, ids = {}, set()
    for where, ev in spans:
        tid, span_id = ev["tid"], ev["args"]["id"]
        require(ev["ts"] >= last_ts.get(tid, 0),
                f"{where}.ts must be non-decreasing within tid {tid}")
        last_ts[tid] = ev["ts"]
        require(span_id not in ids, f"{where}.args.id {span_id} duplicated")
        ids.add(span_id)
    for where, ev in spans:
        parent = ev["args"]["parent"]
        require(parent == 0 or parent in ids,
                f"{where}.args.parent {parent} does not match any span id "
                f"(incomplete span tree)")


META_EVENT = obj({"name": enum("process_name", "thread_name"),
                  "args": obj({"name": STR})})
SPAN_EVENT = obj({"ts": NAT, "dur": NAT,
                  "args": obj({"id": POS, "parent": NAT, "exec": NAT})})
TRACE_DOC = obj({"traceEvents": arr(obj({
    "ph": enum("M", "X"), "name": STR, "pid": NAT, "tid": NAT,
    "args": obj({}),
}, rules=[lambda ev, path: walk(META_EVENT if ev["ph"] == "M"
                                else SPAN_EVENT, ev, path)]),
    nonempty=True, rules=[span_tree])})

CRASH_DOC = obj({
    "crash": obj({
        **many(STR, "title", "component", "origin", "bug_class"),
        "hash": HEX16, **many(NAT, "first_exec", "dup_count"),
    }),
    "campaign": obj({"device": STR, "seed": INT, "exec": INT}),
    "repro": obj({"calls": POS,
                  "dsl": Kind("a non-empty program",
                              lambda v: isinstance(v, str) and v.strip())}),
    "lineage": LINEAGE_CHAIN,
    "driver_states": STATE_COVERAGE,
    "kasan_context": obj(many(arr(STR), "kernel_reports", "hal_crashes"),
                         rules=[holds(lambda k: k["kernel_reports"]
                                      or k["hal_crashes"],
                                      "must carry at least one report")]),
    "flight_recorder": obj({
        "capacity": POS, "recorded": POS,
        "records": arr(obj({
            "exec": NAT, "program": STR, "rets": arr(ANY),
            "states_before": obj({}), "states_after": obj({}),
        }), nonempty=True),
    }),
})

def lint_totals(lint, path):
    """The summary counts what the per-file reports list."""
    findings = [fd["severity"] for f in lint["files"] for fd in f["findings"]]
    want = {"files": len(lint["files"]), "findings": len(findings),
            "errors": findings.count("error"),
            "warnings": findings.count("warning")}
    for key, n in want.items():
        require(lint["summary"][key] == n,
                f"{path}.summary.{key} must equal the per-file count ({n})")


LINT_DOC = obj({"lint": obj({
    "tool": STR, "device": STR,
    "files": arr(obj({
        "path": STR, "calls": NAT, "parse_error": TEXT, "repairable": BOOL,
        "findings": arr(obj({
            "pass": enum("use-after-close", "dangling-ref", "type-width",
                         "dead-statement"),
            "severity": enum("error", "warning"),
            "call": NAT,
            "arg": Kind("an int >= -1",
                        lambda v: isinstance(v, int) and v >= -1),
            "message": STR,
        })),
        "dataflow?": DATAFLOW,
    }), nonempty=True),
    "summary": obj(many(NAT, "files", "programs", "findings", "errors",
                        "warnings", "repaired", "rejected")),
    "plans": arr(obj({
        "driver": STR, "states": arr(STR, nonempty=True),
        "plans": arr(obj({
            "state": NAT, "name": STR, "reachable": BOOL, "calls": NAT,
        }, rules=[holds(lambda e: e["reachable"] or e["calls"] == 0,
                        "unreachable state cannot carry a plan")])),
    }, rules=[holds(lambda p: [(e["state"], e["name"]) for e in p["plans"]]
                    == list(enumerate(p["states"])),
                    "plans must have one entry per state, in state order")])),
}, rules=[lint_totals])})

EXPLAIN_DOC = obj({
    "report": obj({"example": STR, "seed": INT, "execs_per_device": POS,
                   "devices": NAT}),
    "devices": DEVICE_ANALYTICS,
    "build": BUILD,
}, rules=[holds(lambda doc: doc["report"]["devices"] == len(doc["devices"]),
                "report.devices must equal len(devices)")])

# df_distill: destructive distillation, and every device's distilled corpus
# replays to bit-identical coverage ("verified": true).
DISTILL_DOC = obj({"distill": obj({
    "tool": enum("df_distill"), "seed": INT, "execs": POS,
    "devices": arr(obj({"device": STR, "executions": NAT, **DISTILL_COUNTS,
                        "verified": TRUE}, rules=DISTILL_RULES),
                   nonempty=True),
})})

DOCUMENT = pick(("bench", BENCH_DOC), ("traceEvents", TRACE_DOC),
                ("crash", CRASH_DOC), ("campaign", CAMPAIGN_DOC),
                ("lint", LINT_DOC), ("report", EXPLAIN_DOC),
                ("distill", DISTILL_DOC))


def check_document(doc):
    walk(DOCUMENT, doc)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def validate_file(path):
    try:
        doc = load(path)
        check_document(doc)
    except (OSError, json.JSONDecodeError, CheckError) as e:
        print(f"FAIL {path}: {e}")
        return False
    print(f"OK   {path}")
    return True


def compare_files(path_a, path_b):
    if not (validate_file(path_a) and validate_file(path_b)):
        return False
    a = strip_timing(load(path_a))
    b = strip_timing(load(path_b))
    if a != b:
        print(f"FAIL {path_a} vs {path_b}: documents differ after "
              f"stripping timing fields")
        return False
    print(f"OK   {path_a} == {path_b} (modulo timing)")
    return True


# --- self-test ---------------------------------------------------------------

def _bench_fixture():
    return {
        "bench": "fig4_coverage", "seed": 1, "reps": 1,
        "series": [{
            "device": "A1", "config": "droidfuzz", "rep": 0,
            "executions": [0, 100], "kernel_coverage": [0, 40],
            "total_coverage": [0, 50], "corpus": [0, 4], "bugs": [0, 1],
            "timing": {"secs": [0.0, 0.5]},
        }],
        "metrics": {
            "counters": [{"name": "engine.executions", "label": "A1",
                          "value": 100}],
            "gauges": [],
            "histograms": [{"name": "phase.execute", "label": "A1",
                            "count": 100, "sum_ns": 5, "p50_ns": 1}],
        },
        "build": _build_fixture(),
        "timing": {"wall_seconds": 0.5},
    }


def _build_fixture():
    return {
        "compiler": "gcc", "compiler_version": "13.2.0",
        "build_type": "Release", "sanitizer": "", "flags": "-O2",
        "cxx_standard": 202002, "assertions": False,
        "schema": {"checkpoint": 3, "analytics": 2},
    }


def _operator_row(origin, attempts=0, total_calls=0, accepts=0,
                  new_features=0, new_states=0, bugs=0):
    mean = total_calls / attempts if attempts else 0
    return {"origin": origin, "attempts": attempts,
            "total_calls": total_calls, "accepts": accepts,
            "new_features": new_features, "new_states": new_states,
            "bugs": bugs, "mean_cost": mean}


def _analytics_fixture():
    ops = [_operator_row(o) for o in ORIGINS]
    ops[0] = _operator_row("generate", attempts=100, total_calls=420,
                           accepts=20, new_features=80, new_states=3,
                           bugs=1)
    ops[7] = _operator_row("plan_injected", attempts=4, total_calls=12,
                           accepts=4, new_states=4)
    return {
        "schema_version": 2,
        "operators": ops,
        "lineage": {
            "seeds": 5, "roots": 2, "max_depth": 2,
            "depth_histogram": [2, 2, 1],
            "top_ancestors": [{"hash": "00000000deadbeef", "exec_index": 3,
                               "descendants": 3,
                               "subtree_new_features": 40}],
        },
        "frontier": {
            "states_total": 6, "states_visited": 3,
            "unvisited": [
                {"driver": "rt1711_i2c", "state": "error",
                 "state_index": 3, "class": "unreachable-from-frontier",
                 "plan_length": 0, "plans_injected": 0,
                 "materialize_failed": 0, "executed_no_visit": 0},
                {"driver": "rt1711_i2c", "state": "pd_contract",
                 "state_index": 4, "class": "planned-but-failed",
                 "plan_length": 3, "plans_injected": 2,
                 "materialize_failed": 0, "executed_no_visit": 2},
                {"driver": "rt1711_i2c", "state": "alerting",
                 "state_index": 5, "class": "never-attempted",
                 "plan_length": 2, "plans_injected": 0,
                 "materialize_failed": 0, "executed_no_visit": 0},
            ],
        },
        "series": [
            {"executions": 0, "kernel_coverage": 0, "total_coverage": 0,
             "corpus_size": 0, "unique_bugs": 0, "states_visited": 0,
             "timing": {"secs": 0.0}},
            {"executions": 100, "kernel_coverage": 40, "total_coverage": 50,
             "corpus_size": 4, "unique_bugs": 1, "states_visited": 3,
             "timing": {"secs": 0.5}},
        ],
    }


def _lineage_chain_fixture():
    return [
        {"hash": "0000000000001234", "origin": "generate",
         "exec_index": 7, "depth": 0},
        {"hash": "000000000000abcd", "origin": "mutate_arg",
         "exec_index": 120, "depth": 1},
    ]


def _explain_fixture():
    return {
        "report": {"example": "df_explain", "seed": 3,
                   "execs_per_device": 4000, "devices": 1},
        "devices": [{"device": "A1", "analytics": _analytics_fixture()}],
        "build": _build_fixture(),
    }


def _state_coverage_fixture():
    return [{
        "driver": "rt1711_i2c",
        "states": ["idle", "attached", "alerting"],
        "current": "attached",
        "visits": [3, 2, 0],
        "matrix": [[0, 2, 0], [1, 0, 0], [0, 0, 0]],
        "states_visited": 2,
        "transitions_observed": 2,
    }]


def _chrome_fixture():
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "droidfuzz"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "A1"}},
            {"name": "campaign", "cat": "droidfuzz", "ph": "X", "pid": 1,
             "tid": 1, "ts": 0, "dur": 90,
             "args": {"id": 1, "parent": 0, "exec": 0}},
            {"name": "iteration", "cat": "droidfuzz", "ph": "X", "pid": 1,
             "tid": 1, "ts": 10, "dur": 40,
             "args": {"id": 2, "parent": 1, "exec": 1}},
            {"name": "phase:execute", "cat": "droidfuzz", "ph": "X", "pid": 1,
             "tid": 1, "ts": 12, "dur": 20,
             "args": {"id": 3, "parent": 2, "exec": 1}},
        ],
    }


def _crash_fixture():
    return {
        "crash": {"title": "KASAN: use-after-free in ion_free",
                  "hash": "00c0ffee00c0ffee", "component": "Kernel",
                  "origin": "ion", "bug_class": "KASAN",
                  "first_exec": 40, "dup_count": 1},
        "campaign": {"device": "A1", "seed": 3, "exec": 40},
        "repro": {"calls": 2, "dsl": "r0 = openat$ion()\nclose(r0)\n"},
        "lineage": _lineage_chain_fixture(),
        "driver_states": _state_coverage_fixture(),
        "kasan_context": {
            "kernel_reports": ["KASAN: use-after-free in ion_free | ..."],
            "hal_crashes": [],
        },
        "flight_recorder": {
            "capacity": 16, "recorded": 1,
            "records": [{"exec": 40, "program": "r0 = openat$ion()\n",
                         "rets": [3], "new_features": 0,
                         "kernel_bug": "KASAN: use-after-free in ion_free",
                         "hal_crash": "",
                         "states_before": {"ion": "empty"},
                         "states_after": {"ion": "allocated"}}],
        },
    }


def _fleet_parallel_fixture():
    return {
        "devices": 7, "execs_per_device": 4000, "slice": 256,
        "hardware_concurrency": 4, "deterministic": True,
        "configs": [
            {"workers": 1, "timing": {"wall_seconds": 0.4,
                                      "execs_per_sec": 70000.0,
                                      "speedup_vs_sequential": 1.0}},
            {"workers": 2, "timing": {"wall_seconds": 0.22,
                                      "execs_per_sec": 127000.0,
                                      "speedup_vs_sequential": 1.8}},
            {"workers": 4, "timing": {"wall_seconds": 0.13,
                                      "execs_per_sec": 215000.0,
                                      "speedup_vs_sequential": 3.1}},
        ],
    }


def _fault_recovery_fixture():
    def config(ppm, bugs, injected, hangs, transport, reboots, retries,
               lost, virtual_us):
        events = reboots + retries
        return {
            "fault_rate_ppm": ppm, "bugs": bugs,
            "faults": {"injected": injected, "hangs": hangs,
                       "transport_errors": transport, "reboots": reboots,
                       "kasan_reboots": 0, "retries": retries,
                       "lost_execs": lost},
            "recovery": {"virtual_us": virtual_us,
                         "mean_us_per_event":
                             virtual_us // events if events else 0},
            "timing": {"wall_seconds": 0.4, "execs_per_sec": 70000.0},
        }
    return {
        "devices": 7, "execs_per_device": 30000, "slice": 256,
        "deterministic": True, "budget_saturated": True, "lost_bugs": 0,
        "configs": [
            config(0, 10, 0, 0, 0, 0, 0, 0, 0),
            config(1000, 11, 222, 62, 113, 109, 113, 109, 30361300),
            config(10000, 11, 2573, 644, 1312, 1261, 1312, 1261, 347581800),
        ],
    }


def _service_fixture():
    def job(jid, device, seed, priority, preemptions, wait_ticks):
        return {"id": jid, "device": device, "seed": seed,
                "priority": priority, "preemptions": preemptions,
                "wait_ticks": wait_ticks}
    return {
        "jobs": 3, "workers": 1, "quantum_barriers": 1,
        "checkpoint_every": 256, "budget_per_job": 2560,
        "deterministic": True, "scheduler_ticks": 30,
        "preemptions_total": 27,
        "wait_ticks": {"p50": 10, "p90": 19, "max": 21},
        "per_job": [
            job(1, "A1", 1, 0, 9, 10),
            job(2, "B", 2, 3, 9, 19),
            job(3, "C1", 3, 1, 9, 21),
        ],
        "timing": {"preempted_wall_seconds": 0.8,
                   "uninterrupted_wall_seconds": 0.7,
                   "jobs_per_hour": 13500.0,
                   "preemption_overhead_percent": 14.3,
                   "queue_wait_p50_ms": 266.0,
                   "queue_wait_p90_ms": 506.0,
                   "queue_wait_max_ms": 560.0},
    }


def _snapshot_micro_fixture():
    return {
        "device": "A1", "snapshot_bytes": 2502, "snapshot_sections": 24,
        "timing": {"capture_us": 11.2, "restore_us": 4.3,
                   "reestablish_us": 70.0, "restore_speedup": 70.0 / 4.3},
    }


def _snapshot_campaign_fixture(fault=False):
    sn = {
        "captures": 25, "restores": 150, "forks": 49,
        "fault_recoveries": 101, "prefix_execs_saved": 150,
        "prefix_calls_saved": 600, "sections_total": 600,
        "sections_shared": 420, "bytes_total": 62550,
        "bytes_shared": 40000, "off_deterministic": True,
        "timing": {"on_execs_per_sec": 66000.0, "off_execs_per_sec": 75000.0,
                   "execs_per_sec_uplift_percent": -12.0},
    }
    if fault:
        sn.update({
            "fault_rate_ppm": 10000, "replay_execs_on": 40,
            "replay_execs_off": 4870, "useful_fraction_on": 0.9998,
            "useful_fraction_off": 0.9768,
            "useful_uplift_percent": 100.0 * (0.9998 / 0.9768 - 1.0),
        })
    return sn


def _velocity_fixture():
    def milestones(scale):
        return [
            {"fraction": f, "target_coverage": int(50 * f * scale) or 1,
             "executions": int(100 * f * scale),
             "timing": {"secs": 0.1 * f}}
            for f in (0.25, 0.5, 0.75, 0.9, 1.0)
        ]
    rates = {"execs_per_sec": 1000.0, "features_per_sec": 12.0,
             "kernel_features_per_sec": 9.0, "states_per_sec": 0.5,
             "crashes_per_sec": 0.01}
    return {
        "half_life_secs": 30.0,
        "devices": [{"device": "A1",
                     "time_to_coverage": milestones(1),
                     "timing": dict(rates)}],
        "aggregate": {"time_to_coverage": milestones(1),
                      "timing": dict(rates)},
    }


def _utilization_fixture():
    return [
        {"worker": 0, "rounds": 8, "busy_ms": 120.0, "idle_ms": 3.0,
         "barrier_ms": 1.5},
        {"worker": 1, "rounds": 8, "busy_ms": 118.0, "idle_ms": 5.0,
         "barrier_ms": 1.4},
    ]


def _campaign_fixture():
    return {
        "campaign": {"example": "fleet_campaign", "seed": 3},
        "stats": {
            "sample_every": 512,
            "devices": [{
                "device": "A1",
                "executions": [0, 512], "kernel_coverage": [0, 10],
                "total_coverage": [0, 12], "corpus": [0, 2], "bugs": [0, 0],
                "relation_edges": [0, 3], "reboots": [0, 0],
            }],
            "aggregate": {"executions": [0, 512], "kernel_coverage": [0, 10],
                          "total_coverage": [0, 12], "corpus": [0, 2],
                          "bugs": [0, 0], "reboots": [0, 0]},
        },
        "events": [{"event": "bug", "device": "A1", "exec": 40}],
    }


def _lint_fixture():
    return {
        "lint": {
            "tool": "df_lint", "device": "A1",
            "files": [{
                "path": "tests/fixtures/lint/use_after_close.dsl",
                "calls": 3, "parse_error": "",
                "dataflow": {
                    "arg_classes": {"guard_relevant": 1, "shape_relevant": 2,
                                    "dead": 0},
                    "lifetimes": {"live": 0, "closed": 1, "leaked": 0},
                    "stale_uses": 1,
                },
                "repairable": True,
                "findings": [{
                    "pass": "use-after-close", "severity": "error",
                    "call": 2, "arg": 0,
                    "message": "use of r0 after close$rt1711 at call #1",
                }],
            }],
            "summary": {"files": 1, "programs": 1, "findings": 1,
                        "errors": 1, "warnings": 0, "repaired": 1,
                        "rejected": 0},
            "plans": [{
                "driver": "rt1711_i2c",
                "states": ["idle", "attached", "alerting"],
                "plans": [
                    {"state": 0, "name": "idle", "reachable": True,
                     "calls": 0},
                    {"state": 1, "name": "attached", "reachable": True,
                     "calls": 1},
                    {"state": 2, "name": "alerting", "reachable": True,
                     "calls": 2},
                ],
            }],
        },
    }


def _distill_stats(dry_run=None):
    d = {"before": 12, "after": 7, "dropped_static": 3, "dropped_covered": 2,
         "footprint_union": 41, "fraction_dropped": 5 / 12,
         "verified": True}
    if dry_run is not None:
        d["dry_run"] = dry_run
    return d


def _distill_fixture():
    dev = _distill_stats()
    dev.update({"device": "A1", "executions": 600})
    return {"distill": {"tool": "df_distill", "seed": 1, "execs": 600,
                        "devices": [dev]}}


def self_test():
    cases = []

    def expect_ok(name, doc):
        cases.append((name, doc, True))

    def expect_fail(name, doc):
        cases.append((name, doc, False))

    expect_ok("valid bench doc", _bench_fixture())
    expect_ok("valid campaign doc", _campaign_fixture())

    doc = _bench_fixture()
    del doc["series"][0]["kernel_coverage"]
    expect_fail("missing series array", doc)

    doc = _bench_fixture()
    doc["series"][0]["executions"] = [100, 0]
    expect_fail("non-monotone executions", doc)

    doc = _bench_fixture()
    doc["series"][0]["corpus"] = [0]
    expect_fail("array length mismatch", doc)

    doc = _bench_fixture()
    doc["metrics"]["histograms"][0]["p50"] = 7
    expect_fail("histogram wall field without _ns suffix", doc)

    doc = _campaign_fixture()
    doc["stats"]["aggregate"]["executions"] = [0, 999]
    expect_fail("aggregate not the device sum", doc)

    doc = _bench_fixture()
    doc["series"][0]["state_coverage"] = _state_coverage_fixture()
    expect_ok("bench series with state coverage", doc)

    doc = _bench_fixture()
    doc["series"][0]["state_coverage"] = _state_coverage_fixture()
    doc["series"][0]["state_coverage"][0]["matrix"][0] = [0, 2]
    expect_fail("ragged transition matrix", doc)

    doc = _bench_fixture()
    doc["series"][0]["state_coverage"] = _state_coverage_fixture()
    doc["series"][0]["state_coverage"][0]["states_visited"] = 3
    expect_fail("states_visited inconsistent with visits", doc)

    doc = _campaign_fixture()
    doc["stats"]["devices"][0]["state_coverage"] = _state_coverage_fixture()
    expect_ok("campaign stats with state coverage", doc)

    doc = _bench_fixture()
    doc["fleet_parallel"] = _fleet_parallel_fixture()
    expect_ok("bench doc with fleet_parallel section", doc)

    doc = _bench_fixture()
    doc["fleet_parallel"] = _fleet_parallel_fixture()
    doc["fleet_parallel"]["deterministic"] = False
    expect_fail("non-deterministic fleet run", doc)

    doc = _bench_fixture()
    doc["fleet_parallel"] = _fleet_parallel_fixture()
    doc["fleet_parallel"]["configs"] = []
    expect_fail("fleet_parallel without configs", doc)

    doc = _bench_fixture()
    doc["fleet_parallel"] = _fleet_parallel_fixture()
    doc["fleet_parallel"]["configs"][0]["workers"] = 2
    expect_fail("fleet_parallel missing the sequential baseline", doc)

    doc = _bench_fixture()
    doc["fleet_parallel"] = _fleet_parallel_fixture()
    doc["fleet_parallel"]["configs"][2]["workers"] = 2
    expect_fail("fleet_parallel workers not strictly increasing", doc)

    doc = _bench_fixture()
    doc["fleet_parallel"] = _fleet_parallel_fixture()
    doc["fleet_parallel"]["configs"][1]["speedup"] = 1.8
    expect_fail("fleet_parallel speedup outside 'timing'", doc)

    doc = _bench_fixture()
    doc["fault_recovery"] = _fault_recovery_fixture()
    expect_ok("bench doc with fault_recovery section", doc)

    doc = _bench_fixture()
    doc["fault_recovery"] = _fault_recovery_fixture()
    doc["fault_recovery"]["deterministic"] = False
    expect_fail("non-deterministic fault campaign", doc)

    doc = _bench_fixture()
    doc["fault_recovery"] = _fault_recovery_fixture()
    doc["fault_recovery"]["lost_bugs"] = 2
    expect_fail("saturated fault campaign losing bugs", doc)

    doc = _bench_fixture()
    doc["fault_recovery"] = _fault_recovery_fixture()
    doc["fault_recovery"]["budget_saturated"] = False
    doc["fault_recovery"]["lost_bugs"] = 2
    expect_ok("unsaturated smoke budget may report lost bugs", doc)

    doc = _bench_fixture()
    doc["fault_recovery"] = _fault_recovery_fixture()
    doc["fault_recovery"]["configs"][0]["fault_rate_ppm"] = 500
    expect_fail("fault_recovery missing the fault-free baseline", doc)

    doc = _bench_fixture()
    doc["fault_recovery"] = _fault_recovery_fixture()
    doc["fault_recovery"]["configs"][2]["fault_rate_ppm"] = 1000
    expect_fail("fault_recovery rates not strictly increasing", doc)

    doc = _bench_fixture()
    doc["fault_recovery"] = _fault_recovery_fixture()
    doc["fault_recovery"]["configs"][0]["faults"]["reboots"] = 3
    expect_fail("fault-free baseline reporting injected faults", doc)

    doc = _bench_fixture()
    doc["fault_recovery"] = _fault_recovery_fixture()
    doc["fault_recovery"]["configs"][1]["faults"]["reboots"] = 1
    expect_fail("fewer reboots than hangs", doc)

    doc = _bench_fixture()
    doc["fault_recovery"] = _fault_recovery_fixture()
    doc["fault_recovery"]["configs"][1]["throughput"] = 70000.0
    expect_fail("fault_recovery throughput outside 'timing'", doc)

    doc = _bench_fixture()
    doc["service"] = _service_fixture()
    expect_ok("bench doc with service section", doc)

    doc = _bench_fixture()
    doc["service"] = _service_fixture()
    doc["service"]["deterministic"] = False
    expect_fail("non-deterministic service scheduler", doc)

    doc = _bench_fixture()
    doc["service"] = _service_fixture()
    doc["service"]["per_job"].pop()
    expect_fail("service per_job not covering every job", doc)

    doc = _bench_fixture()
    doc["service"] = _service_fixture()
    doc["service"]["preemptions_total"] = 5
    expect_fail("service preemptions_total not the per-job sum", doc)

    doc = _bench_fixture()
    doc["service"] = _service_fixture()
    doc["service"]["wait_ticks"]["p90"] = 25
    expect_fail("service wait percentiles out of order", doc)

    doc = _bench_fixture()
    doc["service"] = _service_fixture()
    doc["service"]["jobs_per_hour"] = 13500.0
    expect_fail("service throughput outside 'timing'", doc)

    doc = _bench_fixture()
    doc["service"] = _service_fixture()
    del doc["service"]["timing"]["jobs_per_hour"]
    expect_fail("service timing missing jobs_per_hour", doc)

    doc = _bench_fixture()
    doc["service"] = _service_fixture()
    doc["service"]["scheduler_ticks"] = 2
    expect_fail("service with fewer ticks than jobs", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_micro_fixture()
    expect_ok("bench doc with micro snapshot section", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_micro_fixture()
    doc["snapshot"]["timing"]["restore_speedup"] = 2.0
    expect_fail("snapshot restore_speedup inconsistent with latencies", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_micro_fixture()
    del doc["snapshot"]["timing"]["restore_us"]
    expect_fail("micro snapshot missing restore latency", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_micro_fixture()
    doc["snapshot"]["capture_us"] = 11.2
    expect_fail("snapshot latency outside 'timing'", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_campaign_fixture()
    expect_ok("bench doc with campaign snapshot section", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_campaign_fixture(fault=True)
    expect_ok("bench doc with fault-recovery snapshot section", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_campaign_fixture()
    doc["snapshot"]["restores"] = 151
    expect_fail("snapshot restores not forks + fault_recoveries", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_campaign_fixture()
    doc["snapshot"]["bytes_shared"] = doc["snapshot"]["bytes_total"] + 1
    expect_fail("snapshot bytes_shared exceeding bytes_total", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_campaign_fixture()
    doc["snapshot"]["off_deterministic"] = False
    expect_fail("non-deterministic snapshots-off trajectory", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_campaign_fixture()
    doc["snapshot"]["on_rate"] = 66000.0
    expect_fail("snapshot wall rate outside 'timing'", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_campaign_fixture(fault=True)
    doc["snapshot"]["useful_fraction_on"] = 1.5
    expect_fail("snapshot useful fraction outside [0, 1]", doc)

    doc = _bench_fixture()
    doc["snapshot"] = _snapshot_campaign_fixture(fault=True)
    doc["snapshot"]["useful_uplift_percent"] = 99.0
    expect_fail("snapshot useful uplift inconsistent with fractions", doc)

    doc = _campaign_fixture()
    doc["fleet"] = {"workers": 4, "devices": 7,
                    "timing": {"wall_ms": 130.0, "execs_per_sec": 215000.0}}
    expect_ok("campaign doc with fleet section", doc)

    doc = _campaign_fixture()
    doc["fleet"] = {"workers": 0, "devices": 7}
    expect_fail("campaign fleet with zero workers", doc)

    doc = _campaign_fixture()
    doc["fleet"] = {"workers": 4, "devices": 7, "wall_ms": 130.0}
    expect_fail("campaign fleet wall-clock outside 'timing'", doc)

    doc = _bench_fixture()
    doc["velocity"] = _velocity_fixture()
    expect_ok("bench doc with velocity section", doc)

    doc = _campaign_fixture()
    doc["velocity"] = _velocity_fixture()
    expect_ok("campaign doc with velocity section", doc)

    doc = _bench_fixture()
    doc["velocity"] = _velocity_fixture()
    doc["velocity"]["devices"][0]["execs_per_hour"] = 9.0
    expect_fail("velocity device rate outside 'timing'", doc)

    doc = _bench_fixture()
    doc["velocity"] = _velocity_fixture()
    doc["velocity"]["devices"][0]["time_to_coverage"][2]["executions"] = 1
    expect_fail("velocity milestone executions not monotone", doc)

    doc = _bench_fixture()
    doc["velocity"] = _velocity_fixture()
    doc["velocity"]["aggregate"]["time_to_coverage"][1]["fraction"] = 0.25
    expect_fail("velocity milestone fractions not strictly increasing", doc)

    doc = _bench_fixture()
    doc["velocity"] = _velocity_fixture()
    del doc["velocity"]["half_life_secs"]
    expect_fail("velocity without half_life_secs", doc)

    doc = _bench_fixture()
    doc["metrics"]["counters"].append(
        {"name": "fleet.worker.busy_ns", "label": "w0", "value_ns": 120})
    doc["metrics"]["gauges"].append(
        {"name": "fleet.worker.imbalance_ns", "value_ns": 2.0})
    expect_ok("wall-dependent metric under its suffixed value key", doc)

    doc = _bench_fixture()
    doc["metrics"]["counters"].append(
        {"name": "fleet.worker.busy_ns", "label": "w0", "value": 120})
    expect_fail("counter named *_ns hiding under plain 'value'", doc)

    doc = _bench_fixture()
    doc["metrics"]["counters"][0]["value_ns"] = 120
    del doc["metrics"]["counters"][0]["value"]
    expect_fail("unsuffixed counter under 'value_ns'", doc)

    doc = _campaign_fixture()
    doc["fleet"] = {"workers": 2, "devices": 7,
                    "timing": {"wall_ms": 130.0, "execs_per_sec": 2e5,
                               "utilization": _utilization_fixture(),
                               "busy_imbalance_ms": 2.0}}
    expect_ok("campaign fleet with worker utilization", doc)

    doc = _campaign_fixture()
    doc["fleet"] = {"workers": 2, "devices": 7,
                    "timing": {"utilization": _utilization_fixture(),
                               "busy_imbalance_ms": 2.0}}
    doc["fleet"]["timing"]["utilization"][1]["worker"] = 7
    expect_fail("utilization worker ids out of order", doc)

    doc = _campaign_fixture()
    doc["fleet"] = {"workers": 2, "devices": 7,
                    "timing": {"utilization": _utilization_fixture(),
                               "busy_imbalance_ms": 2.0}}
    del doc["fleet"]["timing"]["utilization"][0]["busy_ms"]
    expect_fail("utilization entry missing busy_ms", doc)

    doc = _campaign_fixture()
    doc["fleet"] = {"workers": 2, "devices": 7,
                    "timing": {"utilization": _utilization_fixture()}}
    expect_fail("utilization without busy_imbalance_ms", doc)

    expect_ok("valid chrome trace", _chrome_fixture())

    doc = _chrome_fixture()
    doc["traceEvents"][4]["ts"] = 5
    expect_fail("non-monotone ts within a track", doc)

    doc = _chrome_fixture()
    doc["traceEvents"][4]["args"]["parent"] = 99
    expect_fail("dangling span parent", doc)

    doc = _chrome_fixture()
    del doc["traceEvents"][3]["dur"]
    expect_fail("complete span without dur", doc)

    doc = _chrome_fixture()
    doc["traceEvents"] = doc["traceEvents"][:2]
    expect_fail("metadata-only trace", doc)

    expect_ok("valid crash provenance doc", _crash_fixture())

    doc = _crash_fixture()
    doc["crash"]["hash"] = "xyz"
    expect_fail("malformed crash hash", doc)

    doc = _crash_fixture()
    doc["repro"]["dsl"] = ""
    expect_fail("empty reproducer", doc)

    doc = _crash_fixture()
    doc["flight_recorder"]["records"] = []
    expect_fail("crash report without flight records", doc)

    doc = _crash_fixture()
    doc["kasan_context"]["kernel_reports"] = []
    expect_fail("crash report without any kernel/HAL context", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    expect_ok("bench series with analytics snapshot", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["schema_version"] = 99
    expect_fail("analytics schema version mismatch", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["operators"].pop()
    expect_fail("operator table missing a row", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    ops = doc["series"][0]["analytics"]["operators"]
    ops[1], ops[2] = ops[2], ops[1]
    expect_fail("operator rows out of enum order", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["operators"][0]["accepts"] = 999
    expect_fail("operator accepts exceeding attempts", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["lineage"]["depth_histogram"] = [1, 1, 1]
    expect_fail("lineage histogram not summing to seeds", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["lineage"]["roots"] = 9
    expect_fail("lineage roots exceeding seeds", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["frontier"]["unvisited"][0]["class"] = \
        "lost-in-space"
    expect_fail("unknown frontier class", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["frontier"]["unvisited"].pop()
    expect_fail("frontier not classifying every unvisited state", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["frontier"]["unvisited"][2][
        "plans_injected"] = 1
    expect_fail("never-attempted state carrying plan attempts", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["frontier"]["unvisited"][1][
        "plans_injected"] = 0
    doc["series"][0]["analytics"]["frontier"]["unvisited"][1][
        "executed_no_visit"] = 0
    expect_fail("planned-but-failed state without attempt counters", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["series"][1]["executions"] = 0
    doc["series"][0]["analytics"]["series"][0]["executions"] = 100
    expect_fail("analytics series executions not monotone", doc)

    doc = _bench_fixture()
    doc["series"][0]["analytics"] = _analytics_fixture()
    doc["series"][0]["analytics"]["series"][0]["timing"]["secs"] = 9.0
    expect_fail("analytics series timestamps not monotone", doc)

    doc = _bench_fixture()
    del doc["build"]
    expect_fail("bench doc without build block", doc)

    doc = _bench_fixture()
    doc["build"]["compiler"] = ""
    expect_fail("build block with empty compiler", doc)

    doc = _bench_fixture()
    doc["build"]["schema"]["analytics"] = 0
    expect_fail("build schema version below 1", doc)

    doc = _bench_fixture()
    doc["bugs"] = [{"device": "A1", "title": "KASAN: uaf", "component":
                    "Kernel", "origin": "ion", "class": "KASAN",
                    "first_exec": 40, "dup_count": 0,
                    "lineage": _lineage_chain_fixture()}]
    expect_ok("bench bug list with lineage chains", doc)

    doc = _bench_fixture()
    doc["bugs"] = [{"device": "A1", "title": "KASAN: uaf", "component":
                    "Kernel", "origin": "ion", "class": "KASAN",
                    "first_exec": 40, "dup_count": 0, "lineage": []}]
    expect_fail("bench bug without a lineage chain", doc)

    doc = _campaign_fixture()
    doc["analytics"] = {"devices": [{"device": "A1",
                                     "analytics": _analytics_fixture()}]}
    doc["build"] = _build_fixture()
    expect_ok("campaign doc with analytics and build sections", doc)

    doc = _campaign_fixture()
    doc["analytics"] = {"devices": []}
    expect_fail("campaign analytics without devices", doc)

    expect_ok("valid explain report", _explain_fixture())

    doc = _explain_fixture()
    doc["report"]["devices"] = 7
    expect_fail("explain report device count mismatch", doc)

    doc = _explain_fixture()
    del doc["build"]
    expect_fail("explain report without build block", doc)

    doc = _crash_fixture()
    doc["lineage"][1]["depth"] = 0
    expect_fail("crash lineage depths not increasing", doc)

    doc = _crash_fixture()
    doc["lineage"][0]["origin"] = "teleported"
    expect_fail("crash lineage with unknown origin", doc)

    expect_ok("valid lint report", _lint_fixture())

    doc = _lint_fixture()
    doc["lint"]["files"][0]["findings"][0]["pass"] = "bad-pass"
    expect_fail("unknown lint pass name", doc)

    doc = _lint_fixture()
    doc["lint"]["summary"]["findings"] = 9
    expect_fail("lint summary inconsistent with findings", doc)

    doc = _lint_fixture()
    doc["lint"]["plans"][0]["plans"][2] = {"state": 2, "name": "alerting",
                                           "reachable": False, "calls": 2}
    expect_fail("unreachable state carrying a plan", doc)

    doc = _lint_fixture()
    doc["lint"]["plans"][0]["plans"].pop()
    expect_fail("lint plans missing a state entry", doc)

    doc = _lint_fixture()
    doc["lint"]["files"][0]["dataflow"]["stale_uses"] = -1
    expect_fail("lint dataflow with negative stale_uses", doc)

    doc = _lint_fixture()
    del doc["lint"]["files"][0]["dataflow"]["lifetimes"]
    expect_fail("lint dataflow missing lifetimes", doc)

    doc = _bench_fixture()
    doc["series"][0]["distill"] = _distill_stats(dry_run=True)
    expect_ok("bench series with distill stats", doc)

    doc = _bench_fixture()
    doc["series"][0]["distill"] = _distill_stats(dry_run=True)
    doc["series"][0]["distill"]["dropped_static"] = 4
    expect_fail("distill counts not summing to before", doc)

    doc = _bench_fixture()
    doc["series"][0]["distill"] = _distill_stats(dry_run=True)
    doc["series"][0]["distill"]["fraction_dropped"] = 0.25
    expect_fail("distill fraction inconsistent with counts", doc)

    doc = _bench_fixture()
    doc["series"][0]["distill"] = _distill_stats(dry_run=True)
    doc["series"][0]["distill"]["footprint_union"] = 0
    expect_fail("verified distill with empty footprint union", doc)

    doc = _bench_fixture()
    doc["series"][0]["distill"] = _distill_stats()
    expect_fail("bench distill stats without dry_run flag", doc)

    expect_ok("valid distill report", _distill_fixture())

    doc = _distill_fixture()
    doc["distill"]["devices"][0]["verified"] = False
    expect_fail("distill report breaking the replay contract", doc)

    doc = _distill_fixture()
    doc["distill"]["devices"] = []
    expect_fail("distill report without devices", doc)

    doc = _distill_fixture()
    doc["distill"]["tool"] = "df_lint"
    expect_fail("distill report from the wrong tool", doc)

    expect_fail("unknown shape", {"something": 1})

    failures = 0
    for name, doc, want_ok in cases:
        try:
            check_document(doc)
            got_ok = True
        except CheckError:
            got_ok = False
        status = "ok" if got_ok == want_ok else "FAIL"
        if got_ok != want_ok:
            failures += 1
        print(f"  [{status}] {name}")

    a, b = _bench_fixture(), _bench_fixture()
    b["timing"]["wall_seconds"] = 99.0
    b["series"][0]["timing"]["secs"] = [0.0, 123.0]
    b["metrics"]["histograms"][0]["sum_ns"] = 12345
    if strip_timing(a) != strip_timing(b):
        failures += 1
        print("  [FAIL] strip_timing must erase wall-clock differences")
    else:
        print("  [ok] strip_timing erases wall-clock differences")
    b["series"][0]["kernel_coverage"] = [0, 41]
    if strip_timing(a) == strip_timing(b):
        failures += 1
        print("  [FAIL] strip_timing must preserve content differences")
    else:
        print("  [ok] strip_timing preserves content differences")

    a, b = _chrome_fixture(), _chrome_fixture()
    for ev in b["traceEvents"]:
        if ev["ph"] == "X":
            ev["ts"] += 1000
            ev["dur"] += 7
    if strip_timing(a) != strip_timing(b):
        failures += 1
        print("  [FAIL] strip_timing must erase chrome ts/dur differences")
    else:
        print("  [ok] strip_timing erases chrome ts/dur differences")
    b["traceEvents"][3]["name"] = "other"
    if strip_timing(a) == strip_timing(b):
        failures += 1
        print("  [FAIL] strip_timing must preserve span-name differences")
    else:
        print("  [ok] strip_timing preserves span-name differences")

    print(f"self-test: {'PASS' if failures == 0 else 'FAIL'}")
    return failures == 0


def main(argv):
    if len(argv) >= 1 and argv[0] == "--self-test":
        return 0 if self_test() else 1
    if len(argv) >= 1 and argv[0] == "--compare":
        if len(argv) != 3:
            print("usage: check_bench_json.py --compare A B")
            return 2
        return 0 if compare_files(argv[1], argv[2]) else 1
    if not argv:
        print(__doc__)
        return 2
    ok = all([validate_file(p) for p in argv])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
