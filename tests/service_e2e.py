#!/usr/bin/env python3
"""End-to-end test for the campaign service control plane (DESIGN.md §14).

Boots df_service on an ephemeral port, then drives the whole job lifecycle
over HTTP:

  - POST /jobs admits two campaigns (and rejects a malformed spec with 400),
  - GET /jobs lists them with queue order, GET /jobs/<id> shows the record,
  - POST /jobs/<id>/pause parks the long job, /resume re-enqueues it,
  - POST /jobs/<id>/cancel kills a queued job (terminal, never runs),
  - GET /healthz answers 200 "ok" at every probe point,
  - per-job /status and /coverage views populate after the first quantum,
  - the finished job's result document is byte-identical to an
    uninterrupted `df_service --oneshot` reference run of the same spec —
    the scheduler determinism contract, exercised through the real binary
    and the real HTTP surface,
  - POST /shutdown stops the scheduler loop and the process exits 0.

Usage: service_e2e.py <path-to-df_service> [workdir]

The workdir (default: a fresh temp dir) keeps the service root and the
service log; CI uploads it as an artifact when the test fails. A root/ left
in it by an earlier run is removed before the service starts.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

ANNOUNCE = re.compile(r"serving job API on http://127\.0\.0\.1:(\d+)/")

SPEC_A = {
    "name": "e2e-a", "devices": ["A1", "E"], "seed": 11, "budget": 1280,
    "priority": 1, "slice": 64, "sample_every": 128,
    "checkpoint_every": 256, "fault_rate": 0.0,
}
SPEC_B = {
    "name": "e2e-b", "devices": ["B"], "seed": 23, "budget": 1024,
    "priority": 0, "slice": 64, "sample_every": 128,
    "checkpoint_every": 256, "fault_rate": 0.0,
}
# Lowest priority (priorities are unsigned; a negative one is a 400), so
# it queues behind a and b until the cancel.
SPEC_C = {
    "name": "e2e-c", "devices": ["C1"], "seed": 7, "budget": 4096,
    "priority": 0, "slice": 64, "sample_every": 128,
    "checkpoint_every": 512, "fault_rate": 0.0,
}
BAD_SPEC = {"name": "nope", "devices": ["NOT-A-DEVICE"], "budget": 100}
NEGATIVE_BUDGET = {"devices": ["A1"], "budget": -1}


def request(port, path, body=None, method=None):
    url = f"http://127.0.0.1:{port}{path}"
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as res:
            return res.status, res.read().decode("utf-8")
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode("utf-8")


def healthz_ok(port):
    status, body = request(port, "/healthz")
    return status == 200 and body.strip() == "ok"


def wait_state(port, job_id, want, deadline_s=60):
    end = time.monotonic() + deadline_s
    state = "?"
    while time.monotonic() < end:
        status, body = request(port, f"/jobs/{job_id}")
        if status == 200:
            state = json.loads(body)["state"]
            if state == want:
                return True, state
        time.sleep(0.1)
    return False, state


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    binary = argv[0]
    workdir = argv[1] if len(argv) > 1 else tempfile.mkdtemp(
        prefix="df_service_e2e_")
    os.makedirs(workdir, exist_ok=True)
    root = os.path.join(workdir, "root")
    # A root left by an earlier run would make boot() re-enqueue its jobs;
    # every run starts from an empty service root.
    shutil.rmtree(root, ignore_errors=True)
    log_path = os.path.join(workdir, "df_service.log")

    log = open(log_path, "w")
    proc = subprocess.Popen(
        [binary, "--root", root, "--port", "0", "--idle-exit-ms", "120000"],
        stdout=subprocess.PIPE, stderr=log, text=True)

    def fail(msg):
        proc.kill()
        proc.wait()
        print(f"FAIL: {msg}")
        print(f"artifacts in {workdir}")
        return 1

    try:
        line = proc.stdout.readline()
        m = ANNOUNCE.search(line)
        if m is None:
            return fail(f"no announce line, got {line!r}")
        port = int(m.group(1))

        if not healthz_ok(port):
            return fail("/healthz not ok at boot")

        # Malformed spec: unknown device -> 400 with a descriptive error.
        status, body = request(port, "/jobs", body=BAD_SPEC)
        if status != 400 or "error" not in json.loads(body):
            return fail(f"bad spec must 400: {status} {body!r}")
        # Counts decode strictly: a negative budget is a 400 naming it.
        status, body = request(port, "/jobs", body=NEGATIVE_BUDGET)
        if status != 400 or "budget" not in json.loads(body)["error"]:
            return fail(f"negative budget must 400: {status} {body!r}")

        ids = {}
        for key, spec in (("a", SPEC_A), ("b", SPEC_B), ("c", SPEC_C)):
            status, body = request(port, "/jobs", body=spec)
            if status != 200:
                return fail(f"submit {key}: {status} {body!r}")
            ids[key] = json.loads(body)["id"]

        status, body = request(port, "/jobs")
        listing = json.loads(body)
        if status != 200 or len(listing["jobs"]) != 3:
            return fail(f"/jobs listing: {status} {body!r}")

        # Pause job a (running or queued — both legal), check it parks.
        status, body = request(port, f"/jobs/{ids['a']}/pause", method="POST")
        if status != 200:
            return fail(f"pause a: {status} {body!r}")
        ok, state = wait_state(port, ids["a"], "paused")
        if not ok:
            return fail(f"job a never paused (last state {state})")
        # Pausing a paused job is an invalid transition: 409.
        status, body = request(port, f"/jobs/{ids['a']}/pause", method="POST")
        if status != 409:
            return fail(f"double pause must 409: {status} {body!r}")

        if not healthz_ok(port):
            return fail("/healthz not ok while job paused")

        # Cancel the low-priority queued job: terminal, result stays empty.
        status, body = request(port, f"/jobs/{ids['c']}/cancel",
                               method="POST")
        if status != 200:
            return fail(f"cancel c: {status} {body!r}")
        ok, state = wait_state(port, ids["c"], "cancelled")
        if not ok:
            return fail(f"job c not cancelled (last state {state})")
        # Resuming a cancelled job is invalid: 409; unknown job is 404.
        status, _ = request(port, f"/jobs/{ids['c']}/resume", method="POST")
        if status != 409:
            return fail(f"resume cancelled must 409: {status}")
        status, _ = request(port, "/jobs/999/pause", method="POST")
        if status != 404:
            return fail(f"unknown job must 404: {status}")

        # Resume a; both a and b must finish.
        status, body = request(port, f"/jobs/{ids['a']}/resume",
                               method="POST")
        if status != 200:
            return fail(f"resume a: {status} {body!r}")
        for key in ("a", "b"):
            ok, state = wait_state(port, ids[key], "done", deadline_s=120)
            if not ok:
                return fail(f"job {key} never finished (last state {state})")

        # Per-job views are populated after the first quantum.
        for view in ("status", "coverage"):
            status, body = request(port, f"/jobs/{ids['a']}/{view}")
            if status != 200 or body.strip() in ("", "{}"):
                return fail(f"/jobs/{ids['a']}/{view} empty: {status}")

        if not healthz_ok(port):
            return fail("/healthz not ok after jobs finished")

        # Determinism: the preempted/paused/resumed job a reproduces the
        # uninterrupted --oneshot reference byte for byte.
        results = {}
        for key in ("a", "b"):
            status, body = request(port, f"/jobs/{ids[key]}")
            rec = json.loads(body)
            if rec["progress"] != rec["spec"]["budget"]:
                return fail(f"job {key} progress {rec['progress']}")
            results[key] = json.dumps(rec["result"], sort_keys=True)
        for key, spec in (("a", SPEC_A), ("b", SPEC_B)):
            spec_path = os.path.join(workdir, f"spec_{key}.json")
            with open(spec_path, "w") as f:
                json.dump(spec, f)
            out = subprocess.run(
                [binary, "--oneshot", spec_path, "--scratch",
                 os.path.join(workdir, f"oneshot_{key}")],
                capture_output=True, text=True, timeout=300)
            if out.returncode != 0:
                return fail(f"oneshot {key} failed: {out.stderr!r}")
            want = json.dumps(json.loads(out.stdout), sort_keys=True)
            if results[key] != want:
                return fail(f"job {key} diverged from reference:\n"
                            f"  service:   {results[key]}\n"
                            f"  reference: {want}")

        status, body = request(port, "/shutdown", method="POST")
        if status != 200:
            return fail(f"/shutdown: {status} {body!r}")
        if proc.wait(timeout=30) != 0:
            return fail(f"service exited {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        log.close()

    print("service_e2e: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
