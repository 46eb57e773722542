#!/usr/bin/env python3
"""Runs one workload of the tokq benchmark and prints its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and prints two JSON lines: the run's
context (host load, commit, sample counts, raw counters), then the result
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones. Exits non-zero without a result if the build, a
correctness check or a workload-shape check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tcp_contended", "tcp_uncontended", "sim_token_loss")
# Each run must end within 180 s; the binary's own window is far shorter.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    return os.path.join(target, "release", "perfbench")


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def git_commit():
    """HEAD of the repository, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from, to tell builds
    apart where no git commit is available."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        fail(f"--seed {args.seed} is outside 0..2^64")

    binary = build()
    # One CPU for the whole run: on a small shared VM, wake-ups that cross
    # to another vCPU make throughput wander by a fifth between runs.
    cpu = max(os.sched_getaffinity(0))
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "loadavg_before": loadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    os.sched_setaffinity(0, {cpu})
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if out.returncode != 0:
        fail(f"{args.workload} failed with exit code {out.returncode}")
    context["loadavg_after"] = loadavg()

    metrics, info, counts = {}, {}, None
    for line in out.stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "M":
            name, unit, value = rest.split(" ")
            metrics[name] = {"value": float(value), "unit": unit}
        elif tag == "I":
            key, _, value = rest.partition(" ")
            info[key] = value
        elif tag == "A":
            attempted, failed = (int(x) for x in rest.split(" "))
            counts = (attempted, failed)
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected or counts is None or counts[0] < 1:
        fail(f"output does not match BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")

    print(json.dumps({"context": context, "detail": info}))
    print(json.dumps({"correct": True, "attempted": counts[0], "failed": counts[1], "metrics": metrics}))


if __name__ == "__main__":
    main()
