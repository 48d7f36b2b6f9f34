#!/usr/bin/env python3
"""Closed-loop control-round benchmark of the PREPARE reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` Cargo package next to this file (release profile,
offline; the repository's crates are its path dependencies) into
$CARGO_TARGET_DIR, default `.bench_build`, runs it, and prints as the last
line of standard output one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

A run's length is fixed by the workload (three repetitions of a fixed
number of control rounds); `--seconds` is passed on and not acted on.

With `--trace 0` the metrics are the `end_to_end` metrics of
BENCHMARK.json, from one untraced run. With `--trace 1` they are its
`per_layer` metrics: from a traced run, plus an untraced run of the same
seed (for `bench.tracing_overhead`) and a single-worker run with
PREPARE_WORKERS=1 (for `par.serial_predict_round_p50_ms` and
`par.speedup`). Spans of the traced run are written to
`perfbench/out/`.

Exits non-zero, without a result line, when the build or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_PREFIX = "PERFBENCH "
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark; returns the path of its binary."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run(binary, args, trace, extra=(), env_extra=None):
    """Runs the benchmark binary once; returns its parsed result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0", *extra]
    env = dict(os.environ, **(env_extra or {}))
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"run failed: {err}")
    lines = done.stdout.splitlines()
    for line in lines:
        if not line.startswith(RESULT_PREFIX):
            print(line)
    if done.returncode != 0:
        fail(f"run exited with code {done.returncode}")
    results = [line for line in lines if line.startswith(RESULT_PREFIX)]
    if not results:
        fail("run printed no result")
    return json.loads(results[-1][len(RESULT_PREFIX):])


def value(result, name):
    metric = result["metrics"].get(name)
    if metric is None or metric.get("value") is None:
        fail(f"run did not report {name}")
    return metric["value"]


def select(result, specs):
    """The named metrics of one run, units checked against BENCHMARK.json."""
    out = {}
    for spec in specs:
        name = spec["name"]
        metric = result["metrics"].get(name)
        if metric is None or metric.get("value") is None:
            fail(f"run did not report {name}")
        if metric["unit"] != spec["unit"]:
            fail(f"{name}: unit {metric['unit']!r}, BENCHMARK.json says {spec['unit']!r}")
        out[name] = {"value": metric["value"], "unit": spec["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    binary = build()

    if not args.trace:
        result = run(binary, args, trace=False)
        attempted, failed = int(result["attempted"]), int(result["failed"])
        metrics = select(result, spec["end_to_end"])
    else:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        untraced = run(binary, args, trace=False)
        traced = run(binary, args, trace=True, extra=("--spans", spans))
        serial = run(binary, args, trace=False, extra=("--reps", "1"),
                     env_extra={"PREPARE_WORKERS": "1"})
        runs = [untraced, traced, serial]
        # One seed, so the traced and single-worker runs must reproduce
        # the untraced run's inputs, decisions, models and actions.
        attempted = sum(int(r["attempted"]) for r in runs) + 1
        failed = sum(int(r["failed"]) for r in runs)
        if any(r["digests"] != untraced["digests"] for r in runs):
            print(f"FAILED: digests differ across runs: {[r['digests'] for r in runs]}")
            failed += 1
        serial_p50 = value(serial, "core.predict_round_p50_ms")
        parallel_p50 = value(untraced, "core.predict_round_p50_ms")
        traced["metrics"]["par.serial_predict_round_p50_ms"] = {"value": serial_p50, "unit": "ms"}
        traced["metrics"]["par.speedup"] = {
            "value": serial_p50 / parallel_p50 if parallel_p50 > 0 else 0.0, "unit": "ratio"}
        traced["metrics"]["bench.tracing_overhead"] = {
            "value": value(untraced, "vm_samples_per_s") / value(traced, "vm_samples_per_s") - 1.0,
            "unit": "ratio"}
        traced["metrics"]["bench.failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        metrics = select(traced, spec["per_layer"])
        print(f"spans written to {os.path.relpath(spans, ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
