#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-check

Builds the `perfbench` package beside this file and the workspace's
`floodd` (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), then runs one workload. The
last line of stdout is the result as one JSON object; cargo's output
goes to stderr. `--self-check` runs every workload at tiny sizes, traced
and untraced, and checks that each run passes its output checks and
reports exactly the metrics `BENCHMARK.json` names, with their units.
See README.md beside this file for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark and floodd; returns the two executables."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    builds = [
        [os.path.join(HERE, "Cargo.toml")],
        [os.path.join(ROOT, "Cargo.toml"), "-p", "fastflood-service", "--bin", "floodd"],
    ]
    for manifest, *extra in builds:
        if not os.path.isfile(manifest):
            fail(f"{manifest} is missing: run from a full checkout of the repository")
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
        done = subprocess.run(
            cmd + extra,
            cwd=ROOT,
            env=dict(os.environ, CARGO_TARGET_DIR=target),
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd + extra)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "floodd")


def bench_args(bench, floodd, workload, seed, seconds, trace, tiny=False):
    args = [
        bench,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--floodd", floodd,
        "--scratch", os.path.join(ROOT, ".perfbench_scratch"),
        "--expected", os.path.join(HERE, "expected.txt"),
    ]
    return args + ["--tiny"] if tiny else args


def self_check(bench, floodd):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = f"{workload} --trace {trace}"
            done = subprocess.run(
                bench_args(bench, floodd, workload, 1, 1, trace, tiny=True),
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{what}: exit code {done.returncode}")
                continue
            result = json.loads(lines[-1])
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{what}: output checks failed: " + "; ".join(
                    l for l in lines if l.startswith("check-failed")))
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(f"{what}: missing {missing}, unlisted {extra}, wrong units {units}")
            if trace == 0:
                zero = sorted(k for k, m in metrics.items() if not m["value"] > 0)
                if zero:
                    problems.append(f"{what}: end-to-end metrics not above 0: {zero}")
            elif metrics.get("core.steps", {}).get("value", 0) > 0:
                # the step span splits into move + transmit + other
                value = lambda k: metrics[k]["value"]
                parts = sum(value(k) for k in (
                    "mobility.move_ms_per_step",
                    "spatial.refresh_ms_per_step",
                    "spatial.join_apply_ms_per_step",
                    "core.step_other_ms_per_step",
                ))
                span = value("core.step_ms_per_step")
                if abs(parts - span) > 1e-9 * max(1.0, span):
                    problems.append(f"{what}: layers sum to {parts} ms, step span is {span} ms")
            print(f"self-check {what}: {len(metrics)} metrics, attempted {result['attempted']}")
    for p in problems:
        print(f"self-check FAILED {p}")
    if problems:
        sys.exit(1)
    print("self-check ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload or --self-check is required")
    bench, floodd = build()
    if args.self_check:
        self_check(bench, floodd)
        return
    done = subprocess.run(
        bench_args(bench, floodd, args.workload, args.seed, args.seconds, args.trace),
        cwd=ROOT,
    )
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
