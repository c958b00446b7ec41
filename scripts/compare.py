#!/usr/bin/env python3
"""Compares two servebench binaries over interleaved pairs of runs.

    python3 scripts/compare.py --base BASE_BIN --change CHANGE_BIN \\
        [--workload NAME ...] [--pairs 10] [--seconds S] [--trace 0|1]

Build each side's binary once, from its own checkout and target dir:

    CARGO_TARGET_DIR=/tmp/base-target cargo build --release --offline \\
        --manifest-path servebench/Cargo.toml

For each workload it runs `--pairs` pairs, one seed per pair (1, 2, ...),
base and change back to back, alternating which side goes first. For
each end-to-end metric of BENCHMARK.json (plus its per-layer metrics
with `--trace 1`) it prints both medians, the base runs' IQR, the
median of the per-pair ratios change/base, a bootstrap 95% interval of
that median, and how many pairs the change won. An end-to-end metric
whose median ratio is worse than its BENCHMARK.json bound is flagged.
A gain counts only if it wins at least nine of ten pairs, moves the
median by more than the base IQR and its interval excludes 1.0
(docs/EXPERIMENTS.md).

Runs go one at a time. Exit status: 0 when every run passed parity with
no failed operation, 1 otherwise, 2 on bad arguments. Flags are
reported, not turned into an exit status: a short A/A run can cross a
bound by chance.
"""

import argparse
import json
import os
import random
import subprocess
import sys

from servebench_baseline import quantile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP_SAMPLES = 2000


def run_once(binary, workload, seed, seconds, trace):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  {binary} {workload} seed {seed} failed (exit {done.returncode}):\n"
              f"{done.stdout}{done.stderr}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {binary} {workload} seed {seed}: parity {result['correct']}, "
              f"failed {result['failed']}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def median(values):
    return quantile(sorted(values), 0.5)


def ratio(change, base):
    if base == 0:
        return 1.0 if change == 0 else float("inf")
    return change / base


def bootstrap_interval(ratios, rng):
    medians = sorted(median([rng.choice(ratios) for _ in ratios])
                     for _ in range(BOOTSTRAP_SAMPLES))
    return quantile(medians, 0.025), quantile(medians, 0.975)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="servebench binary of the parent")
    parser.add_argument("--change", required=True, help="servebench binary of the change")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opts = parser.parse_args()
    if opts.pairs < 1 or opts.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")

    gated = {m["name"]: m for m in bench["end_to_end"]}
    reported = list(bench["end_to_end"]) + (bench["per_layer"] if opts.trace else [])
    rng = random.Random(0)
    ok = True
    flagged = []
    for workload in opts.workload or [w["name"] for w in bench["workloads"]]:
        runs = {"base": [], "change": []}
        for pair in range(opts.pairs):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for side in order:
                print(f"{workload} pair {pair + 1}/{opts.pairs} {side}",
                      file=sys.stderr, flush=True)
                metrics = run_once(getattr(opts, side), workload, pair + 1,
                                   opts.seconds, opts.trace)
                ok &= metrics is not None
                runs[side].append(metrics)
        pairs = [(b, c) for b, c in zip(runs["base"], runs["change"]) if b and c]
        print(f"\n{workload}: {len(pairs)} pairs of {opts.seconds} s runs, trace {opts.trace}")
        print(f"  {'metric':<38} {'base':>12} {'base IQR':>12} {'change':>12} "
              f"{'ratio':>7} {'95% interval':>16} {'wins':>6}")
        for spec in reported:
            name = spec["name"]
            kept = [(b[name], c[name]) for b, c in pairs if name in b and name in c]
            if not kept:
                continue
            ratios = [ratio(c, b) for b, c in kept]
            mid = median(ratios)
            lo, hi = bootstrap_interval(ratios, rng)
            higher = spec["better"] == "higher"
            wins = sum((c > b) if higher else (c < b) for b, c in kept)
            flag = ""
            bound = gated.get(name, {}).get("bound")
            if bound is not None and (mid < 1 - bound if higher else mid > 1 + bound):
                flag = f"  PAST BOUND {bound}"
                flagged.append(f"{workload} {name}")
            base = sorted(b for b, _ in kept)
            iqr = quantile(base, 0.75) - quantile(base, 0.25)
            interval = f"[{lo:.3f}, {hi:.3f}]"
            print(f"  {name:<38} {median(base):>12.5g} {iqr:>12.5g} "
                  f"{median([c for _, c in kept]):>12.5g} {mid:>7.3f} "
                  f"{interval:>16} {wins:>3}/{len(kept)}{flag}")
    print(f"\npast bound: {', '.join(flagged) if flagged else 'none'}")
    if not ok:
        print("some runs failed; their pairs were left out", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
