#!/usr/bin/env python3
"""Compares two servebench builds over interleaved pairs of runs.

    python3 scripts/compare.py --base REV|BIN [--change REV|BIN] \\
        [--workload NAME ...] [--pairs 10] [--seconds S] [--trace 0|1] \\
        [--first-seed 1] [--work-dir DIR]

Each side is a git revision of this repository or a servebench binary.
A revision's servebench is built offline in a temporary `git worktree`
with its own CARGO_TARGET_DIR (under `--work-dir`, a fresh temporary
directory by default); the worktrees and target dirs are removed when
the comparison ends. Without `--change` the change side is this
checkout as it stands, built into servebench/target. Two sides given
as revisions (or a revision and this checkout) must have identical
`servebench/` trees, since a different benchmark measures something
else: otherwise the script refuses with exit status 2. A binary is
taken as it is; build one from its own checkout and target dir with

    CARGO_TARGET_DIR=/tmp/base-target cargo build --release --offline \\
        --manifest-path servebench/Cargo.toml

For each workload it runs `--pairs` pairs, one seed per pair
(`--first-seed`, the next, ...), base and change back to back,
alternating which side goes first. For
each end-to-end metric of BENCHMARK.json (plus its per-layer metrics
with `--trace 1`) it prints both medians, the base runs' IQR, the
median of the per-pair ratios change/base, a bootstrap 95% interval of
that median, and how many pairs the change won. An end-to-end metric
whose median ratio is worse than its BENCHMARK.json bound is flagged.
A gain counts only if it wins at least nine of ten pairs, moves the
median by more than the base IQR and its interval excludes 1.0
(docs/EXPERIMENTS.md).

Runs go one at a time. Exit status: 0 when every run passed parity with
no failed operation, 1 otherwise, 2 on bad arguments (including a
revision that does not resolve or build, or differing `servebench/`
trees). Flags are reported, not turned into an exit status: a short
A/A run can cross a bound by chance.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

from servebench_baseline import quantile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP_SAMPLES = 2000


class Refused(Exception):
    """A side that cannot be compared: exit status 2."""


def git(*args):
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise Refused(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def build(tree, target_dir):
    """Builds the servebench of checkout `tree` offline into
    `target_dir` and returns its binary."""
    print(f"building servebench in {tree}", file=sys.stderr, flush=True)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(tree, "servebench", "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
    if done.returncode != 0:
        raise Refused(f"servebench failed to build in {tree}")
    return os.path.join(target_dir, "release", "servebench")


def resolve(spec):
    """What a --base/--change value names: a binary path, a commit, or
    (None) this checkout."""
    if spec is None:
        return {"checkout": True}
    if os.path.isfile(spec):
        return {"binary": os.path.abspath(spec), "label": spec}
    try:
        commit = git("rev-parse", "--verify", "--quiet", spec + "^{commit}")
    except Refused:
        raise Refused(f"{spec} is neither a servebench binary nor a git revision") from None
    return {"commit": commit, "label": f"{spec} ({commit[:12]})"}


def servebench_tree(commit):
    try:
        return git("rev-parse", f"{commit}:servebench")
    except Refused:
        raise Refused(f"{commit[:12]} has no servebench/") from None


def check_same_benchmark(base, change):
    """Refuses two source sides whose servebench/ trees differ."""
    if "binary" in base or "binary" in change:
        return
    revs = [side["commit"] for side in (base, change) if "commit" in side]
    if len(revs) == 2:
        same = len({servebench_tree(rev) for rev in revs}) == 1
    elif len(revs) == 1:
        # The other side is this checkout: its tracked and untracked files.
        same = (subprocess.run(["git", "-C", ROOT, "diff", "--quiet", revs[0], "--",
                                "servebench"]).returncode == 0
                and not git("ls-files", "--others", "--exclude-standard", "--", "servebench"))
    else:
        same = True
    if not same:
        raise Refused("servebench/ differs between the two sides: "
                      "they would run different benchmarks")


class Worktrees:
    """Builds revisions in temporary worktrees that `close` removes,
    with their target dirs."""

    def __init__(self, work_dir):
        self.owned = work_dir is None
        self.work_dir = work_dir
        self.trees = []

    def binary(self, name, side):
        if "binary" in side:
            return side["binary"]
        if "checkout" in side:
            return build(ROOT, os.path.join(ROOT, "servebench", "target"))
        if self.work_dir is None:
            self.work_dir = tempfile.mkdtemp(prefix="compare-")
        tree = os.path.join(self.work_dir, name)
        git("worktree", "add", "--detach", tree, side["commit"])
        self.trees.append(tree)
        return build(tree, tree + "-target")

    def close(self):
        for tree in self.trees:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", tree],
                           capture_output=True)
            shutil.rmtree(tree + "-target", ignore_errors=True)
        if self.trees:
            subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True)
        if self.owned and self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)


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
    parser.add_argument("--base", required=True,
                        help="git revision or servebench binary of the parent")
    parser.add_argument("--change",
                        help="git revision or servebench binary of the change "
                             "(default: this checkout)")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair k runs seed first-seed + k - 1")
    parser.add_argument("--work-dir",
                        help="where revisions are checked out and built "
                             "(default: a temporary directory)")
    opts = parser.parse_args()
    if opts.pairs < 1 or opts.seconds < 1 or opts.first_seed < 0:
        parser.error("--pairs and --seconds must be at least 1, --first-seed at least 0")

    trees = Worktrees(opts.work_dir)
    try:
        sides = {name: resolve(getattr(opts, name)) for name in ("base", "change")}
        check_same_benchmark(sides["base"], sides["change"])
        binaries = {name: trees.binary(name, side) for name, side in sides.items()}
        for name, side in sides.items():
            print(f"{name}: {side.get('label', 'this checkout')}", file=sys.stderr)
        return compare(bench, opts, binaries)
    except Refused as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    finally:
        trees.close()


def compare(bench, opts, binaries):
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
                metrics = run_once(binaries[side], workload, opts.first_seed + pair,
                                   opts.seconds, opts.trace)
                ok &= metrics is not None
                runs[side].append(metrics)
        pairs = [(b, c) for b, c in zip(runs["base"], runs["change"]) if b and c]
        seeds = f"seeds {opts.first_seed}-{opts.first_seed + opts.pairs - 1}"
        print(f"\n{workload}: {len(pairs)} pairs of {opts.seconds} s runs, {seeds}, "
              f"trace {opts.trace}")
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
