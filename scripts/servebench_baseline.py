#!/usr/bin/env python3
"""Regenerates BENCH_baseline.json from servebench runs.

    python3 scripts/servebench_baseline.py

Runs the benchmark BENCHMARK.json declares (its `command`, for
`run_seconds` each) once per workload and seed untraced (`--trace 0`,
the end-to-end metrics) and once traced (`--trace 1`, the per-layer
metrics), one run at a time, and writes the median, the quartiles and
the IQR of every metric over the seeds, plus a host line. Any run with
a parity failure or a failed operation aborts the script and leaves the
baseline file as it was.
"""

import datetime
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 scripts/servebench_baseline.py"
# Five seeds: enough for quartiles that are actual runs (the 2nd and 4th
# smallest), few enough that all 30 runs take about ten minutes.
SEEDS = [1, 2, 3, 4, 5]


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(values, unit):
    values = sorted(values)
    q1, median, q3 = (quantile(values, q) for q in (0.25, 0.5, 0.75))
    tidy = lambda v: float(f"{v:.6g}")
    return {
        "unit": unit,
        "median": tidy(median),
        "q1": tidy(q1),
        "q3": tidy(q3),
        "iqr": tidy(q3 - q1),
    }


def run_once(command, workload, seed, seconds, traced):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if traced else "0",
    ]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"servebench {workload} seed {seed} trace {int(traced)} failed "
                 f"(exit {done.returncode}):\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"servebench {workload} seed {seed} trace {int(traced)}: parity "
                 f"{result['correct']}, failed {result['failed']}")
    return result["metrics"]


def host_line():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()} vCPU {model}, {platform.system()} {platform.release()}, "
            f"cargo release profile")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    order = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]

    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = {}
        for traced, group in ((False, "end_to_end"), (True, "per_layer")):
            samples = {}
            for seed in SEEDS:
                print(f"servebench {workload} seed {seed} trace {int(traced)}",
                      file=sys.stderr, flush=True)
                for name, m in run_once(bench["command"], workload, seed, seconds,
                                        traced).items():
                    samples.setdefault(name, (m["unit"], []))[1].append(m["value"])
            names = sorted(samples, key=lambda n: (order.index(n) if n in order
                                                   else len(order), n))
            entry[group] = {n: summarize(samples[n][1], samples[n][0]) for n in names}
        workloads[workload] = entry

    baseline = {
        "_comment": "servebench medians over seeds with quartiles and IQR "
                    "(linear interpolation); end_to_end from --trace 0 runs, per_layer "
                    "from --trace 1 runs. How to read it: docs/EXPERIMENTS.md.",
        "regenerate": COMMAND,
        "host": host_line(),
        "date": datetime.date.today().isoformat(),
        "seeds": SEEDS,
        "run_seconds": seconds,
        "workloads": workloads,
    }
    with open(os.path.join(ROOT, "BENCH_baseline.json"), "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
