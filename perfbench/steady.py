"""Steadiness check: run each workload repeatedly, in two sets, on the
same code, and print per metric the median, the quartiles and the
relative spread (quartile distance / median) of each set, plus how far
the second set's median moved from the first's.

    python3 perfbench/steady.py [--workloads ingest serve replay]
        [--runs 10] [--seconds 20] [--first-seed 1]

Runs are untraced. The sets run one after the other (set 1 of every
workload, then set 2), and every run gets its own seed: set 1 takes
seeds ``first-seed`` upwards, set 2 continues where set 1 stopped.
Beside every time metric as reported (scaled by the host-speed probe)
the table shows the same metric unscaled, read from the run's stderr.
The bounds in BENCHMARK.json are set from this output; a spread must
stay within its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

SETS = 2

UNSCALED_PREFIX = "unscaled metrics: "


def run_once(workload, seed, seconds):
    """``(result, unscaled metrics)`` of one untraced run."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, timeout=600)
    lines = completed.stdout.decode("utf-8").strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError("{} seed {} exited with {}".format(
            workload, seed, completed.returncode))
    unscaled = {}
    for line in completed.stderr.decode("utf-8").splitlines():
        if line.startswith(UNSCALED_PREFIX):
            unscaled = json.loads(line[len(UNSCALED_PREFIX):])
    return json.loads(lines[-1]), unscaled


def spread(values):
    """``(median, q1, q3, (q3 - q1) / median)`` as ``quantiles`` gives
    them."""
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return middle, q1, q3, (q3 - q1) / middle if middle else float("inf")


def _row(label, set_label, values):
    middle, q1, q3, relative = spread(values)
    print("   {:<24}{:>6}  {:>12.5g} {:>12.5g} {:>12.5g} {:>7.1%}".format(
        label, set_label, middle, q1, q3, relative))
    return middle


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["ingest", "serve", "replay"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    runs = {workload: [[] for __ in range(SETS)]
            for workload in args.workloads}
    seeds = {workload: [[] for __ in range(SETS)]
             for workload in args.workloads}
    seed = args.first_seed
    for set_index in range(SETS):
        for workload in args.workloads:
            for __ in range(args.runs):
                result, unscaled = run_once(workload, seed, args.seconds)
                runs[workload][set_index].append((result, unscaled))
                seeds[workload][set_index].append(seed)
                sys.stderr.write("{} set {} seed {}: {}\n".format(
                    workload, set_index + 1, seed, json.dumps(
                        {name: round(metric["value"], 4)
                         for name, metric in result["metrics"].items()})))
                seed += 1
    for workload, sets in runs.items():
        print("== {} ({} runs per set, {} s each; seeds {})".format(
            workload, args.runs, args.seconds, " and ".join(
                "{}-{}".format(used[0], used[-1])
                for used in seeds[workload])))
        failed = ["{}/{}".format(sum(r["failed"] for r, __ in results),
                                 sum(r["attempted"] for r, __ in results))
                  for results in sets]
        correct = all(r["correct"] for results in sets
                      for r, __ in results)
        print("   correct: {}   failed/attempted per set: {}".format(
            correct, "  ".join(failed)))
        print("   {:<24}{:>6}  {:>12} {:>12} {:>12} {:>8}".format(
            "metric", "set", "median", "q1", "q3", "spread"))
        for name in sets[0][0][0]["metrics"]:
            labels = [(name, lambda pair: pair[0]["metrics"][name]["value"])]
            if sets[0][0][1].get(name) != \
                    sets[0][0][0]["metrics"][name]["value"]:
                labels.append(("  unscaled", lambda pair: pair[1][name]))
            for label, pick in labels:
                medians = [_row(label, set_index + 1,
                                [pick(pair) for pair in results])
                           for set_index, results in enumerate(sets)]
                print("   {:<24}{:>6}  {:>+12.1%}".format(
                    "", "drift", medians[-1] / medians[0] - 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
