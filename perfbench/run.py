"""The PUL store's benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload ingest|serve|replay --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Inputs are generated from ``--seed``
before anything is timed. Each workload repeats whole rounds of the
same operations for ``--seconds``, checks the program's outputs against
independent computations, and prints, as the last line of stdout, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run spends half its time untraced and half traced,
and the metrics are the per-layer ones (see README.md), including the
tracing overhead. Exits 0 when every check passed, 1 when a check
failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    CheckFailed, Clock, Result, WorkDir, note, unscaled)

WORKLOADS = ("ingest", "serve", "replay")


def _untraced(module, inputs, work, seconds, result):
    state = module.measure(inputs, work, Clock(seconds), result)
    began = time.perf_counter()
    module.verify(inputs, state)
    note("checks: {:.1f} s".format(time.perf_counter() - began))
    for name, (value, unit) in module.metrics(
            state, state["speed"].scale).items():
        result.add(name, value, unit)
    note("unscaled metrics: {}".format(json.dumps(
        {name: value for name, (value, __) in module.metrics(
            state, unscaled).items()})))
    module.describe(state)


def _traced(module, inputs, work, seconds, result):
    import spans

    half = seconds / 2.0
    plain = module.measure(inputs, work, Clock(half), result)
    module.verify(inputs, plain)
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    began = time.perf_counter()
    try:
        state = module.measure(inputs, work, Clock(half), result,
                               tracer=tracer)
    finally:
        installed.remove()
    wall = time.perf_counter() - began
    module.verify(inputs, state)
    local = spans.summarize(tracer)
    remote = state["remote"]
    summary = spans.merge(local, *remote)
    overhead = (module.cost(state) / module.cost(plain) - 1.0) * 100.0
    note("tracing overhead: {:+.1f}% ({:.4g} s traced vs {:.4g} s "
         "untraced per unit of work)".format(
             overhead, module.cost(state), module.cost(plain)))
    for label, part in [("benchmark process", local)] + [
            ("server process", part) for part in remote]:
        note("self time by span, {} ({:.1f} s traced phase):".format(
            label, wall))
        for name, spent, share in spans.shares(part, wall)[:20]:
            note("  {:<28} {:9.3f} s {:6.1%}".format(name, spent, share))
    for name, (value, unit) in spans.layer_metrics(summary).items():
        result.add(name, value, unit)
    result.add("trace.overhead_pct", overhead, "%")


def _pin_to_one_cpu():
    """Run the benchmark, the server it starts and all their threads on
    one CPU, the highest-numbered this process may use. The host's
    speed swings differ between CPUs, so the speed probe must run where
    the measured work runs; on one CPU the server's hops between
    threads and processes also stop paying for cross-CPU wake-ups,
    whose cost the shared host varies most."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one workload of the PUL store benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        note("error: the program's sources are not at {}".format(SRC))
        return 2
    sys.path.insert(0, SRC)
    _pin_to_one_cpu()
    module = importlib.import_module(args.workload)
    result = Result()
    with WorkDir(args.workload) as work:
        began = time.perf_counter()
        inputs = module.build_inputs(args.seed, module.SIZES)
        note("inputs: {:.1f} s".format(time.perf_counter() - began))
        run = _traced if args.trace else _untraced
        try:
            run(module, inputs, work, args.seconds, result)
        except CheckFailed as failure:
            note("CHECK FAILED: {}".format(failure))
            result.correct = False
    print(result.line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
