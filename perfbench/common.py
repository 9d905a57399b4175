"""Helpers shared by the workloads: the scratch directory, the run
clock, order statistics, the result line and the correctness checks
that are not specific to one workload."""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from statistics import median

#: scratch space for WALs and sockets, relative to the checkout root
#: the benchmark runs from (listed in the repository's .gitignore)
WORK_ROOT = ".perfbench_work"


class CheckFailed(Exception):
    """An output of the program disagreed with its independent check."""


class WorkDir:
    """A per-run directory under :data:`WORK_ROOT`, removed on exit."""

    def __init__(self, tag):
        self.path = os.path.join(WORK_ROOT, "{}-{}".format(tag, os.getpid()))
        self._count = 0

    def __enter__(self):
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc_info):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it, or it holds leftovers

    def fresh(self, name):
        """A new, not yet existing path inside the run directory."""
        self._count += 1
        return os.path.join(self.path, "{}{}".format(name, self._count))


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


def peak_rss_mb(pid="self"):
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open("/proc/{}/status".format(pid)) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line for process {}".format(pid))


def tail(values):
    """``(percentile, value)``: the highest of p90/p99/p99.9 that still
    has at least ten samples beyond it, or ``None`` below 40 samples."""
    count = len(values)
    if count < 40:
        return None
    ordered = sorted(values)
    best = None
    for pct in (90.0, 99.0, 99.9):
        if count * (100.0 - pct) / 100.0 >= 10:
            rank = min(count - 1, int(round(pct / 100.0 * (count - 1))))
            best = (pct, ordered[rank])
    return best


def describe_latencies(label, samples):
    """One stderr line of raw (unscaled) times: sample count, median
    and the tail percentile. ``samples`` holds ``(seconds, probe)``."""
    ms = [seconds * 1e3 for seconds, __ in samples]
    line = "{}: n={} raw p50={:.3f}ms".format(label, len(ms), median(ms))
    found = tail(ms)
    if found is not None:
        line += " p{:g}={:.3f}ms".format(*found)
    note(line)


def note(message):
    sys.stderr.write(message + "\n")
    sys.stderr.flush()


class Clock:
    """The measurement window: whole rounds run until ``seconds`` of
    wall time have passed since :meth:`start` (at least one round)."""

    def __init__(self, seconds):
        self.seconds = seconds
        self._start = None

    def start(self):
        self._start = time.perf_counter()

    def more(self, rounds_done):
        if rounds_done == 0:
            return True
        return time.perf_counter() - self._start < self.seconds


class _Probe:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


_PROBES = {str(number): _Probe(str(number), number) for number in range(512)}
_PROBE_KEYS = list(_PROBES)


def _probe_loop():
    """Fixed pure-Python work shaped like the program's (attribute
    reads, dict lookups, string building) that allocates no container:
    the cyclic garbage collector, whose cost grows with the program's
    heap, never runs inside it."""
    total = 0
    for number in range(9600):
        key = _PROBE_KEYS[number % 512]
        probe = _PROBES[key]
        total += probe.value * number % 7 + len(key + "x")
        if number % 3 == 0:
            other = _PROBES.get(str(number % 700))
            if other is not None:
                total += other.value
    return total


class Speed:
    """The host's speed, probed between pieces of work.

    Shared virtual machines change speed by tens of percent over
    seconds, so the workloads time a fixed loop (:func:`_probe_loop`)
    between rounds and scale each time measured by ``REFERENCE_S`` over
    the loop's time around it. A scaled time is what the work would
    have taken on a host where the loop takes ``REFERENCE_S``; raw
    times go to stderr beside them.

    A sample is ``(seconds, where)``. ``where`` is either the index of
    the probe taken just before a short round (scaled by the median of
    the five nearest probes) or a ``(first, last)`` range of probes
    taken around and inside a long piece of work (see :meth:`around`).
    """

    #: the probe loop's time on the reference host, in seconds
    REFERENCE_S = 0.004

    #: probes taken before and after a long piece of work
    BRACKET = 3

    def __init__(self):
        self.probes = []

    def probe(self):
        """Time the loop once; returns the probe's index."""
        start = time.perf_counter()
        _probe_loop()
        self.probes.append(time.perf_counter() - start)
        return len(self.probes) - 1

    def bracket(self):
        """Probe ``BRACKET`` times; returns the first index."""
        first = len(self.probes)
        for __ in range(self.BRACKET):
            self.probe()
        return first

    def around(self, first):
        """The ``where`` of a long piece of work that began after
        ``bracket()`` returned ``first``; probes once more after it."""
        self.bracket()
        return (first, len(self.probes) - 1)

    def _factor(self, where):
        if isinstance(where, tuple):
            first, last = where
        else:
            first, last = max(0, where - 2), where + 2
        return self.REFERENCE_S / median(
            self.probes[first:last + 1])

    def scale(self, samples):
        """``[(seconds, where)]`` -> scaled seconds."""
        return [seconds * self._factor(where) for seconds, where in samples]

    def describe(self):
        """Probe speed range relative to the reference, for stderr."""
        ordered = sorted(self.probes)
        return "{:.2f}x..{:.2f}x of reference (median {:.2f}x)".format(
            self.REFERENCE_S / ordered[-1], self.REFERENCE_S / ordered[0],
            self.REFERENCE_S / median(ordered))


def unscaled(samples):
    """``[(seconds, where)]`` -> the seconds as measured."""
    return [seconds for seconds, __ in samples]


def check_equal(what, expected, actual):
    """Byte comparison of two texts; names the first differing offset."""
    if expected == actual:
        return
    limit = min(len(expected), len(actual))
    offset = next((i for i in range(limit) if expected[i] != actual[i]),
                  limit)
    raise CheckFailed("{}: texts differ at offset {} (expected {} chars, "
                      "got {})".format(what, offset, len(expected),
                                       len(actual)))


def check_label_nesting(what, document, labeling):
    """Every node carries a label whose interval lies strictly inside
    its parent's, and whose parent pointer names that parent — the
    containment property the labeling must keep after any update."""
    root = document.root
    stack = [(root, None)]
    seen = 0
    while stack:
        node, parent = stack.pop()
        label = labeling.find(node.node_id)
        if label is None:
            raise CheckFailed("{}: node {} has no label".format(
                what, node.node_id))
        if not label.start < label.end:
            raise CheckFailed("{}: empty interval on node {}".format(
                what, node.node_id))
        if parent is not None:
            outer = labeling.find(parent.node_id)
            if label.parent_id != parent.node_id:
                raise CheckFailed("{}: node {} names parent {}, tree says "
                                  "{}".format(what, node.node_id,
                                              label.parent_id,
                                              parent.node_id))
            if not (outer.start < label.start and label.end < outer.end):
                raise CheckFailed(
                    "{}: interval of node {} [{}, {}] is not nested in its "
                    "parent's [{}, {}]".format(
                        what, node.node_id, label.start, label.end,
                        outer.start, outer.end))
        seen += 1
        for child in node.attributes:
            stack.append((child, node))
        for child in node.children:
            stack.append((child, node))
    if seen != len(document):
        raise CheckFailed("{}: walked {} nodes, document indexes {}".format(
            what, seen, len(document)))


class Result:
    """Counts and metrics of one run, printed as the last stdout line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.correct = True

    def add(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def line(self):
        return json.dumps({"correct": self.correct,
                           "attempted": self.attempted,
                           "failed": self.failed,
                           "metrics": self.metrics})
