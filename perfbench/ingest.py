"""The ``ingest`` workload: the durable write path, in process.

Several XMark documents receive rounds of random applicable updates
(:func:`generate_client_batches`) from several client names; every
round ends with one flush per document. The store logs each batch with
fsync before applying it (policy ``log``, ``group_window=0``).

A *pass* replays the whole generated session on a fresh store over a
fresh WAL directory; a run repeats passes until its time is up, so
every run attempts whole passes of identical operations.
"""

from __future__ import annotations

import random
import time

from common import (
    check_equal,
    check_label_nesting,
    describe_latencies,
    dir_bytes,
    median,
    note,
    peak_rss_mb,
    Speed,
)
from spans import paused

SIZES = {"docs": 4, "scale": 0.1, "clients": 4, "rounds": 32,
         "ops_per_round": 50}


def build_inputs(seed, sizes):
    """Documents (as XML text), per-round submissions and the text each
    document must reach — all derived from ``seed``. The expected text
    is where ``generate_client_batches`` takes the document through
    ``reduce_deterministic`` + ``apply_pul``, none of which is the
    store's in-place apply, label repair or index code."""
    from repro.workloads.clientgen import generate_client_batches
    from repro.workloads.xmark import generate_xmark
    from repro.xdm.serializer import serialize

    rng = random.Random(seed)
    docs = []
    for index in range(sizes["docs"]):
        document = generate_xmark(scale=sizes["scale"],
                                  seed=rng.randrange(1 << 30))
        rounds, final = generate_client_batches(
            document, clients=sizes["clients"], rounds=sizes["rounds"],
            ops_per_round=sizes["ops_per_round"],
            seed=rng.randrange(1 << 30))
        docs.append({"doc_id": "doc{}".format(index),
                     "xml": serialize(document), "rounds": rounds,
                     "expected": serialize(final)})
    return docs


def _run_pass(docs, wal_dir, state, result, tracer):
    speed = state["speed"]
    from repro.errors import ReproError
    from repro.store.store import DocumentStore

    # submit takes ownership of the PULs it queues: every pass gets
    # its own copies, made before the clock starts
    copies = [[[(client, pul.copy()) for client, pul in submissions]
               for submissions in doc["rounds"]] for doc in docs]
    first = speed.bracket()
    start = time.perf_counter()
    store = DocumentStore(durability="log", wal_dir=wal_dir,
                          group_window=0.0)
    for doc in docs:
        store.open(doc["doc_id"], doc["xml"])
    spent = time.perf_counter() - start
    state["setup"].append((spent, speed.around(first)))
    opened = dir_bytes(wal_dir)
    try:
        for round_index in range(len(docs[0]["rounds"])):
            probe = speed.probe()
            for doc, rounds in zip(docs, copies):
                began = time.perf_counter()
                for client, pul in rounds[round_index]:
                    state["ops"] += len(pul)
                    result.attempted += 1
                    try:
                        store.submit(doc["doc_id"], pul, client=client)
                    except ReproError:
                        result.failed += 1
                flushed = time.perf_counter()
                result.attempted += 1
                try:
                    store.flush(doc["doc_id"])
                except ReproError:
                    result.failed += 1
                done = time.perf_counter()
                state["flush"].append((done - flushed, probe))
                state["write"].append((done - began, probe))
        with paused(tracer):
            for doc in docs:
                doc_id = doc["doc_id"]
                check_equal("{} after the session".format(doc_id),
                            doc["expected"], store.text(doc_id))
                check_label_nesting("{} live".format(doc_id),
                                    store.document(doc_id),
                                    store.labeling(doc_id))
    finally:
        store.close()
    state["wal"] += dir_bytes(wal_dir) - opened


def measure(docs, work, clock, result, tracer=None):
    """Whole passes until the clock runs out."""
    state = {"setup": [], "flush": [], "write": [], "ops": 0, "wal": 0,
             "passes": 0, "last_wal": None, "remote": [], "speed": Speed()}
    clock.start()
    while clock.more(state["passes"]):
        wal_dir = work.fresh("wal")
        _run_pass(docs, wal_dir, state, result, tracer)
        state["passes"] += 1
        state["last_wal"] = wal_dir
    return state


def verify(docs, state):
    """A store recovered from the last pass's WAL and the stateless
    ``replay_oracle`` must both reach the generated final texts."""
    from repro.store.durability import replay_oracle
    from repro.store.store import DocumentStore

    wal_dir = state["last_wal"]
    oracle = replay_oracle(wal_dir)
    recovered = DocumentStore(wal_dir=wal_dir)
    try:
        for doc in docs:
            doc_id = doc["doc_id"]
            check_equal("{} replay_oracle".format(doc_id), doc["expected"],
                        oracle[doc_id][0])
            check_equal("{} recovered".format(doc_id), doc["expected"],
                        recovered.text(doc_id))
            check_label_nesting("{} recovered".format(doc_id),
                                recovered.document(doc_id),
                                recovered.labeling(doc_id))
    finally:
        recovered.close()


def cost(state):
    """Scaled seconds of submit + flush per update op (for the
    tracing overhead)."""
    return sum(state["speed"].scale(state["write"])) / state["ops"]


def metrics(state, scale):
    """The end-to-end metrics, with times passed through ``scale``."""
    return {
        "setup_s": (median(scale(state["setup"])), "s"),
        "ops_per_s": (state["ops"] / sum(scale(state["write"])), "ops/s"),
        "latency_ms": (median(scale(state["flush"])) * 1e3, "ms"),
        "write_p50_ms": (median(scale(state["write"])) * 1e3, "ms"),
        "bytes_per_op": (state["wal"] / state["ops"], "B/op"),
        "rss_mb": (peak_rss_mb(), "MB"),
    }


def describe(state):
    note("ingest: {} passes, {} update ops, host speed {}".format(
        state["passes"], state["ops"], state["speed"].describe()))
    describe_latencies("ingest flush", state["flush"])
    describe_latencies("ingest write (round submits + flush)",
                       state["write"])
    describe_latencies("ingest setup", state["setup"])
