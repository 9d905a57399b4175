"""The ``replay`` workload: catching up after the fact.

Set-up logs a hot-spot session on a durable leader with its change
feed enabled: ``BATCHES`` batches of four ``insert … as first into``
one element, so the codes at that site lengthen and the headroom rule
fires full relabels. The session is run ``setups`` times (each on a
fresh WAL); the last leader stays open. The timed phases then repeat:

* a fresh ``DocumentStore(wal_dir=…)`` recovering a copy of the
  session's log (six times per iteration);
* a ``DocumentMirror(index=True)`` consuming the whole raw change feed
  of the same session (once per iteration).
"""

from __future__ import annotations

import gc
import random
import shutil
import time

from common import (
    CheckFailed,
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

SIZES = {"scale": 0.02, "batches": 50, "inserts": 4, "setups": 8,
         "recoveries": 6}

DOC_ID = "hot"

#: batches (set-up) or events (mirror) between two speed probes
PROBE_EVERY = 10


def _note_tree(batch, position):
    from repro.xdm.node import Node

    tree = Node.element("note")
    tree.append_attribute(Node.attribute("b", str(batch)))
    tree.append_child(Node.text("hot {} {}".format(batch, position)))
    return tree


def build_inputs(seed, sizes):
    """The base document, the hot-spot site and the session's batches,
    plus the text the session must reach, computed by plain tree edits
    (each batch's trees go in front of the site's children, in batch
    order) rather than by any PUL machinery."""
    from repro.pul.ops import InsertIntoAsFirst
    from repro.pul.pul import PUL
    from repro.workloads.xmark import generate_xmark
    from repro.xdm.parser import parse_document
    from repro.xdm.serializer import serialize

    rng = random.Random(seed)
    xml = serialize(generate_xmark(scale=sizes["scale"],
                                   seed=rng.randrange(1 << 30)))
    model = parse_document(xml)
    sites = [node for node in model.nodes() if node.is_element
             and node.name in ("person", "item", "open_auction")]
    site = rng.choice(sites)
    batches = []
    for batch in range(sizes["batches"]):
        trees = [_note_tree(batch, k) for k in range(sizes["inserts"])]
        batches.append(PUL([InsertIntoAsFirst(site.node_id, [tree])
                            for tree in trees], origin="hot"))
        for position, tree in enumerate(trees):
            site.insert_child(position, tree.deep_copy())
    return {"xml": xml, "site": "{} {}".format(site.name,
                                              site.attributes[0].value),
            "batches": batches, "expected": serialize(model),
            "ops": sizes["batches"] * sizes["inserts"]}


def _session(inputs, work, state):
    """Log the hot-spot session on a fresh durable leader."""
    from repro.store.store import DocumentStore

    speed = state["speed"]
    copies = [pul.copy() for pul in inputs["batches"]]
    wal_dir = work.fresh("wal")
    first = speed.bracket()
    probe = first + speed.BRACKET - 1
    start = time.perf_counter()
    store = DocumentStore(durability="log", wal_dir=wal_dir,
                          group_window=0.0)
    try:
        store.enable_replication()
        store.open(DOC_ID, inputs["xml"])
        state["opened"] = dir_bytes(wal_dir)
        for number, pul in enumerate(copies):
            if number and number % PROBE_EVERY == 0:
                paused_at = time.perf_counter()
                probe = speed.probe()
                start += time.perf_counter() - paused_at
            began = time.perf_counter()
            store.submit(DOC_ID, pul, client="hot")
            result = store.flush(DOC_ID)
            state["write"].append((time.perf_counter() - began, probe))
            state["relabels"] += result.relabel == "full"
    except BaseException:
        store.close()
        raise
    spent = time.perf_counter() - start
    state["setup"].append((spent, speed.around(first)))
    return store, wal_dir


def _recover(inputs, work, wal_dir, state, result, tracer):
    from repro.store.store import DocumentStore

    copy = work.fresh("recover")
    shutil.copytree(wal_dir, copy)
    result.attempted += 1
    speed = state["speed"]
    # start from a collected heap, as a freshly started process would:
    # the previous recovery's store is not collected inside this one
    gc.collect()
    first = speed.bracket()
    start = time.perf_counter()
    span = tracer.open("store.recovery") if tracer is not None else None
    store = DocumentStore(wal_dir=copy)
    if span is not None:
        tracer.close(span)
    spent = time.perf_counter() - start
    state["recovery"].append((spent, speed.around(first)))
    try:
        with paused(tracer):
            check_equal("recovered", inputs["expected"],
                        store.text(DOC_ID))
            if not state["recovered_checked"]:
                check_label_nesting("recovered", store.document(DOC_ID),
                                    store.labeling(DOC_ID))
                state["recovered_checked"] = True
    finally:
        store.close()
        shutil.rmtree(copy, ignore_errors=True)


def _mirror(leader, state, result):
    from repro.cdc.feed import ChangeFeed
    from repro.cdc.mirror import DocumentMirror
    from repro.cdc.tokens import encode_token

    speed = state["speed"]
    # the last recovery's store is collected here, not inside the pass
    gc.collect()
    probe = speed.probe()
    start = time.perf_counter()
    feed = ChangeFeed(leader.replication)
    token = encode_token(feed.stream, 0)
    mirror = DocumentMirror(index=True)
    while True:
        page = feed.read(from_token=token, decode=False)
        if not page["events"]:
            break
        for event in page["events"]:
            result.attempted += 1
            mirror.apply(event)
            state["events"] += 1
            if state["events"] % PROBE_EVERY == 0:
                state["mirror"].append((time.perf_counter() - start, probe))
                probe = speed.probe()
                start = time.perf_counter()
        token = page["token"]
    state["mirror"].append((time.perf_counter() - start, probe))
    return mirror


def measure(inputs, work, clock, result, tracer=None, sizes=SIZES):
    state = {"setup": [], "write": [], "recovery": [], "mirror": [],
             "relabels": 0, "events": 0, "iterations": 0,
             "recovered_checked": False, "remote": [], "speed": Speed()}
    for __ in range(sizes["setups"] - 1):
        store, __ = _session(inputs, work, state)
        store.close()
    leader, wal_dir = _session(inputs, work, state)
    state["wal"] = dir_bytes(wal_dir) - state["opened"]
    state["ops"] = inputs["ops"]
    try:
        clock.start()
        while clock.more(state["iterations"]):
            for __ in range(sizes["recoveries"]):
                _recover(inputs, work, wal_dir, state, result, tracer)
            mirror = _mirror(leader, state, result)
            state["iterations"] += 1
        with paused(tracer):
            state["leader_text"] = leader.text(DOC_ID)
    finally:
        leader.close()
    state["mirrored"] = mirror
    state["wal_dir"] = wal_dir
    return state


def verify(inputs, state):
    from repro.index.structural import build_index
    from repro.store.durability import replay_oracle

    expected = inputs["expected"]
    check_equal("leader", expected, state["leader_text"])
    check_equal("replay_oracle", expected,
                replay_oracle(state["wal_dir"])[DOC_ID][0])
    mirror = state["mirrored"]
    check_equal("mirror", expected, mirror.text(DOC_ID))
    # the mirror keeps its tree private; the CDC test suite reads it
    # the same way to rebuild an index over it
    tree = mirror._docs[DOC_ID]
    labeling = mirror.labeling(DOC_ID)
    check_label_nesting("mirror", tree, labeling)
    if mirror.index(DOC_ID) != build_index(tree, labeling):
        raise CheckFailed("mirror index differs from build_index over the "
                          "mirror's tree")


def cost(state):
    """Scaled seconds of recovery + mirror per iteration (for the
    tracing overhead)."""
    speed = state["speed"]
    return (sum(speed.scale(state["recovery"]))
            + sum(speed.scale(state["mirror"]))) / state["iterations"]


def metrics(state, scale):
    """The end-to-end metrics, with times passed through ``scale``.
    Each recovery is scaled by the probes taken just before and after
    it, and ``latency_ms`` is the median of the scaled recoveries."""
    return {
        "setup_s": (median(scale(state["setup"])), "s"),
        "ops_per_s": (state["events"] / sum(scale(state["mirror"])),
                      "ops/s"),
        "latency_ms": (median(scale(state["recovery"])) * 1e3, "ms"),
        "write_p50_ms": (median(scale(state["write"])) * 1e3, "ms"),
        "bytes_per_op": (state["wal"] / state["ops"], "B/op"),
        "rss_mb": (peak_rss_mb(), "MB"),
    }


def describe(state):
    note("replay: {} iterations, {} recoveries, {} mirror events, {} full "
         "relabels per session, host speed {}".format(
             state["iterations"], len(state["recovery"]), state["events"],
             state["relabels"] // len(state["setup"]),
             state["speed"].describe()))
    describe_latencies("replay recovery", state["recovery"])
    describe_latencies("replay session write (submit + flush)",
                       state["write"])
    describe_latencies("replay setup (one logged session)", state["setup"])
