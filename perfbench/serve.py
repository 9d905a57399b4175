"""The ``serve`` workload: reads with writes beside them, through the
real server.

The benchmark starts ``server.py`` (a durable :class:`StoreServer`,
policy ``log`` with fsync, ``group_window=0``) in its own process on a
Unix socket; one blocking :class:`StoreClient` drives a closed loop of
rounds. A round writes to one document (``submit_xquery`` + the
``flush`` that makes it visible, documents alternating) and then reads
the version it made once with each read: seven path queries across the
planner's routes, one ``text`` and one ``stats``. So every version is
read by every read, and no request repeats an identical earlier request
against the same version.

Every response's version is recorded with a digest of its bytes; after
the run a local model replays the acknowledged writes
(``compile_pul`` + ``apply_pul``) and evaluates each recorded query
with ``engine="walk"`` at its version.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import subprocess
import sys
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

SIZES = {"docs": 2, "scale": 0.1, "setups": 3}

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def build_inputs(seed, sizes):
    """Documents, their read paths and an endless-enough write script.

    Per document the seed picks one person and one item: writes insert
    a ``note`` into the person, replace the item's quantity and delete
    the note again (a cycle of three, so the document does not grow),
    and two of the selective reads look at exactly those nodes.
    """
    from repro.index.planner import run_query
    from repro.workloads.xmark import generate_xmark
    from repro.xdm.serializer import serialize
    from repro.xquery import parse_path

    rng = random.Random(seed)
    docs = []
    for index in range(sizes["docs"]):
        document = generate_xmark(scale=sizes["scale"],
                                  seed=rng.randrange(1 << 30))
        people = [n.attributes[0].value for n in document.nodes()
                  if n.is_element and n.name == "person"]
        items = [n.attributes[0].value for n in document.nodes()
                 if n.is_element and n.name == "item"]
        auctions = sum(1 for n in document.nodes()
                       if n.is_element and n.name == "open_auction")
        person = rng.choice(people)
        item = rng.choice(items)
        paths = [
            # indexed, selective (value bucket, then a child step)
            '//person[@id="{}"]/note'.format(person),
            '//item[@id="{}"]/quantity'.format(item),
            '//person[@id="{}"]/name'.format(rng.choice(people)),
            # indexed, dense
            "//listitem",
            "//person/name",
            # positional predicates: the planner hands these to the walker
            "/site/people/person[{}]/name".format(
                rng.randrange(1, len(people) + 1)),
            "//open_auction[{}]/seller".format(
                rng.randrange(1, auctions + 1)),
        ]
        for path in paths[1:]:
            if not run_query(parse_path(path), document, engine="walk")[0]:
                raise ValueError("read path {!r} selects nothing".format(
                    path))
        writes = []
        for cycle in range(2000):
            writes.append('insert node <note>w{}</note> as last into '
                          '//person[@id="{}"]'.format(cycle, person))
            writes.append('replace value of node //item[@id="{}"]/quantity'
                          '/text() with "{}"'.format(
                              item, rng.randrange(1, 100)))
            writes.append('delete node //person[@id="{}"]/note'.format(
                person))
        docs.append({"doc_id": "doc{}".format(index),
                     "xml": serialize(document), "paths": paths,
                     "writes": writes})
    return docs


class Session:
    """One server process and the client connected to it."""

    def __init__(self, work, trace_out=None):
        from repro.api.client import StoreClient

        self.socket = work.fresh("s") + ".sock"
        self.wal_dir = work.fresh("wal")
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--socket", self.socket, "--wal-dir", self.wal_dir]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE)
        try:
            line = self.process.stdout.readline()
            if line.strip() != b"ready":
                raise RuntimeError("server did not start: {!r}".format(
                    line))
            self.client = StoreClient.connect(unix_path=self.socket,
                                              client="bench")
        except BaseException:
            self.stop()
            raise

    def rss_mb(self):
        return peak_rss_mb(self.process.pid)

    def stop(self):
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("server ignored SIGTERM")
        self.process.stdout.close()
        if code != 0:
            raise RuntimeError("server exited with {}".format(code))


def _start(docs, work, state, trace_out=None):
    """Start a server and open the documents; the time is ``setup_s``."""
    speed = state["speed"]
    first = speed.bracket()
    start = time.perf_counter()
    session = Session(work, trace_out)
    try:
        for doc in docs:
            session.client.open(doc["doc_id"], doc["xml"])
    except BaseException:
        session.stop()
        raise
    spent = time.perf_counter() - start
    state["setup"].append((spent, speed.around(first)))
    session.opened = dir_bytes(session.wal_dir)
    return session


def measure(docs, work, clock, result, tracer=None, sizes=SIZES):
    from repro.errors import ReproError

    state = {"setup": [], "query": [], "text": [], "write": [], "read": [],
             "requests": [], "rounds": 0, "ops": 0,
             "acks": [], "seen": [], "stats": [], "remote": [],
             "speed": Speed()}
    for __ in range(sizes["setups"] - 1):
        _start(docs, work, state).stop()
    trace_out = work.fresh("spans") if tracer is not None else None
    session = _start(docs, work, state, trace_out)
    client = session.client
    written = [0] * len(docs)

    def call(kind, method, *args):
        result.attempted += 1
        began = time.perf_counter()
        try:
            response = method(*args)
        except ReproError:
            response = None
            result.failed += 1
        spent = (time.perf_counter() - began, probe)
        state["requests"].append(spent)
        if kind in ("query", "text", "stats"):
            state["read"].append(spent)
        if kind in ("query", "text"):
            state[kind].append(spent)
        return response, spent[0]

    try:
        clock.start()
        while clock.more(state["rounds"]):
            probe = state["speed"].probe()
            slot = state["rounds"] % len(docs)
            doc = docs[slot]
            doc_id = doc["doc_id"]
            expression = doc["writes"][written[slot]]
            submitted, first = call("write", client.submit_xquery, doc_id,
                                    expression)
            flushed, second = call("write", client.flush, doc_id)
            state["write"].append((first + second, probe))
            if submitted is not None and flushed is not None \
                    and flushed.get("flushed"):
                state["ops"] += submitted["ops"]
                state["acks"].append((slot, flushed["version"],
                                      expression))
                written[slot] += 1
            for path in doc["paths"]:
                response, __ = call("query", client.query, doc_id, path)
                if response is not None:
                    state["seen"].append((slot, response["version"], path,
                                          _digest(response["nodes"])))
            response, __ = call("text", client.text, doc_id)
            if response is not None:
                state["seen"].append((slot, response["version"], None,
                                      _digest([response["text"]])))
            response, __ = call("stats", client.stats, doc_id)
            if response is not None:
                state["stats"].append((slot,
                                       response["stats"][0]["version"],
                                       written[slot]))
            state["rounds"] += 1
        state["rss"] = session.rss_mb()
    finally:
        session.stop()
    state["wal"] = dir_bytes(session.wal_dir) - session.opened
    state["wal_dir"] = session.wal_dir
    if trace_out is not None:
        import spans
        state["remote"].append(spans.summarize(spans.load(trace_out)))
    return state


def verify(docs, state):
    """Replay the acknowledged writes on a local model and compare every
    recorded read with the walker's answer at the read's version; the
    store the server's WAL recovers to must hold the model's final
    texts under well-nested labels."""
    from repro.index.planner import run_query
    from repro.pul.semantics import apply_pul
    from repro.store.store import DocumentStore
    from repro.xdm.parser import parse_document
    from repro.xdm.serializer import serialize, serialize_node
    from repro.xquery import compile_pul, parse_path

    for slot, version, acknowledged in state["stats"]:
        if version != acknowledged:
            raise CheckFailed("{} stats reports version {} after {} "
                              "acknowledged writes".format(
                                  docs[slot]["doc_id"], version,
                                  acknowledged))
    finals = []
    for slot, doc in enumerate(docs):
        acks = [(version, expression)
                for s, version, expression in state["acks"] if s == slot]
        reads = {}
        for s, version, path, digest in state["seen"]:
            if s == slot:
                reads.setdefault(version, {}).setdefault(path, set()).add(
                    digest)
        model = parse_document(doc["xml"])
        parsed = {}
        for version in range(len(acks) + 1):
            if version:
                number, expression = acks[version - 1]
                if number != version:
                    raise CheckFailed("{} write {} acknowledged as version "
                                      "{}".format(doc["doc_id"], version,
                                                  number))
                apply_pul(model, compile_pul(expression, model))
            for path, digests in reads.pop(version, {}).items():
                if path is None:
                    expected = _digest([serialize(model)])
                else:
                    if path not in parsed:
                        parsed[path] = parse_path(path)
                    nodes, __ = run_query(parsed[path], model,
                                          engine="walk")
                    expected = _digest([serialize_node(n) for n in nodes])
                if digests != {expected}:
                    raise CheckFailed(
                        "{} {} at version {} differs from the model".format(
                            doc["doc_id"], path or "text", version))
        if reads:
            raise CheckFailed("{} reads name versions {} that no write "
                              "produced".format(doc["doc_id"],
                                                sorted(reads)))
        finals.append(serialize(model))
    recovered = DocumentStore(wal_dir=state["wal_dir"])
    try:
        for doc, final in zip(docs, finals):
            doc_id = doc["doc_id"]
            check_equal("{} recovered from the server's WAL".format(doc_id),
                        final, recovered.text(doc_id))
            check_label_nesting("{} recovered".format(doc_id),
                                recovered.document(doc_id),
                                recovered.labeling(doc_id))
    finally:
        recovered.close()


def cost(state):
    """Scaled seconds per request (for the tracing overhead)."""
    requests = state["requests"]
    return sum(state["speed"].scale(requests)) / len(requests)


def metrics(state, scale):
    """The end-to-end metrics, with times passed through ``scale``."""
    reads = state["read"]
    return {
        "setup_s": (median(scale(state["setup"])), "s"),
        "ops_per_s": (len(reads) / sum(scale(reads)), "ops/s"),
        "latency_ms": (median(scale(state["query"])) * 1e3, "ms"),
        "write_p50_ms": (median(scale(state["write"])) * 1e3, "ms"),
        "bytes_per_op": (state["wal"] / state["ops"], "B/op"),
        "rss_mb": (state["rss"], "MB"),
    }


def describe(state):
    note("serve: {} rounds, {} requests, host speed {}".format(
        state["rounds"], len(state["requests"]),
        state["speed"].describe()))
    describe_latencies("serve query", state["query"])
    describe_latencies("serve text", state["text"])
    describe_latencies("serve write (submit_xquery + flush)",
                       state["write"])
    describe_latencies("serve setup", state["setup"])
