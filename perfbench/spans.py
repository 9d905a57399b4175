"""Outside-in tracing: spans recorded around the public functions of
each layer, installed from the benchmark's own code.

:func:`install` replaces each wrapped function or method with a thin
wrapper that opens a span (name, start, end, parent, request id) on
the calling thread and closes it when the call returns. Module-level
functions are replaced by identity in every loaded ``repro`` module, so
``from x import f`` call sites are covered too. Spans stay in memory
(compact arrays) until the run ends; :func:`summarize` then folds them
into per-name counts, inclusive time and self time (a span minus the
spans directly nested in it), and :func:`layer_metrics` turns a summary
into the per-layer metrics of ``BENCHMARK.json``.

Nothing here reads program state beyond the arguments and results of
the wrapped calls.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import json
import sys
import threading
import time
from array import array

#: request ops the serve workload sends (per-op api metrics)
API_OPS = ("query", "text", "stats", "submit_xquery", "flush")


class Tracer:
    """Span store of one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.ops = {}          # span index -> request op (codec spans)
        self.counters = collections.Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = 0
        #: server side: the id of the request frame decoded last, so
        #: that the spans it causes on other threads share its id
        self.request_hint = None
        self.last_op = None
        #: set while the benchmark checks outputs, which is not the
        #: workload's own work
        self.paused = False

    def _name_id(self, name):
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        with self._lock:
            index = len(self.start)
            parent = stack[-1] if stack else -1
            if parent >= 0:
                request = self.request[parent]
            elif self.request_hint is not None:
                request = self.request_hint
            else:
                self._requests += 1
                request = self._requests
            self.name.append(self._name_id(name))
            self.parent.append(parent)
            self.request.append(request)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index):
        self.end[index] = time.perf_counter()
        self._stack().pop()

    def span_name(self, index):
        return self.names[self.name[index]]

    def dump(self, path):
        """Write every span to ``path`` (JSON) for another process."""
        with open(path, "w") as out:
            json.dump({"names": self.names, "start": list(self.start),
                       "end": list(self.end), "name": list(self.name),
                       "parent": list(self.parent),
                       "request": list(self.request),
                       "ops": {str(k): v for k, v in self.ops.items()},
                       "counters": dict(self.counters)}, out)


def load(path):
    """A :class:`Tracer` holding the spans another process dumped."""
    with open(path) as source:
        data = json.load(source)
    tracer = Tracer()
    tracer.names = data["names"]
    for field in ("start", "end", "name", "parent", "request"):
        getattr(tracer, field).extend(data[field])
    tracer.ops = {int(index): op for index, op in data["ops"].items()}
    tracer.counters.update(data["counters"])
    return tracer


# -- wrapping -----------------------------------------------------------------

@contextlib.contextmanager
def paused(tracer):
    """Record no spans inside the block (``tracer`` may be ``None``)."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def _wrap(tracer, original, span, pre=None, post=None):
    if post is None and pre is None:
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            index = tracer.open(span)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)
    else:
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            index = tracer.open(span)
            try:
                if pre is not None:
                    pre(tracer, index, args)
                result = original(*args, **kwargs)
                if post is not None:
                    post(tracer, index, args, result)
                return result
            finally:
                tracer.close(index)
    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", span)
    return wrapper


def _on_flush(tracer, index, args, result):
    if result is not None:
        tracer.counters["reduction.submitted"] += result.submitted_ops
        tracer.counters["reduction.reduced"] += result.reduced_ops


def _on_query(tracer, index, args, result):
    nodes, plan = result
    tracer.counters["index.route.{}".format(plan.get("mode"))] += 1
    tracer.counters["index.rows"] += sum(
        step.get("bucket", 0) for step in plan.get("steps", ())
        if step.get("choice") == "index-scan")
    tracer.counters["index.results"] += len(nodes)


def _on_load(tracer, index, args, result):
    tracer.counters["durability.records"] += len(result.records)


def _on_append(tracer, index, args, result):
    tracer.counters["durability.wal_bytes"] += len(args[1])


def _on_encode(tracer, index, args):
    message = args[0]
    # a request carries its op (client side); a response is the answer
    # to the request the server decoded last
    tracer.ops[index] = message.get("op", tracer.last_op)


def _on_decode(tracer, index, args, result):
    if "op" in result:
        # server side: a request frame — its id ties the dispatch and
        # response spans on other threads to this request
        tracer.request_hint = result.get("id")
        tracer.last_op = result["op"]
        tracer.ops[index] = result["op"]


#: (module, attribute path, span name, hooks). A dotted attribute path
#: names a method; a plain one a module-level function.
WRAPPED = [
    ("repro.store.store", "DocumentStore.open", "store.open", {}),
    ("repro.store.store", "DocumentStore.submit", "store.submit", {}),
    ("repro.store.store", "DocumentStore.flush", "store.flush",
     {"post": _on_flush}),
    ("repro.store.store", "coalesce_batch", "aggregation.coalesce", {}),
    ("repro.store.store", "StoredDocument.checkout", "store.checkout", {}),
    ("repro.store.store", "StoredDocument.publish", "store.publish", {}),
    ("repro.pipeline.shard", "shard_pul", "pipeline.shard", {}),
    ("repro.pipeline.parallel", "ParallelReducer.reduce_shards",
     "pipeline.reduce_shards", {}),
    ("repro.pipeline.merge", "merge_shards", "pipeline.merge", {}),
    ("repro.reduction", "reduce_deterministic", "reduction.reduce", {}),
    ("repro.apply.inplace", "apply_batch_in_place", "apply.inplace", {}),
    ("repro.labeling.scheme", "ContainmentLabeling.build",
     "labeling.build", {}),
    ("repro.index.structural", "DocumentIndex.derive", "index.derive", {}),
    ("repro.index.structural", "build_index", "index.build", {}),
    ("repro.index.planner", "run_query", "index.run_query",
     {"post": _on_query}),
    ("repro.pul.serialize", "pul_to_xml", "pul.to_xml", {}),
    ("repro.pul.serialize", "pul_from_xml", "pul.from_xml", {}),
    ("repro.xdm.parser", "parse_document", "xdm.parse", {}),
    ("repro.xdm.serializer", "serialize", "xdm.serialize", {}),
    # recursive: wrapped at its callers only, so one span per call site
    ("repro.xdm.serializer", "serialize_node", "xdm.serialize_node",
     {"home": False}),
    ("repro.xdm.document", "Document.copy", "xdm.document_copy", {}),
    ("repro.xquery.parser", "parse_path", "xquery.parse_path", {}),
    ("repro.xquery.compiler", "compile_pul", "xquery.compile", {}),
    ("repro.store.durability.recovery", "load_durable_state",
     "durability.load", {"post": _on_load}),
    ("repro.store.durability.recovery", "DurabilityManager.log_batch",
     "durability.log_batch", {}),
    ("repro.store.durability.snapshot", "restore_document",
     "durability.restore", {}),
    ("repro.store.durability.wal", "WalWriter.append", "durability.append",
     {"post": _on_append}),
    ("repro.store.durability.wal", "WalWriter.sync", "durability.sync", {}),
    ("repro.cdc.feed", "ChangeFeed.read", "cdc.feed_read", {}),
    ("repro.cdc.mirror", "DocumentMirror.apply", "cdc.mirror_apply", {}),
    ("repro.api.protocol", "encode_frame", "api.codec",
     {"pre": _on_encode}),
    ("repro.api.protocol", "decode_payload", "api.codec",
     {"post": _on_decode}),
] + [
    ("repro.api.client", "_MethodSurface." + op, "api.roundtrip." + op, {})
    for op in API_OPS
] + [
    ("repro.api.dispatch", "StoreDispatcher." + op, "api.dispatch." + op, {})
    for op in API_OPS + ("open",)
]


class Installed:
    """The patches one :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self):
        self.patches = []   # (owner, attribute, original)

    def remove(self):
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        self.patches = []


def install(tracer):
    installed = Installed()
    for module_name, path, span, hooks in WRAPPED:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            installed.patches.append((owner, method, original))
            setattr(owner, method, _wrap(tracer, original, span,
                                         hooks.get("pre"),
                                         hooks.get("post")))
            continue
        original = getattr(module, path)
        wrapper = _wrap(tracer, original, span, hooks.get("pre"),
                        hooks.get("post"))
        home = getattr(original, "__module__", module_name)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            if name == home and not hooks.get("home", True):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    installed.patches.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapper)
    return installed


# -- summaries ----------------------------------------------------------------

def _has_ancestor(spans, index, names):
    parent = spans.parent[index]
    while parent >= 0:
        if spans.span_name(parent) in names:
            return True
        parent = spans.parent[parent]
    return False


def summarize(spans):
    """Fold one process's spans into a JSON-able summary."""
    count = collections.Counter()
    total = collections.Counter()
    self_time = collections.Counter()
    codec = collections.Counter()
    relabels = 0
    relabel_time = 0.0
    rebuilds = 0
    child_time = collections.Counter()
    size = len(spans.start)
    for index in range(size):
        parent = spans.parent[index]
        if parent >= 0:
            child_time[parent] += spans.end[index] - spans.start[index]
    for index in range(size):
        name = spans.span_name(index)
        duration = spans.end[index] - spans.start[index]
        count[name] += 1
        total[name] += duration
        self_time[name] += duration - child_time[index]
        if name == "api.codec":
            op = spans.ops.get(index)
            parent = spans.parent[index]
            if op is None and parent >= 0:
                parent_name = spans.span_name(parent)
                if parent_name.startswith("api.roundtrip."):
                    op = parent_name[len("api.roundtrip."):]
            codec[op or "other"] += duration
        elif name == "labeling.build" and not _has_ancestor(
                spans, index, ("store.open",)):
            relabels += 1
            relabel_time += duration
        elif name == "index.build" and _has_ancestor(
                spans, index, ("store.publish", "cdc.mirror_apply")):
            rebuilds += 1
    return {"count": dict(count), "total": dict(total),
            "self": dict(self_time), "codec": dict(codec),
            "relabels": relabels, "relabel_time": relabel_time,
            "rebuilds": rebuilds, "counters": dict(spans.counters)}


def merge(*summaries):
    merged = {"count": collections.Counter(), "total": collections.Counter(),
              "self": collections.Counter(), "codec": collections.Counter(),
              "relabels": 0, "relabel_time": 0.0, "rebuilds": 0,
              "counters": collections.Counter()}
    for summary in summaries:
        for key in ("count", "total", "self", "codec", "counters"):
            merged[key].update(summary[key])
        for key in ("relabels", "relabel_time", "rebuilds"):
            merged[key] += summary[key]
    return merged


def _per(total, count, scale=1e3):
    return total * scale / count if count else 0.0


def layer_metrics(summary):
    """The per-layer metrics (name -> (value, unit)) of one summary.

    Times are inclusive milliseconds per call of the wrapped function,
    except where a comment says otherwise; counts are run totals.
    """
    count, total = summary["count"], summary["total"]
    counters = summary["counters"]

    def per_call(span, scale=1e3):
        return _per(total.get(span, 0.0), count.get(span, 0), scale)

    out = {}

    def put(name, value, unit="ms"):
        out[name] = (value, unit)

    put("store.open_ms", per_call("store.open"))
    put("xdm.parse_ms", per_call("xdm.parse"))
    put("store.submit_us", per_call("store.submit", 1e6), "us")
    put("aggregation.coalesce_ms", per_call("aggregation.coalesce"))
    # shard + reduce + merge, per reduced batch
    put("pipeline.reduce_ms", _per(
        total.get("pipeline.shard", 0.0)
        + total.get("pipeline.reduce_shards", 0.0)
        + total.get("pipeline.merge", 0.0),
        count.get("pipeline.reduce_shards", 0)))
    submitted = counters.get("reduction.submitted", 0)
    put("reduction.kept_ratio",
        counters.get("reduction.reduced", 0) / submitted
        if submitted else 0.0, "ratio")
    put("store.checkout_ms", per_call("store.checkout"))
    put("apply.inplace_ms", per_call("apply.inplace"))
    # full relabels: labeling builds anywhere but inside an open
    put("labeling.relabel_ms", _per(summary["relabel_time"],
                                    summary["relabels"]))
    put("labeling.full_relabels", summary["relabels"], "count")
    put("index.derive_ms", per_call("index.derive"))
    # index rebuilds on the update path (publish or mirror apply)
    put("index.rebuilds", summary["rebuilds"], "count")
    put("store.publish_ms", per_call("store.publish"))
    put("pul.to_xml_ms", per_call("pul.to_xml"))
    put("durability.log_batch_ms", per_call("durability.log_batch"))
    put("durability.fsyncs", count.get("durability.sync", 0), "count")
    put("durability.wal_bytes", counters.get("durability.wal_bytes", 0),
        "B")
    # flush time outside every wrapped call made directly by the flush
    put("store.flush_unattributed_ms",
        _per(summary["self"].get("store.flush", 0.0),
             count.get("store.flush", 0)))
    requests = sum(count.get("api.roundtrip." + op, 0) for op in API_OPS)
    # client and server codec (encode + decode), per request
    put("api.codec_ms", _per(sum(summary["codec"].get(op, 0.0)
                                 for op in API_OPS), requests))
    for op in API_OPS:
        trips = count.get("api.roundtrip." + op, 0)
        put("api.roundtrip.{}_ms".format(op),
            per_call("api.roundtrip." + op))
        put("api.dispatch.{}_ms".format(op),
            per_call("api.dispatch." + op))
        # round trip minus dispatch minus codec: the queue, the
        # executor hop and the socket
        put("api.transport.{}_ms".format(op), _per(
            total.get("api.roundtrip." + op, 0.0)
            - total.get("api.dispatch." + op, 0.0)
            - summary["codec"].get(op, 0.0), trips))
    put("xquery.parse_path_ms", per_call("xquery.parse_path"))
    put("xquery.compile_ms", per_call("xquery.compile"))
    put("index.run_query_ms", per_call("index.run_query"))
    results = counters.get("index.results", 0)
    put("index.rows_per_result",
        counters.get("index.rows", 0) / results if results else 0.0,
        "ratio")
    for mode in ("indexed", "mixed", "walker"):
        put("index.route." + mode,
            counters.get("index.route." + mode, 0), "count")
    # all node serializations of one query, per query
    put("xdm.serialize_node_ms", _per(total.get("xdm.serialize_node", 0.0),
                                      count.get("index.run_query", 0)))
    put("xdm.serialize_ms", per_call("xdm.serialize"))
    put("durability.load_ms", per_call("durability.load"))
    put("durability.restore_ms", per_call("durability.restore"))
    put("pul.from_xml_ms", per_call("pul.from_xml"))
    # recovery time outside every wrapped call, per recovery
    put("store.recovery_unattributed_ms",
        _per(summary["self"].get("store.recovery", 0.0),
             count.get("store.recovery", 0)))
    put("cdc.feed_read_ms", per_call("cdc.feed_read"))
    put("cdc.mirror_apply_ms", per_call("cdc.mirror_apply"))
    put("xdm.document_copy_ms", per_call("xdm.document_copy"))
    put("reduction.reduce_ms", per_call("reduction.reduce"))
    return out


def shares(summary, wall):
    """``[(name, self seconds, share of wall)]``, largest first."""
    rows = [(name, spent, spent / wall if wall else 0.0)
            for name, spent in summary["self"].items()]
    rows.sort(key=lambda row: -row[1])
    return rows
