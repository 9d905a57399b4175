"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

One pass of each workload (untraced and traced) must come out correct,
and a tampered output must make its checker fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import ingest  # noqa: E402
import replay  # noqa: E402
import serve  # noqa: E402
import spans  # noqa: E402

TINY = {
    ingest: {"docs": 2, "scale": 0.01, "clients": 2, "rounds": 3,
             "ops_per_round": 6},
    serve: {"docs": 2, "scale": 0.03, "setups": 1},
    replay: {"scale": 0.01, "batches": 30, "inserts": 4, "setups": 1,
             "recoveries": 1},
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)


def _one_pass(module, tmp_path, monkeypatch, tracer=None):
    """Build tiny inputs and run exactly one round of ``module``."""
    monkeypatch.chdir(tmp_path)
    inputs = module.build_inputs(7, TINY[module])
    result = common.Result()
    # left open: verify reads the WALs inside it; tmp_path removes it
    work = common.WorkDir(module.__name__).__enter__()
    kwargs = {"tracer": tracer}
    if module is not ingest:
        kwargs["sizes"] = TINY[module]
    state = module.measure(inputs, work, common.Clock(0), result, **kwargs)
    return inputs, state, result


@pytest.mark.parametrize("module", [ingest, serve, replay],
                         ids=lambda m: m.__name__)
def test_one_pass_is_correct(module, tmp_path, monkeypatch):
    inputs, state, result = _one_pass(module, tmp_path, monkeypatch)
    module.verify(inputs, state)
    for name, (value, unit) in module.metrics(
            state, state["speed"].scale).items():
        result.add(name, value, unit)
    assert result.failed == 0 and result.attempted > 0
    names = [metric["name"] for metric in SPEC["end_to_end"]]
    assert sorted(result.metrics) == sorted(names)
    assert all(metric["value"] > 0 for metric in result.metrics.values())


@pytest.mark.parametrize("module", [ingest, serve, replay],
                         ids=lambda m: m.__name__)
def test_traced_pass_reports_every_layer_metric(module, tmp_path,
                                                monkeypatch):
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        inputs, state, __ = _one_pass(module, tmp_path, monkeypatch,
                                      tracer)
    finally:
        installed.remove()
    module.verify(inputs, state)
    summary = spans.merge(spans.summarize(tracer), *state["remote"])
    metrics = spans.layer_metrics(summary)
    names = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(metrics) | {"trace.overhead_pct"} == names
    exercised = {
        ingest: ["store.flush_unattributed_ms", "apply.inplace_ms",
                 "durability.log_batch_ms", "pipeline.reduce_ms"],
        serve: ["api.transport.query_ms", "api.codec_ms",
                "api.dispatch.text_ms", "xquery.compile_ms",
                "index.run_query_ms"],
        replay: ["store.recovery_unattributed_ms", "durability.load_ms",
                 "cdc.mirror_apply_ms", "pul.from_xml_ms"],
    }[module]
    for name in exercised:
        assert metrics[name][0] > 0, name


def test_install_and_remove_restore_the_program():
    from repro.store import store as store_module

    before = store_module.coalesce_batch
    installed = spans.install(spans.Tracer())
    assert store_module.coalesce_batch is not before
    installed.remove()
    assert store_module.coalesce_batch is before


def test_tampered_ingest_text_fails(tmp_path, monkeypatch):
    inputs, state, __ = _one_pass(ingest, tmp_path, monkeypatch)
    text = inputs[0]["expected"]
    inputs[0]["expected"] = text[:-2] + ("x" if text[-2] != "x" else "y") \
        + text[-1]
    with pytest.raises(common.CheckFailed):
        ingest.verify(inputs, state)


def test_tampered_serve_read_fails(tmp_path, monkeypatch):
    inputs, state, __ = _one_pass(serve, tmp_path, monkeypatch)
    slot, version, path, digest = state["seen"][0]
    state["seen"][0] = (slot, version, path, "0" + digest[1:])
    with pytest.raises(common.CheckFailed):
        serve.verify(inputs, state)


def test_tampered_replay_text_fails(tmp_path, monkeypatch):
    inputs, state, __ = _one_pass(replay, tmp_path, monkeypatch)
    inputs["expected"] = inputs["expected"].replace("hot 0 0", "hot 0 1", 1)
    with pytest.raises(common.CheckFailed):
        replay.verify(inputs, state)


def test_broken_label_nesting_fails():
    from repro.labeling.scheme import ContainmentLabeling
    from repro.xdm.parser import parse_document

    document = parse_document("<a><b><c/></b><d/></a>")
    labeling = ContainmentLabeling().build(document)
    common.check_label_nesting("intact", document, labeling)
    b, d = document.root.children
    outer = labeling.label_of(d.node_id)
    labeling.import_label(labeling.label_of(b.children[0].node_id).replaced(
        start=outer.start, end=outer.end))
    with pytest.raises(common.CheckFailed):
        common.check_label_nesting("tampered", document, labeling)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60)
    assert completed.returncode == 2
    assert completed.stdout == b""
