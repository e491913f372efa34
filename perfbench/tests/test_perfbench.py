"""Self-tests of the benchmark: tracer arithmetic, wrapper hygiene, tiny smoke runs."""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from plas import agent, nets  # noqa: E402

from perfbench import pipeline, trace  # noqa: E402
from perfbench.trace import LayerMetric, Span, Tracer  # noqa: E402


def _spans(*rows):
    return [Span(name, start, end, parent, dict(attrs)) for name, start, end, parent, attrs in rows]


def test_self_time_subtracts_union_of_children():
    spans = _spans(
        ("root", 0, 100, -1, {}),
        ("a", 10, 40, 0, {}),
        ("b", 30, 60, 0, {}),      # overlaps a: the union of a and b is [10, 60]
        ("a.kid", 15, 20, 1, {}),
        ("late", 90, 120, 0, {}),  # runs past its parent: only [90, 100] counts
    )
    assert trace.self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 5, 30]


def test_covered_merges_and_clips():
    assert trace.covered([], 0, 10) == 0
    assert trace.covered([(2, 4), (3, 6), (8, 20)], 0, 10) == 4 + 2
    assert trace.covered([(-5, 3), (1, 2)], 0, 10) == 3


def test_layer_values_scope_to_stage_and_normalize():
    spans = _spans(
        ("stage.plas", 0, 1_000_000, -1, {"steps": 2}),
        ("nets.mlp_forward", 0, 200_000, 0, {"rows": 100, "flop": 10}),
        ("nets.mlp_forward", 300_000, 400_000, 0, {"rows": 1, "flop": 30}),
        ("stage.eval", 2_000_000, 3_000_000, -1, {"steps": 5}),
        ("nets.mlp_forward", 2_000_000, 2_004_000, 3, {"rows": 1, "flop": 7}),
    )
    metrics = (
        LayerMetric("calls", "count", ("nets.mlp_forward",), "plas", "calls", "step"),
        LayerMetric("ms", "ms", ("nets.mlp_forward",), "plas", "self", "step"),
        LayerMetric("flop", "MFLOP", ("nets.mlp_forward",), "plas", "flop", "step"),
        LayerMetric("b1", "us", ("nets.mlp_forward",), "plas", "total", "call", (("rows", 1),)),
        LayerMetric("eval", "us", ("nets.mlp_forward",), "eval", "total", "call"),
        LayerMetric("steps", "count", ("envs.env_steps",), "eval", "count", "exec"),
    )
    counts = Counter({("eval", "envs.env_steps"): 12})
    got = trace.layer_values(metrics, spans, counts)
    assert got == pytest.approx({"calls": 1.0, "ms": 0.15, "flop": 20e-6, "b1": 100.0,
                                 "eval": 4.0, "steps": 12.0})
    with pytest.raises(ValueError):
        trace.layer_values((LayerMetric("x", "ms", ("a",), "absent", "self", "step"),),
                           spans, counts)


def _attribute_snapshot():
    snap = {}
    for short in trace.MODULES:
        module = sys.modules[f"plas.{short}"]
        snap.update({(module.__name__, k): v for k, v in vars(module).items()})
    for short, cls_name, method, _ in trace.METHODS + trace.COUNTED:
        cls = getattr(sys.modules[f"plas.{short}"], cls_name)
        snap[(cls.__qualname__, method)] = cls.__dict__[method]
    return snap


def test_install_and_uninstall_restore_every_attribute():
    before = _attribute_snapshot()
    tracer = Tracer()
    with trace.installed(tracer) as patched:
        assert agent.mlp_backward is not before[("plas.agent", "mlp_backward")]
        assert {owner for owner, _, _ in patched} >= {sys.modules["plas.cvae"], agent, nets}
        net = nets.mlp_init([3, 4, 1], np.random.default_rng(0))
        agent.q_values(net, [[0.0, 1.0]], [[0.5]])
    after = _attribute_snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    names = [s.name for s in tracer.spans]
    assert names == ["nets.mlp_init", "agent.q_values", "nets.mlp_forward"]
    assert tracer.spans[2].parent == 1 and tracer.spans[2].attrs["rows"] == 1


def _tiny(workload: pipeline.Workload) -> pipeline.Workload:
    return dataclasses.replace(
        workload,
        datasets=tuple((env, kind, 300) for env, kind, _ in workload.datasets),
        cvae_hidden=(8, 8), cvae_steps=10, policy_hidden=(8, 8), plas_steps=10,
        baseline_steps=10, eval_episodes=2, qerror_episodes=2, support_probes=10,
        mmd_samples=200, mmd_repeats=4,  # smaller sweeps can miss the argmin windows
        check_claim=False,  # the claim needs hundreds of steps; full-size runs check it
    )


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_tiny_smoke_run(name, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "SETUPS", 2)
    workload = _tiny(pipeline.WORKLOADS[name])
    plain = pipeline.run(workload, seed=3, seconds=0, trace=False, workdir=tmp_path)
    assert plain.failed == 0, plain.errors
    e2e = pipeline.end_to_end(plain, peak_rss_mb=1.0)
    assert list(e2e) == [n for n, _ in pipeline.END_TO_END]
    assert all(math.isfinite(v) and v > 0 for v in e2e.values())

    traced = pipeline.run(workload, seed=3, seconds=0, trace=True, workdir=tmp_path)
    assert traced.failed == 0, traced.errors
    layers = pipeline.per_layer(traced)
    assert list(layers) == [m.name for m in pipeline.LAYER_METRICS] + [
        n for n, _ in pipeline.TRACE_METRICS]
    assert all(math.isfinite(v) for v in layers.values())
    assert traced.fingerprints["pipeline"]["agent_hash"] == plain.fingerprints[
        "setup" if "plas" in workload.setup else "round"]["agent_hash"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(pipeline.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in pipeline.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(pipeline.END_TO_END)
    per_layer = [(m.name, m.unit) for m in pipeline.LAYER_METRICS] + list(pipeline.TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
