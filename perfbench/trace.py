"""In-memory span tracer that wraps ``plas``'s public functions from outside.

The library's modules import each other's functions by name
(``from .nets import mlp_forward``), so a call made inside ``plas.agent`` goes
through the binding ``plas.agent.mlp_forward``. ``installed`` therefore
replaces every binding of a public function, in every ``plas`` module, with one
wrapper that records a span named after the function's home module
(``nets.mlp_forward``). A few methods are wrapped on their class. On exit every
patched attribute gets its original object back.

A span is (name, start, end, parent, attrs); times come from
``time.perf_counter_ns``. Self time is a span's duration minus the part of it
that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

MODULES = ("nets", "cvae", "agent", "baselines", "data", "envs", "generators",
           "diagnostics", "mmd")

# Methods spanned on their class: (module, class, method, span name).
METHODS = (
    ("cvae", "FrozenDecoder", "forward", "cvae.FrozenDecoder.forward"),
    ("cvae", "FrozenDecoder", "backward", "cvae.FrozenDecoder.backward"),
    ("data", "TransitionDataset", "content_hash", "data.content_hash"),
)

# Methods only counted, per stage: a span per env step would cost as much as
# the step, and ``envs.rollout`` self time is meant to include the dynamics.
COUNTED = (
    ("envs", "PointMassEnv", "step", "envs.env_steps"),
    ("envs", "EdgeFollowEnv", "step", "envs.env_steps"),
)

STAGE_PREFIX = "stage."


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: int, end: int, parent: int, attrs: dict):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into Tracer.spans, -1 for a root span
        self.attrs = attrs


class Tracer:
    """Collects spans and per-stage counters of one process, single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (stage, counter name) -> count
        self.stage_name: str | None = None
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0, 0, parent, attrs or {})
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span.start = perf_counter_ns()
        return index

    def close(self, index: int) -> None:
        end = perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index].end = end

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        index = self.open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    @contextmanager
    def stage(self, name: str, attrs: dict | None = None):
        outer, self.stage_name = self.stage_name, name
        try:
            with self.span(STAGE_PREFIX + name, attrs) as span:
                yield span
        finally:
            self.stage_name = outer

    def count(self, name: str) -> None:
        self.counts[(self.stage_name, name)] += 1


# -- computed work, attached to spans as attrs --------------------------------

def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


def _macs(net) -> int:
    return sum(w.size for w in net.weights)


def _forward_work(params, x, *args, **kwargs) -> dict:
    rows = _rows(x)
    return {"rows": rows, "flop": 2 * rows * _macs(params)}


def _backward_work(params, x, *args, **kwargs) -> dict:
    # the weight-gradient and input-gradient GEMMs; a forward the
    # implementation may recompute internally is not counted
    return {"flop": 4 * _rows(x) * _macs(params)}


def _adam_work(params, *args, **kwargs) -> dict:
    # compulsory traffic: read p, g, m, v and write p, m, v (float64)
    return {"bytes": 7 * 8 * params.n_params()}


def _polyak_work(target, *args, **kwargs) -> dict:
    # read target and online, write the result
    return {"bytes": 3 * 8 * target.n_params()}


def _decoder_forward_work(self, states, z) -> dict:
    return {"rows": _rows(states)}


def _scenario_work(scenario, kernels, seed=0) -> dict:
    # the benchmark always passes its kernel list explicitly
    pairs = 3 * scenario.n_samples ** 2  # pp, pq and qq terms of one estimate
    evals = scenario.n_repeats * len(kernels) * scenario.sweep.size * pairs
    return {"scenario": scenario.name, "kernel_evals": evals}


WORK = {
    "nets.mlp_forward": _forward_work,
    "nets.mlp_backward": _backward_work,
    "nets.adam_step": _adam_work,
    "nets.polyak_update": _polyak_work,
    "cvae.FrozenDecoder.forward": _decoder_forward_work,
    "mmd.run_scenario": _scenario_work,
}


# -- wrapping -----------------------------------------------------------------

def _spanned(tracer: Tracer, name: str, fn):
    work = WORK.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name, work(*args, **kwargs) if work else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch the wrappers in; returns (owner, attribute, original) triples."""
    modules = {short: importlib.import_module(f"plas.{short}") for short in MODULES}
    wrappers = {}  # id(original) -> (original, wrapper)
    for short, module in modules.items():
        for name, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, _spanned(tracer, f"{short}.{name}", fn))
    patched = []
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patched.append((module, attr, obj))
                setattr(module, attr, hit[1])
    for hooks, make in ((METHODS, _spanned), (COUNTED, _counted)):
        for short, cls_name, method, name in hooks:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[method]
            patched.append((cls, method, original))
            setattr(cls, method, make(tracer, name, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


@contextmanager
def installed(tracer: Tracer):
    patched = install(tracer)
    try:
        yield patched
    finally:
        uninstall(patched)


# -- analysis -----------------------------------------------------------------

def covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[int]:
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    return [
        span.end - span.start
        - covered([(spans[c].start, spans[c].end) for c in children[i]], span.start, span.end)
        for i, span in enumerate(spans)
    ]


def stages_of(spans: list[Span]) -> list[str | None]:
    """Nearest enclosing stage of each span (parents precede their children)."""
    out: list[str | None] = []
    for span in spans:
        if span.name.startswith(STAGE_PREFIX):
            out.append(span.name[len(STAGE_PREFIX):])
        else:
            out.append(out[span.parent] if span.parent >= 0 else None)
    return out


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, total and self seconds, and calls per parent."""
    rows: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = rows.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "parents": Counter()})
        row["calls"] += 1
        row["total_s"] += (span.end - span.start) * 1e-9
        row["self_s"] += own * 1e-9
        row["parents"][spans[span.parent].name if span.parent >= 0 else "-"] += 1
    for row in rows.values():
        row["parents"] = dict(row["parents"].most_common())
    return dict(sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]))


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start,
                                "end_ns": s.end, "parent": s.parent, "attrs": s.attrs}))
            f.write("\n")


# -- per-layer metrics --------------------------------------------------------

UNIT_SCALE = {  # from ns (times), bytes or flop to the reported unit
    "s": 1e-9, "ms": 1e-6, "us": 1e-3, "MB": 1e-6, "MFLOP": 1e-6,
    "count": 1.0, "fraction": 1.0,
}


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer figure read off the spans of one stage.

    ``quantity`` is "calls", "self" or "total" (ns), "count" (a counter named
    by ``spans``) or an attrs key summed over the matching spans. ``per`` is
    "step" (the stage's ``steps`` attr), "exec" (stage executions), "call"
    (matching spans) or a counter name.
    """

    name: str
    unit: str
    spans: tuple[str, ...]
    stage: str
    quantity: str
    per: str
    where: tuple[tuple[str, object], ...] = ()


def layer_values(metrics, spans: list[Span], counts: Counter) -> dict[str, float]:
    stages = stages_of(spans)
    selfs = self_times(spans)
    by_key: dict = {}
    execs: Counter = Counter()
    steps: Counter = Counter()
    for i, (span, stage) in enumerate(zip(spans, stages)):
        by_key.setdefault((span.name, stage), []).append(i)
        if stage is not None and span.name == STAGE_PREFIX + stage:
            execs[stage] += 1
            steps[stage] += span.attrs.get("steps", 0)
    out = {}
    for m in metrics:
        total, calls = 0, 0
        for name in m.spans:
            if m.quantity == "count":
                total += counts[(m.stage, name)]
                continue
            for i in by_key.get((name, m.stage), ()):
                span = spans[i]
                if any(span.attrs.get(k) != v for k, v in m.where):
                    continue
                calls += 1
                if m.quantity == "calls":
                    total += 1
                elif m.quantity == "self":
                    total += selfs[i]
                elif m.quantity == "total":
                    total += span.end - span.start
                else:
                    total += span.attrs[m.quantity]
        if m.per == "step":
            denom = steps[m.stage]
        elif m.per == "exec":
            denom = execs[m.stage]
        elif m.per == "call":
            denom = calls
        else:
            denom = counts[(m.stage, m.per)]
        if denom == 0:
            raise ValueError(f"{m.name}: nothing to divide by in stage {m.stage!r}")
        out[m.name] = total * UNIT_SCALE[m.unit] / denom
    return out
