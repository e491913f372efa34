import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import tomllib
from dataclasses import fields
from pathlib import Path

import plas
from plas.agent import CriticPair, PlasAgent
from plas.cvae import BehaviorCvae, CvaeTrainConfig
from plas.diagnostics import support_distance, support_threshold
from plas.envs import EdgeFollowEnv, PointMassEnv
from plas.mmd import MmdScenario
from plas.nets import ParamGroup, adam_step, polyak_update

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_declared_scripts_and_documented_modules_exist():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target!r} is not callable"
    documented = re.findall(r":mod:`([\w.]+)`", plas.__doc__)
    assert documented
    for module in documented:
        importlib.import_module(module)


def test_the_methods_perfbench_traces_are_defined_on_their_classes():
    # the tracer patches each hook in its class's own namespace; a method that
    # moved to a base class would silently drop out of ``--trace 1``
    from perfbench import trace

    for module, cls, method, _ in trace.METHODS + trace.COUNTED:
        owner = getattr(importlib.import_module(f"plas.{module}"), cls)
        assert method in vars(owner), f"{module}.{cls}.{method}"


def test_every_plas_span_perfbench_names_is_traced():
    # the tracer spans public functions by name and its hooks by class; a
    # metric whose function was renamed or moved would silently read 0
    from perfbench import pipeline, trace

    spans = {name for metric in pipeline.LAYER_METRICS for name in metric.spans
             if not name.startswith(trace.STAGE_PREFIX)}
    hooks = {name for *_, name in trace.METHODS + trace.COUNTED}
    missing = set()
    for name in spans - hooks:
        module, _, function = name.partition(".")
        if function not in trace.public_functions(importlib.import_module(f"plas.{module}")):
            missing.add(name)
    # envs.rollout gave way to envs.rollout_batch; the benchmark's metric for
    # it is a known fault of the benchmark, which reads 0
    assert missing == {"envs.rollout"}


def _third_party_imports() -> set[str]:
    """Top-level modules imported anywhere under src/plas that are neither the
    standard library nor plas itself."""
    found = set()
    for path in (PYPROJECT.parent / "src" / "plas").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    return found - set(sys.stdlib_module_names) - {"plas"}


def test_declared_dependencies_are_exactly_the_imported_ones():
    # each dependency is named as its import name (numpy, scipy)
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    assert declared == _third_party_imports()


IMPORT_WEIGHT = r"""
import re, sys
import numpy as np
import plas

modules = re.findall(r":mod:`([\w.]+)`", plas.__doc__)
assert modules
for module in modules:
    __import__(module)
from plas.data import DatasetMeta, TransitionDataset
from plas.diagnostics import support_distance, support_threshold

def dataset(state_dim):
    rng = np.random.default_rng(0)
    states = rng.normal(size=(50, state_dim))
    return TransitionDataset(states, rng.uniform(-1, 1, (50, 1)), np.zeros(50), states,
                             np.zeros(50), DatasetMeta("synthetic", "custom", 0, 50))

for state_dim in (1, 4):
    data = dataset(state_dim)
    threshold = support_threshold(data)
    support_distance(data, data.states, data.actions).violation_rate(threshold)
    print(state_dim, "scipy.spatial" in sys.modules)
"""


def test_one_dimensional_support_diagnostics_never_load_scipy_spatial():
    # scipy.spatial adds ~38 MB of resident memory; only wider states need it
    src = str(PYPROJECT.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_WEIGHT], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "False", "4", "True"]


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_later_test():
    pass
"""


def test_a_failing_property_fails_one_test_not_the_session(tmp_path):
    # printing a failing property's patch imports libcst, which warns; the
    # suite's warnings-as-errors filter must not turn that into an internal
    # error that stops every later test
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
                           "-p", "no:cacheprovider", str(path)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout


def test_the_settable_values_of_the_envs_and_the_cvae_are_pinned():
    # each task, the behaviour model, the PLAS agent and the analyses have one
    # fixed form: a new setting must show up here as a reviewed edit (the
    # learner configs are pinned in test_training.py)
    got = {cls.__name__: [f.name for f in fields(cls) if f.init]
           for cls in (PointMassEnv, EdgeFollowEnv, CvaeTrainConfig, BehaviorCvae, MmdScenario,
                       PlasAgent, CriticPair, ParamGroup)}
    got.update({fn.__name__: list(inspect.signature(fn).parameters)
                for fn in (support_distance, support_threshold, adam_step, polyak_update)})
    assert got == {
        "PointMassEnv": ["horizon"],
        "EdgeFollowEnv": ["horizon"],
        "CvaeTrainConfig": ["steps", "batch_size", "learning_rate", "kl_weight",
                            "hidden_sizes", "log_every"],
        "BehaviorCvae": ["encoder", "decoder"],
        "MmdScenario": ["name", "n_samples", "n_repeats"],
        "PlasAgent": ["actor", "actor_target", "critics", "decoder", "max_latent_action",
                      "perturbation", "perturbation_target", "epsilon"],
        "CriticPair": ["q1", "q2", "q1_target", "q2_target", "lam", "gamma"],
        "ParamGroup": ["online", "learning_rate", "target"],
        "support_distance": ["dataset", "states", "actions"],
        "support_threshold": ["dataset", "seed"],
        "adam_step": ["group"],
        "polyak_update": ["group", "tau"],
    }


def test_the_library_writes_nothing_to_stdout_or_stderr(capfd, tmp_path):
    # a script that prints one JSON result line relies on the library being
    # quiet: a desk-size pipeline through the public API, file descriptors
    # captured (so a C-level write would show too)
    import numpy as np

    from plas.agent import PlasTrainConfig, train_plas
    from plas.baselines import (BcTrainConfig, UnconstrainedTrainConfig, train_bc,
                                train_unconstrained)
    from plas.cvae import FrozenDecoder, train_cvae
    from plas.data import load_dataset, save_dataset
    from plas.diagnostics import q_error_report
    from plas.envs import evaluate_policy
    from plas.generators import generate_dataset
    from plas.mmd import run_scenario, scenario_bimodal_hole

    env, rng = EdgeFollowEnv(), np.random.default_rng(0)
    save_dataset(tmp_path / "data.npz", generate_dataset(env, "expert", 500, 0))
    data = load_dataset(tmp_path / "data.npz")
    small = {"steps": 30, "batch_size": 32, "hidden_sizes": (16, 16), "log_every": 10}
    learner = {**small, "eval_interval": 20, "eval_episodes": 2}
    cvae, _ = train_cvae(data, CvaeTrainConfig(**small), rng)
    agent, _ = train_plas(data, FrozenDecoder(cvae), PlasTrainConfig(**learner), rng, env)
    train_unconstrained(data, UnconstrainedTrainConfig(**learner), rng, env)
    train_bc(data, BcTrainConfig(**small), rng)
    evaluate_policy(env, agent.policy_fn(), 2, rng)
    q_error_report(agent, env, 2, 0.99, rng)
    support_distance(data, data.states[:20], data.actions[:20])
    support_threshold(data)
    run_scenario(scenario_bimodal_hole(n_samples=50, n_repeats=1), seed=0)
    assert capfd.readouterr() == ("", "")
