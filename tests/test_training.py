"""The offline loop ``agent._steps`` and its step ``agent._learner_step``,
tested through the latent-action agent's and the unconstrained learner's
``train_plas`` and ``train_unconstrained``, and for the failures it names and
the interval means it logs, through ``train_cvae`` and ``train_bc`` too."""
import json
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest

import plas.agent
import plas.baselines
import plas.cvae
import plas.generators
from plas.agent import (
    ActorCriticConfig,
    CriticPair,
    PlasAgent,
    PlasTrainConfig,
    param_groups,
    plas_agent_init,
    train_plas,
    write_log_jsonl,
)
from plas.baselines import (
    BcTrainConfig,
    UnconstrainedTrainConfig,
    train_bc,
    train_unconstrained,
    unconstrained_agent_init,
)
from plas.cvae import CvaeTrainConfig, FrozenDecoder, cvae_init, train_cvae
from plas.envs import EdgeFollowEnv
from plas.generators import make_bimodal_dataset, train_online_medium
from plas.nets import NonFiniteError, params_hash

LEARNERS = ["plas", "unconstrained"]
ENV = EdgeFollowEnv()
DATASET = make_bimodal_dataset(400, 0)
DECODER = FrozenDecoder(cvae_init(ENV.state_dim, ENV.action_dim,
                                  CvaeTrainConfig(hidden_sizes=(8, 8)),
                                  np.random.default_rng(1)))


def config(learner, **settings):
    settings = {"steps": 23, "batch_size": 16, "hidden_sizes": (8, 8), "log_every": 5,
                "eval_interval": 10, "eval_episodes": 1, **settings}
    if learner == "plas":
        return PlasTrainConfig(perturbation_epsilon=0.05, **settings)
    return UnconstrainedTrainConfig(**settings)


def train(learner, cfg, seed=2, env=ENV):
    rng = np.random.default_rng(seed)
    if learner == "plas":
        return train_plas(DATASET, DECODER, cfg, rng, env)
    return train_unconstrained(DATASET, cfg, rng, env)


def pairs(agent):
    """(target, online) of every trained network: q1, q2, actor, head."""
    nets = agent.nets()
    return [(nets[f"{name}_target"], net) for name, net in nets.items()
            if f"{name}_target" in nets]


def initial_agent(learner, cfg, seed=2):
    """The agent the trainer starts from: the first draws of the same seed."""
    rng = np.random.default_rng(seed)
    if learner == "plas":
        return plas_agent_init(DATASET.state_dim, DECODER, cfg, rng)
    return unconstrained_agent_init(DATASET.state_dim, DATASET.action_dim, cfg, rng)


SHARED = {"steps": 20_000, "batch_size": 100, "actor_lr": 1e-4, "critic_lr": 1e-3,
          "gamma": 0.99, "tau": 0.005, "lam": 1.0, "hidden_sizes": (64, 64),
          "eval_interval": 2_500, "eval_episodes": 10, "log_every": 500}


def test_the_learner_configs_declare_the_shared_fields_once():
    assert asdict(ActorCriticConfig()) == SHARED
    assert UnconstrainedTrainConfig is ActorCriticConfig
    assert asdict(PlasTrainConfig()) == {**SHARED, "steps": 50_000, "max_latent_action": 2.0,
                                         "perturbation_epsilon": 0.0}
    assert issubclass(PlasTrainConfig, ActorCriticConfig)
    assert [f.name for f in fields(PlasTrainConfig)][:len(SHARED)] == list(SHARED)


@pytest.mark.parametrize("field, value", [
    ("steps", 0), ("steps", -5), ("batch_size", 0), ("actor_lr", 0.0),
    ("critic_lr", float("nan")), ("gamma", 1.0), ("tau", 0.0), ("lam", 1.5),
    ("hidden_sizes", (8, 0)), ("eval_interval", 0), ("eval_episodes", 0), ("log_every", 0),
    ("steps", 20.0), ("batch_size", 16.0), ("hidden_sizes", (8.0, 8)), ("log_every", 2.5),
    ("eval_interval", True), ("eval_episodes", 1.0), ("hidden_sizes", (8, True)),
    ("hidden_sizes", 64), ("hidden_sizes", None),
])
@pytest.mark.parametrize("learner", LEARNERS)
def test_configs_name_the_shared_field_they_reject(learner, field, value):
    # unchecked, steps <= 0 would return an untrained agent and an empty log,
    # tau=0 would fail only in the first Polyak update, log_every=2.5 logged
    # one record in 5 steps and a float steps failed later, inside numpy
    with pytest.raises(ValueError, match=f"Config.{field} must be"):
        config(learner, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("max_latent_action", 0.0), ("max_latent_action", float("nan")),
    ("max_latent_action", float("inf")), ("perturbation_epsilon", -0.1),
    ("perturbation_epsilon", float("nan")), ("perturbation_epsilon", float("inf")),
])
def test_plas_config_checks_its_own_fields(field, value):
    # unchecked, perturbation_epsilon=nan would build an agent with epsilon nan
    # and no head
    with pytest.raises(ValueError, match=f"PlasTrainConfig.{field} must be"):
        PlasTrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("steps", 0), ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("hidden_sizes", (8, 0)), ("log_every", 0),
    ("steps", 20.0), ("batch_size", True), ("hidden_sizes", (8.0,)), ("log_every", 2.5),
    ("hidden_sizes", 64),
])
def test_the_bc_config_names_the_field_it_rejects(field, value):
    # unchecked, log_every=0 died with ZeroDivisionError, steps=0 returned an
    # untrained policy and learning_rate=nan ran until its loss went non-finite
    with pytest.raises(ValueError, match=f"BcTrainConfig.{field} must be"):
        BcTrainConfig(**{field: value})


FLOAT_FIELDS = [(ActorCriticConfig, name) for name in ("actor_lr", "critic_lr", "gamma", "tau",
                                                       "lam")] + [
    (PlasTrainConfig, "max_latent_action"), (PlasTrainConfig, "perturbation_epsilon"),
    (CvaeTrainConfig, "learning_rate"), (CvaeTrainConfig, "kl_weight"),
    (BcTrainConfig, "learning_rate"), (PlasAgent, "max_latent_action"), (PlasAgent, "epsilon"),
    (CriticPair, "lam"), (CriticPair, "gamma")]


@pytest.mark.parametrize("value", [True, Fraction(1, 1000)], ids=["True", "Fraction"])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_a_float_setting_must_be_a_real_number(cls, name, value):
    # True passed as 1.0, and Fraction(1, 1000) passed until save_agent raised
    # TypeError on it
    built = {}
    if cls in (PlasAgent, CriticPair):
        agent = initial_agent("plas", config("plas"))
        built = agent if cls is PlasAgent else agent.critics
        built = {f.name: getattr(built, f.name) for f in fields(cls) if f.init}
    with pytest.raises(ValueError, match=f"^{cls.__name__}.{name} must be"):
        cls(**{**built, name: value})


@pytest.mark.parametrize("learner", LEARNERS)
def test_each_group_is_one_online_vector_and_one_target_vector(learner):
    cfg = config(learner, actor_lr=2e-4, critic_lr=3e-3)
    agent = initial_agent(learner, cfg)
    nets = agent.nets()
    flats = {name: net.flat for name, net in nets.items()}
    groups = param_groups(agent, cfg)
    members = {"critics": ["q1", "q2"],
               "actor": ["actor"] + (["perturbation"] if learner == "plas" else [])}
    assert list(groups) == list(members)
    for name, group in groups.items():
        assert group.learning_rate == (3e-3 if name == "critics" else 2e-4)
        assert group.step == 0 and group.m.shape == group.online.flat.shape
        assert group.target.layouts == group.online.layouts
        assert not np.shares_memory(group.online.flat, group.target.flat)
        for part, names in ((group.online, members[name]),
                            (group.target, [f"{m}_target" for m in members[name]])):
            assert [id(n) for n in part.nets] == [id(nets[m]) for m in names]
            at = 0
            for m in names:  # consecutive views of the one vector, in order
                size = nets[m].n_params()
                flat = nets[m].flat
                assert (flat if flat.base is None else flat.base) is part.flat
                assert np.shares_memory(nets[m].flat, part.flat[at:at + size])
                at += size
            assert at == part.flat.size
            # the init functions drew them there: building the groups moved nothing
            assert all(nets[m].flat is flats[m] for m in names)


@pytest.mark.parametrize("learner", LEARNERS)
def test_the_loop_builds_the_groups_once_and_steps_each_once_per_step(learner, monkeypatch):
    built, adam_calls, polyak_calls = [], [], []
    build, adam_step, polyak_update = (plas.agent.param_groups, plas.agent.adam_step,
                                       plas.agent.polyak_update)

    def counted_groups(agent, cfg):
        built.append(build(agent, cfg))
        return built[-1]

    def counted_adam(group):
        adam_calls.append(id(group))
        return adam_step(group)

    def counted_polyak(group, tau):
        polyak_calls.append(id(group))
        return polyak_update(group, tau)

    monkeypatch.setattr(plas.agent, "param_groups", counted_groups)
    for module in (plas.agent, plas.baselines):
        monkeypatch.setattr(module, "adam_step", counted_adam)
    monkeypatch.setattr(plas.agent, "polyak_update", counted_polyak)
    train(learner, config(learner, steps=1), env=None)
    # with the residual head too, one step is one Adam and one Polyak call per group
    assert len(built) == 1
    groups = built[0].values()
    assert adam_calls == polyak_calls == [id(g) for g in groups]
    train(learner, config(learner, steps=6), env=None)
    assert len(built) == 2 and all(g.step == 6 for g in built[1].values())


def test_the_online_run_builds_the_groups_once(monkeypatch):
    built = []
    build = plas.generators.param_groups

    def counted_groups(agent, cfg):
        built.append(build(agent, cfg))
        return built[-1]

    monkeypatch.setattr(plas.generators, "param_groups", counted_groups)
    # a 40-step run: 30 warm-up steps, then 10 updates and no evaluation
    monkeypatch.setattr(plas.generators, "MAX_ENV_STEPS", 40)
    monkeypatch.setattr(plas.generators, "WARMUP_STEPS", 30)
    run = train_online_medium(ENV, 0)
    assert len(run.replay) == 40
    assert len(built) == 1
    # ONLINE_LEARNER's rates: the learner's critic default, a faster actor
    assert {n: (g.learning_rate, g.step) for n, g in built[0].items()} == {
        "critics": (1e-3, 10), "actor": (3e-4, 10)}


def test_the_online_run_names_a_failing_step(monkeypatch):
    calls = []
    critic_step = plas.agent.critic_step

    def failing_third(*args):
        calls.append(1)
        if len(calls) == 3:
            raise NonFiniteError("non-finite critic loss")
        return critic_step(*args)

    monkeypatch.setattr(plas.agent, "critic_step", failing_third)
    monkeypatch.setattr(plas.generators, "MAX_ENV_STEPS", 40)
    monkeypatch.setattr(plas.generators, "WARMUP_STEPS", 30)
    # updates start after the 30 warm-up steps: the third runs at env step 33
    with pytest.raises(NonFiniteError, match=r"critic loss \(training step 33\)"):
        train_online_medium(ENV, 0)


@pytest.mark.parametrize("bad", [{"log_every": 0}, {"eval_interval": 0}, {"eval_episodes": 0}],
                         ids=["log_every", "eval_interval", "eval_episodes"])
@pytest.mark.parametrize("learner", LEARNERS)
def test_loop_settings_are_checked_before_the_first_step(learner, bad, monkeypatch):
    calls = []
    sample = plas.agent.sample_batch

    def counted(*args):
        calls.append(1)
        return sample(*args)

    monkeypatch.setattr(plas.agent, "sample_batch", counted)
    with pytest.raises(ValueError, match=next(iter(bad))):
        train(learner, config(learner, **bad))
    assert calls == []


@pytest.mark.parametrize("learner", LEARNERS)
def test_logs_and_evaluations_fall_on_their_intervals(learner):
    _, log = train(learner, config(learner))
    assert [r.step for r in log] == [5, 10, 15, 20, 23]
    evaluated = [r.step for r in log if r.eval_return_mean is not None]
    assert evaluated == [10, 20, 23]
    assert all(r.eval_return_std is not None for r in log if r.step in evaluated)
    assert all(np.isfinite(r.critic_loss) and np.isfinite(r.mean_q) for r in log)
    # without an env nothing is evaluated
    _, log = train(learner, config(learner), env=None)
    assert [r.step for r in log] == [5, 10, 15, 20, 23]
    assert all(r.eval_return_mean is None for r in log)


def test_a_training_log_is_one_json_object_per_record(tmp_path):
    _, log = train("plas", config("plas"))
    path = tmp_path / "log.jsonl"
    write_log_jsonl(path, log)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [asdict(r) for r in log]
    assert list(json.loads(lines[0])) == ["step", "critic_loss", "mean_q", "eval_return_mean",
                                          "eval_return_std"]
    # step 5 was not evaluated: its eval fields are JSON nulls; step 10 was
    assert '"eval_return_mean": null, "eval_return_std": null' in lines[0]
    assert json.loads(lines[1])["eval_return_mean"] == log[1].eval_return_mean is not None


@pytest.mark.parametrize("learner", LEARNERS)
def test_evaluation_does_not_change_what_is_learned(learner):
    # each evaluation runs on a spawned generator, which leaves the training
    # draws as they are
    runs = [train(learner, config(learner), env=env) for env in (ENV, None)]
    hashes = [params_hash(*(net for pair in pairs(agent) for net in pair)) for agent, _ in runs]
    assert hashes[0] == hashes[1]
    logs = [[(r.step, r.critic_loss, r.mean_q) for r in log] for _, log in runs]
    assert logs[0] == logs[1]
    assert [r.step for r in runs[0][1] if r.eval_return_mean is not None] == [10, 20, 23]


@pytest.mark.parametrize("learner", LEARNERS)
def test_every_target_network_moves(learner):
    cfg = config(learner)
    start = pairs(initial_agent(learner, cfg))
    agent, _ = train(learner, cfg)
    assert len(pairs(agent)) == (4 if learner == "plas" else 3)
    for (target, online), (target0, online0) in zip(pairs(agent), start):
        assert params_hash(target0) == params_hash(online0)
        assert params_hash(target) != params_hash(target0)
        assert params_hash(target) != params_hash(online)


@pytest.mark.parametrize("learner", LEARNERS)
def test_same_seed_same_run(learner):
    runs = [train(learner, config(learner)) for _ in range(2)]
    hashes = [params_hash(*(net for pair in pairs(agent) for net in pair))
              for agent, _ in runs]
    assert hashes[0] == hashes[1]
    assert [asdict(r) for r in runs[0][1]] == [asdict(r) for r in runs[1][1]]
    other, _ = train(learner, config(learner), seed=3)
    assert params_hash(*(net for pair in pairs(other) for net in pair)) != hashes[0]


@pytest.mark.parametrize("learner", LEARNERS)
def test_non_finite_update(learner, monkeypatch):
    # the critic step of the third update fails; both learners run it
    # through ``agent.critic_update``, and both stop there, naming the step
    step = plas.agent.critic_step
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise NonFiniteError("non-finite critic loss")
        return step(*args)

    monkeypatch.setattr(plas.agent, "critic_step", failing)
    with pytest.raises(NonFiniteError, match="training step 3"):
        train(learner, config(learner, steps=6, log_every=1), env=None)
    assert len(calls) == 3


@pytest.mark.parametrize("module, trainer, cfg", [
    (plas.cvae, train_cvae, CvaeTrainConfig(steps=6, batch_size=16, hidden_sizes=(8,))),
    (plas.baselines, train_bc, BcTrainConfig(steps=6, batch_size=16, hidden_sizes=(8,))),
], ids=["cvae", "bc"])
def test_every_trainer_names_its_failing_step(module, trainer, cfg, monkeypatch):
    step = module.adam_step
    calls = []

    def failing(group):
        calls.append(1)
        if len(calls) == 3:
            raise NonFiniteError("non-finite gradient; update rejected")
        return step(group)

    monkeypatch.setattr(module, "adam_step", failing)
    with pytest.raises(NonFiniteError, match=r"update rejected \(training step 3\)"):
        trainer(DATASET, cfg, np.random.default_rng(0))
    assert len(calls) == 3


def _run_logged(trainer):
    """The log of a 23-step run, logged every 5 steps, as rows of numbers."""
    small = {"steps": 23, "batch_size": 16, "hidden_sizes": (8,), "log_every": 5}
    rng = np.random.default_rng(0)
    if trainer == "cvae":
        _, log = train_cvae(DATASET, CvaeTrainConfig(**small), rng)
        return [(r.step, (r.reconstruction_loss, r.kl_loss)) for r in log]
    if trainer == "bc":
        _, curve = train_bc(DATASET, BcTrainConfig(**small), rng)
        return [(step, (loss,)) for step, loss in curve]
    if trainer == "unconstrained":
        _, log = train_unconstrained(DATASET, UnconstrainedTrainConfig(**small), rng)
    else:
        eps = 0.05 if trainer == "plas-head" else 0.0
        _, log = train_plas(DATASET, DECODER, PlasTrainConfig(perturbation_epsilon=eps, **small),
                            rng)
    return [(r.step, (r.critic_loss, r.mean_q)) for r in log]


@pytest.mark.parametrize("trainer", ["cvae", "bc", "plas", "plas-head", "unconstrained"])
def test_every_log_record_is_its_intervals_mean(trainer, monkeypatch):
    step, results = plas.agent._learner_step, []

    def recorded(*args):
        results.append(step(*args))
        return results[-1]

    monkeypatch.setattr(plas.agent, "_learner_step", recorded)
    log = _run_logged(trainer)
    assert [s for s, _ in log] == [5, 10, 15, 20, 23]
    assert len(results) == 23
    for (end, numbers), start in zip(log, [0, 5, 10, 15, 20]):
        interval = results[start:end]
        assert numbers == tuple(float(np.mean(column)) for column in zip(*interval))
