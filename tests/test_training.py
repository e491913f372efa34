"""The off-policy loop shared by the latent-action agent and the unconstrained
learner, tested through both ``train_plas`` and ``train_unconstrained``."""
from dataclasses import asdict, fields

import numpy as np
import pytest

import plas.agent
from plas.agent import (
    ActorCritic,
    ActorCriticConfig,
    PlasTrainConfig,
    adam_states,
    plas_agent_init,
    train_plas,
)
from plas.baselines import (
    LOSS_REPORT_CAP,
    UnconstrainedTrainConfig,
    train_unconstrained,
    unconstrained_agent_init,
)
from plas.cvae import FrozenDecoder, cvae_init
from plas.envs import EdgeFollowEnv
from plas.generators import make_bimodal_dataset
from plas.nets import NonFiniteError, params_hash

LEARNERS = ["plas", "unconstrained"]
ENV = EdgeFollowEnv()
DATASET = make_bimodal_dataset(400, 0, ENV)
DECODER = FrozenDecoder(cvae_init(ENV.state_dim, ENV.action_dim, np.random.default_rng(1),
                                  latent_dim=2, hidden_sizes=(8, 8)))


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
])
@pytest.mark.parametrize("learner", LEARNERS)
def test_configs_name_the_shared_field_they_reject(learner, field, value):
    # unchecked, steps <= 0 would return an untrained agent and an empty log,
    # and tau=0 would fail only in the first Polyak update
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


@pytest.mark.parametrize("learner", LEARNERS)
def test_adam_states_cover_every_online_network(learner):
    cfg = config(learner, actor_lr=2e-4, critic_lr=3e-3)
    agent = initial_agent(learner, cfg)
    adams = adam_states(agent, cfg)
    assert list(adams) == ["q1", "q2", "actor"] + (["perturbation"] if learner == "plas" else [])
    for name, adam in adams.items():
        assert adam.learning_rate == (3e-3 if name in ("q1", "q2") else 2e-4)
        assert adam.m.shape == agent.nets()[name].flat.shape and adam.step == 0


@pytest.mark.parametrize("learner", LEARNERS)
def test_the_loop_builds_the_adam_states_and_reads_the_pairs_once(learner, monkeypatch):
    built, read = [], []
    states, pairs = plas.agent.adam_states, ActorCritic.target_pairs

    def counted_states(agent, cfg):
        built.append(states(agent, cfg))
        return built[-1]

    def counted_pairs(agent):
        read.append(1)
        return pairs(agent)

    monkeypatch.setattr(plas.agent, "adam_states", counted_states)
    monkeypatch.setattr(ActorCritic, "target_pairs", counted_pairs)
    train(learner, config(learner, steps=6), env=None)
    assert len(built) == 1 and read == [1]
    assert all(adam.step == 6 for adam in built[0].values())


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


@pytest.mark.parametrize("learner", LEARNERS)
def test_every_target_network_moves(learner):
    cfg = config(learner)
    start = initial_agent(learner, cfg).target_pairs()
    agent, _ = train(learner, cfg)
    pairs = agent.target_pairs()
    assert len(pairs) == (4 if learner == "plas" else 3)
    for (target, online), (target0, online0) in zip(pairs, start):
        assert params_hash(target0) == params_hash(online0)
        assert params_hash(target) != params_hash(target0)
        assert params_hash(target) != params_hash(online)


@pytest.mark.parametrize("learner", LEARNERS)
def test_same_seed_same_run(learner):
    runs = [train(learner, config(learner)) for _ in range(2)]
    hashes = [params_hash(*(net for pair in agent.target_pairs() for net in pair))
              for agent, _ in runs]
    assert hashes[0] == hashes[1]
    assert [asdict(r) for r in runs[0][1]] == [asdict(r) for r in runs[1][1]]
    other, _ = train(learner, config(learner), seed=3)
    assert params_hash(*(net for pair in other.target_pairs() for net in pair)) != hashes[0]


@pytest.mark.parametrize("learner", LEARNERS)
def test_non_finite_update(learner, monkeypatch):
    # the critic step of the third update fails; both learners run it
    # through ``agent.critic_update``
    step = plas.agent.critic_step
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise NonFiniteError("non-finite critic loss")
        return step(*args)

    monkeypatch.setattr(plas.agent, "critic_step", failing)
    cfg = config(learner, steps=6, log_every=1)
    if learner == "plas":
        with pytest.raises(NonFiniteError, match="training step 3"):
            train(learner, cfg, env=None)
        assert len(calls) == 3
        return
    _, log = train(learner, cfg, env=None)
    assert [r.step for r in log] == list(range(1, 7))
    assert log[2].critic_loss == LOSS_REPORT_CAP and log[2].mean_q == LOSS_REPORT_CAP
    assert all(r.critic_loss < LOSS_REPORT_CAP for i, r in enumerate(log) if i != 2)
