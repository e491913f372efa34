"""Training steps write their gradients into buffers their groups own.

The reference runs below restore the allocating path: ``mlp_backward`` forms a
fresh vector and copies it into ``out``, ``adam_step`` and ``polyak_update`` are
frozen copies of the whole-slice temporaries they replaced. Equal hashes show
that no buffer is overwritten before it is consumed and that no expression
rounds differently.
"""
import tracemalloc

import numpy as np
import pytest

import plas.agent
import plas.baselines
import plas.cvae
from plas.agent import CriticPair, PlasTrainConfig, critic_step, train_plas
from plas.baselines import BcTrainConfig, UnconstrainedTrainConfig, train_bc, train_unconstrained
from plas.cvae import CvaeTrainConfig, FrozenDecoder, cvae_init, elbo_loss_and_grads, train_cvae
from plas.envs import EdgeFollowEnv
from plas.generators import make_bimodal_dataset
from plas.nets import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    NonFiniteError,
    Params,
    ParamGroup,
    adam_step,
    mlp_backward,
    mlp_init,
    params_hash,
    polyak_update,
)

ENV = EdgeFollowEnv()
DATASET = make_bimodal_dataset(600, 0)
DESK = {"steps": 30, "batch_size": 32, "hidden_sizes": (64, 64), "log_every": 10}


def _fresh_backward(params, output_grad, tape, out=None):
    grads, d_in = mlp_backward(params, output_grad, tape)
    if out is None:
        return grads, d_in
    out.flat[...] = grads.flat  # a group's Adam step reads its gradients there
    return out, d_in


def _reference_adam_step(group):
    if not np.isfinite(group.grad.flat).all():
        raise NonFiniteError("non-finite gradient; update rejected")
    group.step += 1
    t = group.step
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, group.learning_rate, ADAM_EPSILON
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i in range(0, group.online.flat.size, 32_768):
        s = slice(i, i + 32_768)
        p, g, m, v = group.online.flat[s], group.grad.flat[s], group.m[s], group.v[s]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return group


def _reference_polyak_update(group, tau):
    group.target.flat *= 1.0 - tau
    group.target.flat += tau * group.online.flat
    return group.target


def _reference(monkeypatch):
    for module in (plas.agent, plas.baselines, plas.cvae):
        monkeypatch.setattr(module, "mlp_backward", _fresh_backward)
        monkeypatch.setattr(module, "adam_step", _reference_adam_step)
    monkeypatch.setattr(plas.agent, "polyak_update", _reference_polyak_update)


def _decoder():
    cvae = cvae_init(ENV.state_dim, ENV.action_dim, CvaeTrainConfig(hidden_sizes=(64, 64)),
                     np.random.default_rng(1))
    return FrozenDecoder(cvae)


def _run(learner):
    rng = np.random.default_rng(7)
    if learner == "cvae":
        cvae, reports = train_cvae(DATASET, CvaeTrainConfig(**DESK), rng)
        return params_hash(cvae.encoder, cvae.decoder), [r.total for r in reports]
    if learner.startswith("plas"):
        eps = float(learner.split("-")[1])
        agent, log = train_plas(DATASET, _decoder(), PlasTrainConfig(
            perturbation_epsilon=eps, **DESK), rng)
        nets = [agent.actor, agent.actor_target, agent.critics.q1, agent.critics.q2,
                agent.critics.q1_target, agent.critics.q2_target]
        if agent.perturbation is not None:
            nets += [agent.perturbation, agent.perturbation_target]
        return params_hash(*nets), [(r.critic_loss, r.mean_q) for r in log]
    if learner == "unconstrained":
        agent, log = train_unconstrained(DATASET, UnconstrainedTrainConfig(**DESK), rng)
        return (params_hash(agent.actor, agent.actor_target, agent.critics.q1, agent.critics.q2,
                            agent.critics.q1_target, agent.critics.q2_target),
                [(r.critic_loss, r.mean_q) for r in log])
    policy, curve = train_bc(DATASET, BcTrainConfig(**DESK), rng)
    return params_hash(policy.net), curve


@pytest.mark.parametrize("learner", ["cvae", "plas-0", "plas-0.05", "unconstrained", "bc"])
def test_workspace_changes_no_number(learner, monkeypatch):
    got = _run(learner)
    _reference(monkeypatch)
    assert got == _run(learner)


# -- no parameter-sized allocation per step -------------------------------------

def _peak_rise(step) -> int:
    """Bytes the traced peak rises above the start while ``step`` runs."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_cvae_step_allocates_less_than_one_parameter_vector():
    rng = np.random.default_rng(8)
    cvae = cvae_init(ENV.state_dim, ENV.action_dim, CvaeTrainConfig(hidden_sizes=(256, 256)), rng)
    group = ParamGroup(Params([cvae.encoder, cvae.decoder]), 1e-3)  # as train_cvae steps it
    idx = rng.integers(0, len(DATASET), 16)
    s, a = DATASET.states[idx], DATASET.actions[idx]
    noise = rng.standard_normal((16, cvae.latent_dim))

    def step():
        elbo_loss_and_grads(cvae, s, a, noise, 0.5, out=tuple(group.grad.nets))
        adam_step(group)

    step()  # warm
    assert _peak_rise(step) < cvae.encoder.flat.nbytes


def test_critic_step_and_polyak_allocate_less_than_one_parameter_vector():
    rng = np.random.default_rng(9)
    q1 = mlp_init([ENV.state_dim + ENV.action_dim, 256, 256, 1], rng)
    q2 = mlp_init([ENV.state_dim + ENV.action_dim, 256, 256, 1], rng)
    critics = CriticPair(q1, q2, q1.copy(), q2.copy())
    group = ParamGroup(Params([q1, q2]), 1e-3, Params([critics.q1_target, critics.q2_target]))
    s = DATASET.states[:16]
    a = DATASET.actions[:16]
    targets = DATASET.rewards[:16]

    def step():
        critic_step(group, s, a, targets)
        polyak_update(group, 0.005)

    step()  # warm
    assert _peak_rise(step) < q1.flat.nbytes
