"""Comparison policies: behavior cloning and the unconstrained off-policy learner.

Both train through ``agent._steps``, the offline loop of every trainer, whose
step is ``agent._learner_step``. The unconstrained learner is the minimal
ablation of the latent-action agent, defined by ``agent``: an
``agent.ActorCritic`` with the shared config ``agent.ActorCriticConfig``, the
one critic update ``agent.critic_update``, the Q1 action gradient and the
learners' training ``agent._fit``, which owns the groups. Only the actor's
output differs: an action straight from the state with no behavior-model
constraint, for acting and as the critic target's ``target_action``. It
deliberately omits target-policy smoothing noise so the two learners differ in
the actor parameterization and nothing else. Applied to a fixed dataset it is
the classic recipe for Q-value blow-up, which is why it is here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .agent import (ActorCritic, ActorCriticConfig, LogRecord, _action_grad, _fit, _steps,
                    critic_pair_init, critic_update)
from .data import TransitionDataset
from .nets import (
    COUNT,
    Mlp,
    NonFiniteError,
    Params,
    ParamGroup,
    _check_settings,
    _count,
    _counts,
    _positive,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_tape,
)

@dataclass
class BcPolicy:
    net: Mlp  # state -> action, tanh output

    def action(self, state: np.ndarray) -> np.ndarray:
        return mlp_forward(self.net, state)

    def policy_fn(self):
        return self.action


@dataclass
class BcTrainConfig:
    steps: int = 10_000
    batch_size: int = 100
    learning_rate: float = 1e-3
    hidden_sizes: tuple[int, ...] = (64, 64)
    log_every: int = 500

    def __post_init__(self):
        _check_settings(self, (
            ("steps", _count(self.steps), COUNT),
            ("batch_size", _count(self.batch_size), COUNT),
            ("learning_rate", _positive(self.learning_rate), "finite and > 0"),
            ("hidden_sizes", _counts(self.hidden_sizes), f"a tuple of sizes each {COUNT}"),
            ("log_every", _count(self.log_every), COUNT),
        ))


def train_bc(dataset: TransitionDataset, config: BcTrainConfig,
             rng: np.random.Generator) -> tuple[BcPolicy, list[tuple[int, float]]]:
    """Minimize MSE between net(s) and the dataset action over minibatches, in
    float32; a failing step raises NonFiniteError naming it, as
    ``"non-finite BC loss (training step 3)"``; each logged loss is its
    interval's mean (see ``agent._steps``)."""
    net = mlp_init([dataset.state_dim] + list(config.hidden_sizes) + [dataset.action_dim],
                   rng, output_activation="tanh", dtype=np.float32)
    group = ParamGroup(Params([net]), config.learning_rate)

    def update(batch, groups):
        tape = mlp_tape(net, batch.states)
        err = tape.output - batch.actions
        loss = float(np.mean(err ** 2))
        if not np.isfinite(loss):
            raise NonFiniteError("non-finite BC loss")
        mlp_backward(net, 2.0 * err / err.size, tape, group.grad.nets[0])
        adam_step(group)
        return (loss,)

    return BcPolicy(net), [(step, loss) for step, (loss,)
                           in _steps({"bc": group}, dataset, config, rng, update)]


@dataclass
class UnconstrainedAgent(ActorCritic):
    """The actor maps states straight to actions."""

    def action(self, state: np.ndarray) -> np.ndarray:
        return mlp_forward(self.actor, state)

    def target_action(self, next_states: np.ndarray) -> np.ndarray:
        return mlp_forward(self.actor_target, next_states)


UnconstrainedTrainConfig = ActorCriticConfig  # no constraint adds a setting


def unconstrained_agent_init(state_dim: int, action_dim: int,
                             config: UnconstrainedTrainConfig,
                             rng: np.random.Generator,
                             dtype=np.float32) -> UnconstrainedAgent:
    """Float32 networks unless asked for float64."""
    actor = mlp_init([state_dim] + list(config.hidden_sizes) + [action_dim], rng,
                     output_activation="tanh", dtype=dtype)
    critics = critic_pair_init(state_dim, action_dim, config, rng, dtype)
    return UnconstrainedAgent(actor, actor.copy(), critics)


def direct_actor_update(agent: UnconstrainedAgent, states: np.ndarray,
                        actor: ParamGroup) -> float:
    """Deterministic policy gradient straight through the actor (no decoder),
    one Adam step on the actor group."""
    tape = mlp_tape(agent.actor, states)
    mean_q, da = _action_grad(agent.critics, states, tape.output)
    mlp_backward(agent.actor, da, tape, actor.grad.nets[0])
    adam_step(actor)
    return mean_q


def unconstrained_update(agent: UnconstrainedAgent, batch,
                         groups: dict[str, ParamGroup]) -> tuple[float, float]:
    """``agent.critic_update``, then ``direct_actor_update``, on the groups of
    ``agent.param_groups``; shared with the online trainer. The batch is
    expected in the networks' dtype (``agent._steps`` casts it)."""
    return (critic_update(agent, batch, groups["critics"]),
            direct_actor_update(agent, batch.states, groups["actor"]))


def train_unconstrained(
    dataset: TransitionDataset,
    config: UnconstrainedTrainConfig,
    rng: np.random.Generator,
    env=None,
) -> tuple[UnconstrainedAgent, list[LogRecord]]:
    """Run the off-policy learner on the fixed buffer, no constraint at all.

    Runs ``agent._fit`` with ``unconstrained_update`` as its update; a
    failing step raises NonFiniteError naming it, as every trainer's does.
    """
    agent = unconstrained_agent_init(dataset.state_dim, dataset.action_dim, config, rng)
    return agent, _fit(agent, dataset, config, rng, env, partial(unconstrained_update, agent))
