"""Latent-action actor-critic for offline RL.

The policy is deterministic and lives in the latent space of a pretrained
behavior model: a tanh-bounded network picks a latent vector, the frozen
decoder projects it to an action the dataset could plausibly contain, and an
optional bounded residual head nudges the result for controlled
out-of-distribution generalization. Twin critics with soft-clipped targets and
Polyak-averaged target copies complete the loop.

Gradient flow in the actor update runs through the frozen decoder (its input
gradient only, never its parameters), which is the one structurally unusual
piece; everything else is a standard deterministic policy gradient step. Every
backward here reuses the tape of its own forward pass (``nets.mlp_tape``).
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Batch, TransitionDataset, sample_batch
from .envs import evaluate_policy
from .nets import (
    AdamState,
    Mlp,
    NonFiniteError,
    _read,
    _write,
    adam_init,
    adam_step,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_input_grad,
    mlp_tape,
    params_hash,
    polyak_update,
)


@dataclass
class LatentActor:
    """Deterministic state -> latent action map, bounded by construction."""

    net: Mlp  # tanh output
    max_latent_action: float = 2.0

    def __post_init__(self):
        if self.max_latent_action <= 0:
            raise ValueError("max_latent_action must be positive")
        if self.net.activations[-1] != "tanh":
            raise ValueError("latent actor output activation must be tanh")

    def latent(self, states: np.ndarray) -> np.ndarray:
        return self.max_latent_action * mlp_forward(self.net, states)


@dataclass
class PerturbationHead:
    """Residual head: (state, decoded action) -> correction in [-eps, eps]^d."""

    net: Mlp  # tanh output
    epsilon: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.net.activations[-1] != "tanh":
            raise ValueError("perturbation output activation must be tanh")


@dataclass
class CriticPair:
    """Twin Q networks, their target copies, and the target mixing rule."""

    q1: Mlp
    q2: Mlp
    q1_target: Mlp
    q2_target: Mlp
    lam: float = 1.0
    gamma: float = 0.99

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")


def q_values(qnet: Mlp, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    x = np.concatenate([np.atleast_2d(states), np.atleast_2d(actions)], axis=1)
    return mlp_forward(qnet, x)[:, 0]


def compute_target(critics: CriticPair, rewards, next_states, next_actions, dones) -> np.ndarray:
    """Soft clipped double-Q target: r + gamma*(1-done)*(lam*min + (1-lam)*max)."""
    r = np.atleast_1d(np.asarray(rewards, dtype=np.float64))
    d = np.atleast_1d(np.asarray(dones, dtype=np.float64))
    t1 = q_values(critics.q1_target, next_states, next_actions)
    t2 = q_values(critics.q2_target, next_states, next_actions)
    y = critics.lam * np.minimum(t1, t2) + (1.0 - critics.lam) * np.maximum(t1, t2)
    return r + critics.gamma * (1.0 - d) * y


def critic_step(
    critics: CriticPair,
    adam_q1: AdamState,
    adam_q2: AdamState,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
) -> float:
    """One Adam step on each critic toward the shared target.

    This is the single critic/optimizer code path used by every learner in the
    repo (latent-action agent, unconstrained baseline, online trainer), so
    performance differences between them cannot come from here. Both losses
    and gradients are computed before either critic moves: on NonFiniteError
    neither critic nor its Adam state has changed.
    """
    x = np.concatenate([states, actions], axis=1)
    B = x.shape[0]
    pairs = ((critics.q1, adam_q1), (critics.q2, adam_q2))
    losses, grads = [], []
    for qnet, _ in pairs:
        tape = mlp_tape(qnet, x)
        err = tape.output[:, 0] - targets
        loss = float(np.mean(err ** 2))
        if not np.isfinite(loss):
            raise NonFiniteError("non-finite critic loss")
        losses.append(loss)
        grads.append(mlp_backward(qnet, (2.0 * err / B)[:, None], tape)[0])
    # adam_step rejects non-finite gradients before it changes anything, so
    # only q2's need checking here, before q1 steps
    if not grads[1].all_finite():
        raise NonFiniteError("non-finite critic gradient")
    for (qnet, adam), g in zip(pairs, grads):
        adam_step(qnet, g, adam)
    return sum(losses) / 2.0


def _action_grad(critics: CriticPair, states: np.ndarray,
                 actions: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean Q1 and the gradient of its negation w.r.t. actions.

    The one Q-gradient path of every actor: it ascends the first critic, which
    gives its input gradient only.
    """
    B, state_dim = states.shape
    tape = mlp_tape(critics.q1, np.concatenate([states, actions], axis=1))
    mean_q = float(np.mean(tape.output[:, 0]))
    da = mlp_input_grad(critics.q1, np.full((B, 1), -1.0 / B), tape)[:, state_dim:]
    if not np.all(np.isfinite(da)):
        raise NonFiniteError("non-finite actor gradient")
    return mean_q, da


@dataclass
class PlasAgent:
    actor: LatentActor
    actor_target: LatentActor
    critics: CriticPair
    # FrozenDecoder-like: forward(s, z) -> actions; tape(s, z) -> a tape whose
    # .output is forward(s, z); backward(tape, da) -> dz, the input gradient only
    decoder: object
    perturbation: PerturbationHead | None = None
    perturbation_target: PerturbationHead | None = None
    decoder_hash: str = ""

    @property
    def state_dim(self) -> int:
        return self.actor.net.in_dim

    def policy_fn(self):
        return lambda s: act(self, s)

    def target_pairs(self) -> list[tuple[Mlp, Mlp]]:
        """(target, online) for every network with a Polyak-averaged copy."""
        pairs = [(self.critics.q1_target, self.critics.q1),
                 (self.critics.q2_target, self.critics.q2),
                 (self.actor_target.net, self.actor.net)]
        if self.perturbation is not None:
            pairs.append((self.perturbation_target.net, self.perturbation.net))
        return pairs


def _policy_actions(
    agent: PlasAgent, states: np.ndarray, use_target: bool, taped: bool = False
) -> tuple[np.ndarray, dict]:
    """Batched actions: actor, decoder, then the residual head if there is one.

    ``act`` and ``critic_update`` run plain forwards and get an empty dict.
    With ``taped`` (``actor_update``) the actor, decoder and head forwards are
    tapes, returned under "actor", "decoder" and "head" with the unclipped
    action sum under "summed", for the backward pass.
    """
    s = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actor = agent.actor_target if use_target else agent.actor
    head = agent.perturbation_target if use_target else agent.perturbation
    tapes = {}
    if taped:
        tapes["actor"] = mlp_tape(actor.net, s)
        z = actor.max_latent_action * tapes["actor"].output
        tapes["decoder"] = agent.decoder.tape(s, z)
        decoded = tapes["decoder"].output
    else:
        z = actor.max_latent_action * mlp_forward(actor.net, s)
        decoded = agent.decoder.forward(s, z)
    if head is None:
        return decoded, tapes
    pin = np.concatenate([s, decoded], axis=1)
    if taped:
        tapes["head"] = mlp_tape(head.net, pin)
        raw = tapes["head"].output
    else:
        raw = mlp_forward(head.net, pin)
    summed = decoded + head.epsilon * raw
    if taped:
        tapes["summed"] = summed
    return np.clip(summed, -1.0, 1.0), tapes


def act(agent: PlasAgent, states: np.ndarray) -> np.ndarray:
    """Deterministic actions: one state (d,) gives (a,), a batch (k, d) gives (k, a)."""
    s = np.asarray(states, dtype=np.float64)
    a, _ = _policy_actions(agent, s, use_target=False)
    return a[0] if s.ndim == 1 else a


def critic_update(agent: PlasAgent, batch: Batch, adam_q1: AdamState,
                  adam_q2: AdamState) -> float:
    """Algorithm step: decode the target actor's latent actions for s', form
    targets, fit critics."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    next_actions, _ = _policy_actions(agent, batch.next_states, use_target=True)
    targets = compute_target(agent.critics, batch.rewards, batch.next_states,
                             next_actions, batch.dones)
    return critic_step(agent.critics, adam_q1, adam_q2, batch.states, batch.actions, targets)


def actor_update(
    agent: PlasAgent,
    states: np.ndarray,
    adam_actor: AdamState,
    adam_pert: AdamState | None = None,
) -> float:
    """Ascend the critic through decoder and (optional) residual head.

    Returns the batch-mean Q value before the step. The actor, decoder and
    head each run forward once, taped, and the backward pass reuses those
    tapes. The critics and the decoder give input gradients only: no decoder
    gradient is formed and its parameters are never touched.
    """
    s = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions, tapes = _policy_actions(agent, s, use_target=False, taped=True)
    mean_q, da = _action_grad(agent.critics, s, actions)

    pert_grads = None
    if agent.perturbation is not None:
        head = agent.perturbation
        inside = (np.abs(tapes["summed"]) < 1.0).astype(np.float64)
        d_sum = da * inside
        pert_grads, d_pin = mlp_backward(head.net, d_sum * head.epsilon, tapes["head"])
        d_decoded = d_sum + d_pin[:, agent.state_dim:]
    else:
        d_decoded = da

    dz = agent.decoder.backward(tapes["decoder"], d_decoded)
    du = agent.actor.max_latent_action * dz
    actor_grads, _ = mlp_backward(agent.actor.net, du, tapes["actor"])

    adam_step(agent.actor.net, actor_grads, adam_actor)
    if pert_grads is not None and adam_pert is not None:
        adam_step(agent.perturbation.net, pert_grads, adam_pert)
    return mean_q


@dataclass
class PlasTrainConfig:
    steps: int = 50_000
    batch_size: int = 100
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    gamma: float = 0.99
    tau: float = 0.005
    lam: float = 1.0
    max_latent_action: float = 2.0
    perturbation_epsilon: float = 0.0  # 0 disables the residual head
    hidden_sizes: tuple[int, ...] = (64, 64)
    eval_interval: int = 2_500
    eval_episodes: int = 10
    log_every: int = 500


@dataclass
class LogRecord:
    step: int
    critic_loss: float
    mean_q: float
    eval_return_mean: float | None = None
    eval_return_std: float | None = None


def write_log_jsonl(path, records: list[LogRecord]) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(asdict(r)))
            f.write("\n")


def plas_agent_init(
    state_dim: int,
    decoder,
    config: PlasTrainConfig,
    rng: np.random.Generator,
) -> PlasAgent:
    hidden = list(config.hidden_sizes)
    latent_dim = decoder.latent_dim
    action_dim = decoder.action_dim
    actor_net = mlp_init([state_dim] + hidden + [latent_dim], rng, output_activation="tanh")
    actor = LatentActor(actor_net, config.max_latent_action)
    actor_target = LatentActor(actor_net.copy(), config.max_latent_action)
    q1 = mlp_init([state_dim + action_dim] + hidden + [1], rng)
    q2 = mlp_init([state_dim + action_dim] + hidden + [1], rng)
    critics = CriticPair(q1, q2, q1.copy(), q2.copy(), lam=config.lam, gamma=config.gamma)
    pert = pert_target = None
    if config.perturbation_epsilon > 0.0:
        pnet = mlp_init([state_dim + action_dim] + hidden + [action_dim], rng,
                        output_activation="tanh")
        pert = PerturbationHead(pnet, config.perturbation_epsilon)
        pert_target = PerturbationHead(pnet.copy(), config.perturbation_epsilon)
    return PlasAgent(
        actor=actor,
        actor_target=actor_target,
        critics=critics,
        decoder=decoder,
        perturbation=pert,
        perturbation_target=pert_target,
        decoder_hash=decoder.checkpoint_hash(),
    )


def _fit(agent, dataset: TransitionDataset, config, rng: np.random.Generator, env,
         update) -> list[LogRecord]:
    """The training loop of both offline learners. Each step draws a minibatch,
    runs ``update(batch) -> (critic_loss, mean_q)`` and Polyak-updates every
    pair of ``agent.target_pairs()``. It logs every ``log_every`` steps and at
    the last; with an env it also evaluates where ``eval_interval`` divides the
    step, and at the last. A ``NonFiniteError`` is re-raised naming the step."""
    if config.log_every < 1:
        raise ValueError("log_every must be >= 1")
    if env is not None and (config.eval_interval < 1 or config.eval_episodes < 1):
        raise ValueError("eval_interval and eval_episodes must be >= 1")
    log: list[LogRecord] = []
    losses, qs = [], []
    for step in range(1, config.steps + 1):
        batch = sample_batch(dataset, config.batch_size, rng)
        try:
            loss, mean_q = update(batch)
        except NonFiniteError as e:
            raise NonFiniteError(f"{e} (training step {step})") from e
        losses.append(loss)
        qs.append(mean_q)
        for target, online in agent.target_pairs():
            polyak_update(target, online, config.tau)

        if step % config.log_every == 0 or step == config.steps:
            rec = LogRecord(step, float(np.mean(losses)), float(np.mean(qs)))
            losses, qs = [], []
            if env is not None and (step % config.eval_interval == 0 or step == config.steps):
                eval_rng = np.random.default_rng(rng.integers(2 ** 63))
                rec.eval_return_mean, rec.eval_return_std = evaluate_policy(
                    env, agent.policy_fn(), config.eval_episodes, eval_rng)
            log.append(rec)
    return log


def train_plas(
    dataset: TransitionDataset,
    decoder,
    config: PlasTrainConfig,
    rng: np.random.Generator,
    env=None,
) -> tuple[PlasAgent, list[LogRecord]]:
    """Policy-training phase over a frozen behavior decoder.

    Runs ``_fit``, whose update is: produce next-state latent actions with the
    target actor, decode them, form the soft clipped double-Q target, take one
    Adam step per critic and one on the actor (plus the residual head when
    enabled). A non-finite loss or gradient stops training with
    ``NonFiniteError``. Raises RuntimeError if the decoder changed.
    """
    agent = plas_agent_init(dataset.state_dim, decoder, config, rng)
    adam_q1 = adam_init(agent.critics.q1, config.critic_lr)
    adam_q2 = adam_init(agent.critics.q2, config.critic_lr)
    adam_actor = adam_init(agent.actor.net, config.actor_lr)
    adam_pert = (None if agent.perturbation is None
                 else adam_init(agent.perturbation.net, config.actor_lr))

    def update(batch):
        return (critic_update(agent, batch, adam_q1, adam_q2),
                actor_update(agent, batch.states, adam_actor, adam_pert))

    log = _fit(agent, dataset, config, rng, env, update)
    if decoder.checkpoint_hash() != agent.decoder_hash:
        raise RuntimeError("frozen decoder was mutated during policy training")
    return agent, log


# -- checkpoints --------------------------------------------------------------

def save_agent(path, agent: PlasAgent, config: PlasTrainConfig | None = None) -> None:
    """Every network of ``agent`` and its settings; the decoder is recorded by
    the hash of the one the agent holds, which ``load_agent`` checks."""
    nets = {
        "actor": agent.actor.net,
        "actor_target": agent.actor_target.net,
        "q1": agent.critics.q1,
        "q2": agent.critics.q2,
        "q1_target": agent.critics.q1_target,
        "q2_target": agent.critics.q2_target,
    }
    if agent.perturbation is not None:
        nets["perturbation"] = agent.perturbation.net
        nets["perturbation_target"] = agent.perturbation_target.net
    _write(path, "agent", {
        "max_latent_action": agent.actor.max_latent_action,
        "lam": agent.critics.lam,
        "gamma": agent.critics.gamma,
        "decoder_hash": agent.decoder.checkpoint_hash(),
        "perturbation_epsilon": 0.0 if agent.perturbation is None else agent.perturbation.epsilon,
        "config": None if config is None else asdict(config),
    }, nets)


def load_agent(path, decoder) -> PlasAgent:
    """The agent saved at ``path``, acting through ``decoder``, which must be
    the decoder it was saved with."""
    header, nets = _read(path, "agent", settings=(
        "max_latent_action", "lam", "gamma", "decoder_hash", "perturbation_epsilon"))
    if decoder.checkpoint_hash() != header["decoder_hash"]:
        raise ValueError("checkpoint was trained against a different decoder")
    sigma = header["max_latent_action"]
    pert = pert_target = None
    if "perturbation" in nets:
        eps = header["perturbation_epsilon"]
        pert = PerturbationHead(nets["perturbation"], eps)
        pert_target = PerturbationHead(nets["perturbation_target"], eps)
    return PlasAgent(
        actor=LatentActor(nets["actor"], sigma),
        actor_target=LatentActor(nets["actor_target"], sigma),
        critics=CriticPair(
            nets["q1"],
            nets["q2"],
            nets["q1_target"],
            nets["q2_target"],
            lam=header["lam"],
            gamma=header["gamma"],
        ),
        decoder=decoder,
        perturbation=pert,
        perturbation_target=pert_target,
        decoder_hash=header["decoder_hash"],
    )


def agent_hash(agent: PlasAgent) -> str:
    nets = [agent.actor.net, agent.critics.q1, agent.critics.q2]
    if agent.perturbation is not None:
        nets.append(agent.perturbation.net)
    return params_hash(*nets)
