"""Latent-action actor-critic for offline RL.

The policy is deterministic and lives in the latent space of a pretrained
behavior model: a tanh-bounded network picks a latent vector, the frozen
decoder projects it to an action the dataset could plausibly contain, and an
optional bounded residual head nudges the result for controlled
out-of-distribution generalization. Twin critics with soft-clipped targets and
Polyak-averaged target copies complete the loop.

Both offline learners are defined here and differ only in the actor's output.
``ActorCritic`` is their shape (a tanh ``Mlp`` actor, its Polyak target, twin
critics); ``nets()`` names each network as a checkpoint does. ``PlasAgent``
adds the frozen decoder, the latent bound, and the optional residual head with
its bound ``epsilon``. ``ActorCriticConfig`` holds the shared settings,
``critic_update`` fits the critics to the agent's ``target_action``, and
``_fit`` owns the Adam states.

Gradient flow in the actor update runs through the frozen decoder (its input
gradient only, never its parameters), which is the one structurally unusual
piece; everything else is a standard deterministic policy gradient step. Every
backward here reuses the tape of its own forward pass (``nets.mlp_tape``), so
the learner steps take state rows (B, d); ``act`` also takes one state (d,).

``plas_agent_init`` builds float32 networks unless asked for float64 (which the
finite-difference checks use). ``_fit`` casts each float64 minibatch to the
critics' dtype once per step, so targets, losses and every gradient of a step
stay in the networks' dtype; ``act`` casts its states once.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Batch, TransitionDataset, sample_batch
from .envs import evaluate_policy
from .nets import (
    AdamState,
    Mlp,
    NonFiniteError,
    _check_settings,
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


def critic_pair_init(state_dim: int, action_dim: int, config, rng: np.random.Generator,
                     dtype) -> CriticPair:
    """Twin (state, action) -> Q networks of ``config.hidden_sizes``, q1 drawn
    first, with target copies and ``config``'s lambda and gamma."""
    sizes = [state_dim + action_dim] + list(config.hidden_sizes) + [1]
    q1 = mlp_init(sizes, rng, dtype=dtype)
    q2 = mlp_init(sizes, rng, dtype=dtype)
    return CriticPair(q1, q2, q1.copy(), q2.copy(), lam=config.lam, gamma=config.gamma)


def q_values(qnet: Mlp, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Q of each (state, action) row pair: (k, d) and (k, a) give (k,)."""
    return mlp_forward(qnet, np.concatenate([states, actions], axis=1))[:, 0]


def compute_target(critics: CriticPair, rewards, next_states, next_actions, dones) -> np.ndarray:
    """Soft clipped double-Q target of each row:
    r + gamma*(1-done)*(lam*min + (1-lam)*max), in the dtype of the rewards,
    dones and target critics."""
    t1 = q_values(critics.q1_target, next_states, next_actions)
    t2 = q_values(critics.q2_target, next_states, next_actions)
    y = critics.lam * np.minimum(t1, t2) + (1.0 - critics.lam) * np.maximum(t1, t2)
    return rewards + critics.gamma * (1.0 - dones) * y


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
    and gradients (each into its critic's ``AdamState.grad``) are computed
    before either critic moves: on NonFiniteError neither critic nor its Adam
    moments and step count have changed.
    """
    x = np.concatenate([states, actions], axis=1)
    B = x.shape[0]
    pairs = ((critics.q1, adam_q1), (critics.q2, adam_q2))
    losses, grads = [], []
    for qnet, adam in pairs:
        tape = mlp_tape(qnet, x)
        err = tape.output[:, 0] - targets
        loss = float(np.mean(err ** 2))
        if not np.isfinite(loss):
            raise NonFiniteError("non-finite critic loss")
        losses.append(loss)
        grads.append(mlp_backward(qnet, (2.0 * err / B)[:, None], tape, adam.grad)[0])
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
    da = mlp_input_grad(critics.q1, np.full((B, 1), -1.0 / B, critics.q1.dtype),
                        tape)[:, state_dim:]
    if not np.all(np.isfinite(da)):
        raise NonFiniteError("non-finite actor gradient")
    return mean_q, da


@dataclass
class ActorCritic:
    """Both offline learners; a subclass's ``action`` maps one state (d,) or a
    batch (k, d) to actions, and ``target_action`` next states to theirs."""

    actor: Mlp  # tanh output
    actor_target: Mlp
    critics: CriticPair

    def policy_fn(self):
        return self.action

    def nets(self) -> dict[str, Mlp]:
        """Every network by checkpoint name, each followed by ``<name>_target``."""
        c = self.critics
        return {"q1": c.q1, "q1_target": c.q1_target, "q2": c.q2, "q2_target": c.q2_target,
                "actor": self.actor, "actor_target": self.actor_target}

    def target_pairs(self) -> list[tuple[Mlp, Mlp]]:
        """(target, online) for every network of ``nets()`` with a target."""
        nets = self.nets()
        return [(nets[f"{name}_target"], net) for name, net in nets.items()
                if f"{name}_target" in nets]


@dataclass
class PlasAgent(ActorCritic):
    # FrozenDecoder-like: forward(s, z) -> actions; tape(s, z) -> a tape whose
    # .output is forward(s, z); backward(tape, da) -> dz, the input gradient only
    decoder: object
    max_latent_action: float = 2.0  # the latent is this times the actor's output
    perturbation: Mlp | None = None  # (state, decoded action) -> tanh output
    perturbation_target: Mlp | None = None
    epsilon: float = 0.0  # the decoded action's correction is this times the head's output
    decoder_hash: str = ""

    def __post_init__(self):
        if not self.max_latent_action > 0:  # NaN included
            raise ValueError("max_latent_action must be positive")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")
        if (self.perturbation is None) != (self.perturbation_target is None):
            raise ValueError("perturbation and perturbation_target come together")
        for name in ("actor", "actor_target", "perturbation", "perturbation_target"):
            net = getattr(self, name)
            if net is not None and net.activations[-1] != "tanh":
                raise ValueError(f"{name} output activation must be tanh")

    def action(self, states: np.ndarray) -> np.ndarray:
        return act(self, states)

    def target_action(self, next_states: np.ndarray) -> np.ndarray:
        """Target actor, decoder, then the target head, clipped."""
        return _policy_actions(self, next_states, use_target=True)[0]

    def nets(self) -> dict[str, Mlp]:
        nets = super().nets()
        if self.perturbation is not None:
            nets.update(perturbation=self.perturbation,
                        perturbation_target=self.perturbation_target)
        return nets


def _clip_unit(x: np.ndarray) -> np.ndarray:
    """``np.clip(x, -1.0, 1.0)`` bit for bit (NaN, -0.0 and inf included), at
    half the cost on one state: np.clip's Python wrapper outweighs the work."""
    return np.minimum(np.maximum(x, -1.0), 1.0)


def _policy_actions(
    agent: PlasAgent, states: np.ndarray, use_target: bool, taped: bool = False
) -> tuple[np.ndarray, dict]:
    """Actions of one state (d,) or a batch (k, d): actor, decoder, then the
    residual head if there is one, each joined on the last axis.

    ``act`` and ``target_action`` run plain forwards and get an empty dict;
    one state runs them on vectors. With ``taped`` (``actor_update``, on a
    batch) the actor, decoder and head forwards are tapes, returned under
    "actor", "decoder" and "head" with the unclipped action sum under
    "summed", for the backward pass. The states are cast once, to the actor's
    dtype.
    """
    actor = agent.actor_target if use_target else agent.actor
    s = np.asarray(states, dtype=actor.dtype)
    head = agent.perturbation_target if use_target else agent.perturbation
    tapes = {}
    if taped:
        tapes["actor"] = mlp_tape(actor, s)
        z = agent.max_latent_action * tapes["actor"].output
        tapes["decoder"] = agent.decoder.tape(s, z)
        decoded = tapes["decoder"].output
    else:
        z = agent.max_latent_action * mlp_forward(actor, s)
        decoded = agent.decoder.forward(s, z)
    if head is None:
        return decoded, tapes
    pin = np.concatenate([s, decoded], axis=-1)
    if taped:
        tapes["head"] = mlp_tape(head, pin)
        raw = tapes["head"].output
    else:
        raw = mlp_forward(head, pin)
    summed = decoded + agent.epsilon * raw
    if taped:
        tapes["summed"] = summed
    return _clip_unit(summed), tapes


def act(agent: PlasAgent, states: np.ndarray) -> np.ndarray:
    """Deterministic actions: one state (d,) gives (a,) through one vector
    forward per network, a batch (k, d) gives (k, a)."""
    return _policy_actions(agent, states, use_target=False)[0]


def critic_update(agent: ActorCritic, batch: Batch, adam_q1: AdamState,
                  adam_q2: AdamState) -> float:
    """The critic update of both learners: the agent's ``target_action`` for
    s', the soft clipped double-Q targets, one Adam step per critic."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    next_actions = agent.target_action(batch.next_states)
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
    gradient is formed and its parameters are never touched. All gradients
    are formed before either network moves: on NonFiniteError neither the
    actor nor the head nor their Adam states have changed.
    """
    actions, tapes = _policy_actions(agent, states, use_target=False, taped=True)
    mean_q, da = _action_grad(agent.critics, states, actions)

    pert_grads = None
    if agent.perturbation is not None:
        d_sum = da * (np.abs(tapes["summed"]) < 1.0)
        pert_grads, d_pin = mlp_backward(agent.perturbation, d_sum * agent.epsilon,
                                         tapes["head"],
                                         None if adam_pert is None else adam_pert.grad)
        d_decoded = d_sum + d_pin[:, agent.actor.in_dim:]
    else:
        d_decoded = da

    dz = agent.decoder.backward(tapes["decoder"], d_decoded)
    du = agent.max_latent_action * dz
    actor_grads, _ = mlp_backward(agent.actor, du, tapes["actor"], adam_actor.grad)

    step_head = pert_grads is not None and adam_pert is not None
    # adam_step rejects non-finite gradients before it changes anything, so
    # only the head's need checking here, before the actor steps
    if step_head and not pert_grads.all_finite():
        raise NonFiniteError("non-finite perturbation gradient")
    adam_step(agent.actor, actor_grads, adam_actor)
    if step_head:
        adam_step(agent.perturbation, pert_grads, adam_pert)
    return mean_q


def _positive(x) -> bool:
    return math.isfinite(x) and x > 0.0


@dataclass
class ActorCriticConfig:
    """The settings both offline learners share, checked when built."""

    steps: int = 20_000
    batch_size: int = 100
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    gamma: float = 0.99
    tau: float = 0.005
    lam: float = 1.0
    hidden_sizes: tuple[int, ...] = (64, 64)
    eval_interval: int = 2_500
    eval_episodes: int = 10
    log_every: int = 500

    def __post_init__(self):
        _check_settings(self, (
            ("steps", self.steps >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("actor_lr", _positive(self.actor_lr), "finite and > 0"),
            ("critic_lr", _positive(self.critic_lr), "finite and > 0"),
            ("gamma", 0.0 <= self.gamma < 1.0, "in [0, 1)"),
            ("tau", 0.0 < self.tau <= 1.0, "in (0, 1]"),
            ("lam", 0.0 <= self.lam <= 1.0, "in [0, 1]"),
            ("hidden_sizes", all(n >= 1 for n in self.hidden_sizes), "sizes >= 1"),
            ("eval_interval", self.eval_interval >= 1, ">= 1"),
            ("eval_episodes", self.eval_episodes >= 1, ">= 1"),
            ("log_every", self.log_every >= 1, ">= 1"),
        ))


@dataclass
class PlasTrainConfig(ActorCriticConfig):
    steps: int = 50_000  # the shared field, with PLAS's longer default
    max_latent_action: float = 2.0
    perturbation_epsilon: float = 0.0  # 0 disables the residual head

    def __post_init__(self):
        super().__post_init__()
        _check_settings(self, (
            ("max_latent_action", _positive(self.max_latent_action), "finite and > 0"),
            ("perturbation_epsilon", math.isfinite(self.perturbation_epsilon)
             and self.perturbation_epsilon >= 0.0, "finite and >= 0"),
        ))


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
    dtype=np.float32,
) -> PlasAgent:
    hidden = list(config.hidden_sizes)
    action_dim = decoder.action_dim
    actor = mlp_init([state_dim] + hidden + [decoder.latent_dim], rng,
                     output_activation="tanh", dtype=dtype)
    critics = critic_pair_init(state_dim, action_dim, config, rng, dtype)
    head = None
    if config.perturbation_epsilon > 0.0:
        head = mlp_init([state_dim + action_dim] + hidden + [action_dim], rng,
                        output_activation="tanh", dtype=dtype)
    return PlasAgent(actor, actor.copy(), critics, decoder, config.max_latent_action,
                     head, None if head is None else head.copy(),
                     config.perturbation_epsilon, decoder.checkpoint_hash())


def adam_states(agent: ActorCritic, config: ActorCriticConfig) -> dict[str, AdamState]:
    """The Adam state of every online network of ``agent.nets()``, under its
    name: the critics at ``config.critic_lr``, the rest at ``config.actor_lr``."""
    return {name: adam_init(net, config.critic_lr if name in ("q1", "q2") else config.actor_lr)
            for name, net in agent.nets().items() if not name.endswith("_target")}


def _fit(agent: ActorCritic, dataset: Batch, config: ActorCriticConfig,
         rng: np.random.Generator, env, update) -> list[LogRecord]:
    """The training loop of both offline learners, by their shared (and
    already checked) ``ActorCriticConfig``. It owns the optimiser state: it
    builds ``adam_states`` and reads ``agent.target_pairs()`` once. Each step
    draws a minibatch, casts it to the critics' dtype, runs ``update(batch,
    adams) -> (critic_loss, mean_q)`` and Polyak-updates every target pair. It
    logs every ``log_every`` steps and at the last; with an env it also
    evaluates where ``eval_interval`` divides the step, and at the last. A
    ``NonFiniteError`` is re-raised naming the step."""
    adams = adam_states(agent, config)
    pairs = agent.target_pairs()
    log: list[LogRecord] = []
    losses, qs = [], []
    dtype = agent.critics.q1.dtype
    for step in range(1, config.steps + 1):
        batch = sample_batch(dataset, config.batch_size, rng).astype(dtype)
        try:
            loss, mean_q = update(batch, adams)
        except NonFiniteError as e:
            raise NonFiniteError(f"{e} (training step {step})") from e
        losses.append(loss)
        qs.append(mean_q)
        for target, online in pairs:
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

    def update(batch, adams):
        return (critic_update(agent, batch, adams["q1"], adams["q2"]),
                actor_update(agent, batch.states, adams["actor"], adams.get("perturbation")))

    log = _fit(agent, dataset, config, rng, env, update)
    if decoder.checkpoint_hash() != agent.decoder_hash:
        raise RuntimeError("frozen decoder was mutated during policy training")
    return agent, log


# -- checkpoints --------------------------------------------------------------

def save_agent(path, agent: PlasAgent, config: PlasTrainConfig | None = None) -> None:
    """Every network of ``agent.nets()`` and its settings; the decoder is
    recorded by the hash of the one the agent holds, which ``load_agent``
    checks."""
    _write(path, "agent", {
        "max_latent_action": agent.max_latent_action,
        "lam": agent.critics.lam,
        "gamma": agent.critics.gamma,
        "decoder_hash": agent.decoder.checkpoint_hash(),
        "perturbation_epsilon": 0.0 if agent.perturbation is None else agent.epsilon,
        "config": None if config is None else asdict(config),
    }, agent.nets())


def load_agent(path, decoder) -> PlasAgent:
    """The agent saved at ``path``, acting through ``decoder``, which must be
    the decoder it was saved with."""
    header, nets = _read(path, "agent", settings=(
        "max_latent_action", "lam", "gamma", "decoder_hash", "perturbation_epsilon"),
        nets=("q1", "q1_target", "q2", "q2_target", "actor", "actor_target"))
    if decoder.checkpoint_hash() != header["decoder_hash"]:
        raise ValueError("checkpoint was trained against a different decoder")
    critics = CriticPair(nets["q1"], nets["q2"], nets["q1_target"], nets["q2_target"],
                         lam=header["lam"], gamma=header["gamma"])
    return PlasAgent(nets["actor"], nets["actor_target"], critics, decoder,
                     header["max_latent_action"], nets.get("perturbation"),
                     nets.get("perturbation_target"), header["perturbation_epsilon"],
                     header["decoder_hash"])


def agent_hash(agent: PlasAgent) -> str:
    nets = [agent.actor, agent.critics.q1, agent.critics.q2]
    if agent.perturbation is not None:
        nets.append(agent.perturbation)
    return params_hash(*nets)
