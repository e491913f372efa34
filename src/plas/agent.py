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
``_fit`` owns the ``param_groups``: one ``nets.ParamGroup`` per learning rate
(the critics, and the actor with any head), each holding its networks, their
targets and Adam state, and stepped by one Adam and one Polyak call a step.
An agent's networks must fit one another when it is built: each target has its
online network's layout, q2 has q1's, and q1, the actor and any head have the
widths the actor's states and actions (or the decoder's) give them.

``_steps`` is the offline loop and log of every trainer (``_fit`` here,
``cvae.train_cvae`` and ``baselines.train_bc``): it runs ``_learner_step`` on
each minibatch, cast to the groups' dtype, and each log record is the mean of
the update's numbers over its ``log_every`` steps. ``_learner_step`` is the one
training step, which the online run in ``generators`` takes too: the update,
then Polyak on every group with a target, a failure named by its step.

Gradient flow in the actor update runs through the frozen decoder (its input
gradient only, never its parameters), which is the one structurally unusual
piece; everything else is a standard deterministic policy gradient step. Every
backward here reuses the tape of its own forward pass (``nets.mlp_tape``), so
the learner steps take state rows (B, d); ``act`` also takes one state (d,).

``plas_agent_init`` builds float32 networks unless asked for float64 (which the
finite-difference checks use). ``_steps`` casts each float64 minibatch to the
critics' dtype once per step, so targets, losses and every gradient of a step
stay in the networks' dtype; ``act`` casts its states once.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import Batch, TransitionDataset, sample_batch
from .envs import evaluate_policy
from .nets import (
    COUNT,
    JSON_NUMBER,
    Mlp,
    NonFiniteError,
    Params,
    ParamGroup,
    ShapeError,
    _check_settings,
    _count,
    _counts,
    _discount,
    _draw,
    _layout,
    _nonnegative,
    _positive,
    _real,
    _read,
    _write,
    adam_step,
    mlp_backward,
    mlp_forward,
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
        _check_settings(self, (
            ("lam", _real(self.lam) and 0.0 <= self.lam <= 1.0, "in [0, 1]"),
            ("gamma", _discount(self.gamma), "in [0, 1)"),
        ))


def critic_pair_init(state_dim: int, action_dim: int, config, rng: np.random.Generator,
                     dtype) -> CriticPair:
    """Twin (state, action) -> Q networks of ``config.hidden_sizes``, drawn into
    one vector, q1 first, with target copies and ``config``'s lambda and gamma."""
    sizes = [state_dim + action_dim] + list(config.hidden_sizes) + [1]
    online, target = (Params.zeros([sizes, sizes], dtype) for _ in range(2))
    for q in online.nets:
        _draw(q, rng)
    target.flat[...] = online.flat
    return CriticPair(*online.nets, *target.nets, lam=config.lam, gamma=config.gamma)


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


def critic_step(critics: ParamGroup, states: np.ndarray, actions: np.ndarray,
                targets: np.ndarray) -> float:
    """One Adam step on the critic group (q1, q2) toward the shared target.

    This is the single critic/optimizer code path used by every learner in the
    repo (latent-action agent, unconstrained baseline, online trainer), so
    performance differences between them cannot come from here. Both losses
    and gradients (each into its part of the group's ``grad``) are
    computed before the group's one ``adam_step``, which rejects a non-finite
    gradient before it changes anything: on NonFiniteError neither critic nor
    the Adam moments and step count have changed.
    """
    x = np.concatenate([states, actions], axis=1)
    B = x.shape[0]
    losses = []
    for qnet, grad in zip(critics.online.nets, critics.grad.nets):
        tape = mlp_tape(qnet, x)
        err = tape.output[:, 0] - targets
        loss = float(np.mean(err ** 2))
        if not np.isfinite(loss):
            raise NonFiniteError("non-finite critic loss")
        losses.append(loss)
        mlp_backward(qnet, (2.0 * err / B)[:, None], tape, grad)
    adam_step(critics)
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

    def __post_init__(self):
        """Raise ShapeError naming the first network that does not fit: each
        online network must map the widths ``_widths`` gives it, q2 must have
        q1's layout, each target its online network's, and every network
        q1's dtype."""
        nets = self.nets()
        for name, (n_in, n_out) in self._widths().items():
            if (nets[name].in_dim, nets[name].out_dim) != (n_in, n_out):
                raise ShapeError(f"{name} is {nets[name].in_dim} -> {nets[name].out_dim}, "
                                 f"not {n_in} -> {n_out}")
        dtype = nets["q1"].dtype
        for name, net in nets.items():
            like = nets["q1" if name == "q2" else name.removesuffix("_target")]
            if _layout(net) != _layout(like):
                raise ShapeError(f"{name} has the layout {_layout(net)}, not {_layout(like)}")
            if net.dtype != dtype:
                raise ShapeError(f"{name} is {net.dtype}, not {dtype} as q1 is")

    def _widths(self) -> dict[str, tuple[int, int]]:
        """(input, output) widths by network: the actor maps states to
        actions, and q1 a state and an action to one value."""
        s, a = self.actor.in_dim, self.actor.out_dim
        return {"q1": (s + a, 1)}

    def policy_fn(self):
        return self.action

    def nets(self) -> dict[str, Mlp]:
        """Every network by checkpoint name, each followed by ``<name>_target``."""
        c = self.critics
        return {"q1": c.q1, "q1_target": c.q1_target, "q2": c.q2, "q2_target": c.q2_target,
                "actor": self.actor, "actor_target": self.actor_target}


@dataclass
class PlasAgent(ActorCritic):
    # FrozenDecoder-like: forward(s, z) -> actions; tape(s, z) -> a tape whose
    # .output is forward(s, z); backward(tape, da) -> dz, the input gradient
    # only; checkpoint_hash() -> the str that save_agent records
    decoder: object
    max_latent_action: float = 2.0  # the latent is this times the actor's output
    perturbation: Mlp | None = None  # (state, decoded action) -> tanh output
    perturbation_target: Mlp | None = None
    epsilon: float = 0.0  # the decoded action's correction is this times the head's output
    decoder_hash: str = field(init=False)  # the decoder's checkpoint_hash() when built

    def __post_init__(self):
        self.decoder_hash = self.decoder.checkpoint_hash()
        _check_settings(self, (
            ("max_latent_action", _positive(self.max_latent_action), "positive and finite"),
            ("epsilon", _nonnegative(self.epsilon), ">= 0 and finite"),
        ))
        if (self.perturbation is None) != (self.perturbation_target is None):
            raise ValueError("perturbation and perturbation_target come together")
        for name in ("actor", "actor_target", "perturbation", "perturbation_target"):
            net = getattr(self, name)
            if net is not None and net.activations[-1] != "tanh":
                raise ValueError(f"{name} output activation must be tanh")
        super().__post_init__()

    def _widths(self) -> dict[str, tuple[int, int]]:
        """The actor maps states to latents and any head a state and an action
        to an action, all of the decoder's widths."""
        s, a, z = self.decoder.state_dim, self.decoder.action_dim, self.decoder.latent_dim
        widths = {"q1": (s + a, 1), "actor": (s, z)}
        if self.perturbation is not None:
            widths["perturbation"] = (s + a, a)
        return widths

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


def critic_update(agent: ActorCritic, batch: Batch, critics: ParamGroup) -> float:
    """The critic update of both learners: the agent's ``target_action`` for
    s', the soft clipped double-Q targets, one Adam step on the critic group."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    next_actions = agent.target_action(batch.next_states)
    targets = compute_target(agent.critics, batch.rewards, batch.next_states,
                             next_actions, batch.dones)
    return critic_step(critics, batch.states, batch.actions, targets)


def actor_update(agent: PlasAgent, states: np.ndarray, actor: ParamGroup) -> float:
    """Ascend the critic through decoder and (optional) residual head, with
    one Adam step on the actor group (the actor, then the head).

    Returns the batch-mean Q value before the step. The actor, decoder and
    head each run forward once, taped, and the backward pass reuses those
    tapes. The critics and the decoder give input gradients only: no decoder
    gradient is formed and its parameters are never touched. All gradients
    are formed before the group's one ``adam_step``, which rejects a
    non-finite one before it changes anything: on NonFiniteError neither the
    actor nor the head nor their Adam state has changed.
    """
    actions, tapes = _policy_actions(agent, states, use_target=False, taped=True)
    mean_q, da = _action_grad(agent.critics, states, actions)
    grads = actor.grad.nets  # the actor's, then the head's

    if agent.perturbation is not None:
        d_sum = da * (np.abs(tapes["summed"]) < 1.0)
        _, d_pin = mlp_backward(agent.perturbation, d_sum * agent.epsilon, tapes["head"],
                                grads[1])
        d_decoded = d_sum + d_pin[:, agent.actor.in_dim:]
    else:
        d_decoded = da

    dz = agent.decoder.backward(tapes["decoder"], d_decoded)
    mlp_backward(agent.actor, agent.max_latent_action * dz, tapes["actor"], grads[0])
    adam_step(actor)
    return mean_q


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
            ("steps", _count(self.steps), COUNT),
            ("batch_size", _count(self.batch_size), COUNT),
            ("actor_lr", _positive(self.actor_lr), "finite and > 0"),
            ("critic_lr", _positive(self.critic_lr), "finite and > 0"),
            ("gamma", _discount(self.gamma), "in [0, 1)"),
            ("tau", _real(self.tau) and 0.0 < self.tau <= 1.0, "in (0, 1]"),
            ("lam", _real(self.lam) and 0.0 <= self.lam <= 1.0, "in [0, 1]"),
            ("hidden_sizes", _counts(self.hidden_sizes), f"a tuple of sizes each {COUNT}"),
            ("eval_interval", _count(self.eval_interval), COUNT),
            ("eval_episodes", _count(self.eval_episodes), COUNT),
            ("log_every", _count(self.log_every), COUNT),
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
            ("perturbation_epsilon", _nonnegative(self.perturbation_epsilon), "finite and >= 0"),
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
    sizes = [[state_dim] + hidden + [decoder.latent_dim]]
    if config.perturbation_epsilon > 0.0:
        sizes.append([state_dim + action_dim] + hidden + [action_dim])
    # the actor group, drawn in place: the actor first, the head last
    online, target = (Params.zeros(sizes, dtype, output_activation="tanh") for _ in range(2))
    _draw(online.nets[0], rng)
    critics = critic_pair_init(state_dim, action_dim, config, rng, dtype)
    for head in online.nets[1:]:
        _draw(head, rng)
    target.flat[...] = online.flat
    nets, targets = online.nets + [None], target.nets + [None]  # actor, head or None
    return PlasAgent(nets[0], targets[0], critics, decoder, config.max_latent_action,
                     nets[1], targets[1], config.perturbation_epsilon)


def param_groups(agent: ActorCritic, config: ActorCriticConfig) -> dict[str, ParamGroup]:
    """The two groups of ``agent``: "critics" (q1, q2) at ``config.critic_lr``
    and "actor" (the actor, then any residual head) at ``config.actor_lr``.
    Networks the init functions drew are already in their groups' vectors;
    others, built by hand or loaded from a file, are copied in."""
    nets, groups = agent.nets(), {}
    for name, members, lr in (("critics", ("q1", "q2"), config.critic_lr),
                              ("actor", ("actor", "perturbation"), config.actor_lr)):
        online = Params([nets[m] for m in members if m in nets])
        target = Params([nets[f"{m}_target"] for m in members if m in nets])
        groups[name] = ParamGroup(online, lr, target)
    return groups


def _learner_step(update, groups: dict[str, ParamGroup], batch, tau: float | None, step: int):
    """One training step, offline and online: ``update(batch, groups)``, then a
    Polyak update at ``tau`` of each group with a target. Returns what ``update``
    returns; a ``NonFiniteError`` from either is re-raised naming ``step``."""
    try:
        out = update(batch, groups)
        for group in groups.values():
            if group.target is not None:
                polyak_update(group, tau)
    except NonFiniteError as e:
        raise NonFiniteError(f"{e} (training step {step})") from e
    return out


def _steps(groups: dict[str, ParamGroup], dataset: Batch, config, rng, update, tau=None):
    """Every offline trainer's loop and log: per step a ``config.batch_size``
    minibatch, cast to the groups' dtype, through ``_learner_step``. At every
    ``log_every``-th step and at the last it yields (step, the mean of each
    number ``update`` returned since the last yield)."""
    dtype = next(iter(groups.values())).online.dtype
    interval = []
    for step in range(1, config.steps + 1):
        batch = sample_batch(dataset, config.batch_size, rng).astype(dtype)
        interval.append(_learner_step(update, groups, batch, tau, step))
        if step % config.log_every == 0 or step == config.steps:
            yield step, tuple(float(np.mean(column)) for column in zip(*interval))
            interval = []


def _fit(agent: ActorCritic, dataset: Batch, config: ActorCriticConfig,
         rng: np.random.Generator, env, update) -> list[LogRecord]:
    """The training of both offline learners, by their shared (and already
    checked) ``ActorCriticConfig``. It owns the optimiser state: it builds
    ``param_groups`` once and steps them through ``_steps`` with ``update(batch,
    groups) -> (critic_loss, mean_q)``. With an env it also evaluates at each
    logged step that ``eval_interval`` divides and at the last (``log_every`` 10
    and ``eval_interval`` 15 evaluate at step 30 only), on a fresh ``rng.spawn``
    child each time, which leaves ``rng`` where it was: the env changes the
    log, not what is learned."""
    log: list[LogRecord] = []
    groups = param_groups(agent, config)
    for step, (loss, mean_q) in _steps(groups, dataset, config, rng, update, config.tau):
        rec = LogRecord(step, loss, mean_q)
        if env is not None and (step % config.eval_interval == 0 or step == config.steps):
            rec.eval_return_mean, rec.eval_return_std = evaluate_policy(
                env, agent.policy_fn(), config.eval_episodes, rng.spawn(1)[0])
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
    Adam step on the critic group and one on the actor group (with the residual
    head when enabled). A non-finite loss or gradient stops training with
    ``NonFiniteError``. Raises RuntimeError if the decoder changed.
    """
    agent = plas_agent_init(dataset.state_dim, decoder, config, rng)

    def update(batch, groups):
        return (critic_update(agent, batch, groups["critics"]),
                actor_update(agent, batch.states, groups["actor"]))

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
    header, nets = _read(path, "agent", settings={
        "max_latent_action": JSON_NUMBER, "lam": JSON_NUMBER, "gamma": JSON_NUMBER,
        "decoder_hash": (str,), "perturbation_epsilon": JSON_NUMBER},
        nets=("q1", "q1_target", "q2", "q2_target", "actor", "actor_target"))
    critics = CriticPair(nets["q1"], nets["q2"], nets["q1_target"], nets["q2_target"],
                         lam=header["lam"], gamma=header["gamma"])
    agent = PlasAgent(nets["actor"], nets["actor_target"], critics, decoder,
                      header["max_latent_action"], nets.get("perturbation"),
                      nets.get("perturbation_target"), header["perturbation_epsilon"])
    if agent.decoder_hash != header["decoder_hash"]:
        raise ValueError("checkpoint was trained against a different decoder")
    return agent


def agent_hash(agent: PlasAgent) -> str:
    nets = [agent.actor, agent.critics.q1, agent.critics.q2]
    if agent.perturbation is not None:
        nets.append(agent.perturbation)
    return params_hash(*nets)
