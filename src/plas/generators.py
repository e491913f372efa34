"""Dataset regimes over the toy tasks, in the style of the usual benchmark suites.

- ``random``: rollouts of a uniform-random policy.
- ``expert``: rollouts of the scripted expert with a little action noise.
- ``medium``: rollouts of a partially-trained policy. The controller comes
  from an online actor-critic run (the unconstrained learner plus exploration
  noise, learning from every transition it has logged so far) stopped once
  evaluation reaches a fraction of the scripted expert's return.
- ``medium_replay``: every transition logged during that same online run,
  which is naturally smaller and messier than the medium rollouts.
- ``medium_expert``: medium rollouts followed by expert rollouts, equal counts.
- bimodal (``custom``): a two-mode behavior policy on the edge task, used for
  the support studies: a fast mode just under the local speed limit and a slow
  reverse mode, with nothing in between.

Rollout regimes (all but ``medium_replay``) run their episodes in lockstep
batches of ``EPISODES_PER_BATCH`` through ``envs.rollout_batch``: one batched
policy call and one array env step per time step. Batches are appended in
episode order until there are enough rows, and the result is cut to the size
asked for. Per-step exploration and behaviour noise is drawn once per lockstep
step for the live rows. For a fixed seed the datasets are stable, and a size-n
dataset is the first n rows of any larger one.

The online run (``train_online_medium``) steps one (1, state_dim) row at a
time and logs every transition into a preallocated ``data.Batch``, which it
samples like any dataset. It is cached per (env, seed, recipe), keyed by the
env's value, within a process so that ``medium`` and ``medium_replay``
describe the same training run, and so that the experiment pipeline does not
pay for it twice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .agent import _positive, param_groups
from .baselines import UnconstrainedTrainConfig, unconstrained_agent_init, unconstrained_update
from .data import Batch, DatasetMeta, TransitionDataset, concat_rows, sample_batch
from .envs import EdgeFollowEnv, evaluate_policy, random_policy, rollout_batch
from .nets import _check_settings, polyak_update


@dataclass
class OnlineTrainRecipe:
    max_env_steps: int = 20_000
    warmup_steps: int = 500  # uniform-random actions before learning starts
    exploration_noise: float = 0.1
    stop_fraction: float = 0.5  # of the random->expert return gap
    eval_every: int = 500
    eval_episodes: int = 5
    batch_size: int = 100
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    hidden_sizes: tuple[int, ...] = (64, 64)
    gamma: float = 0.99
    tau: float = 0.005

    def __post_init__(self):
        _check_settings(self, (
            ("max_env_steps", self.max_env_steps >= 1, ">= 1"),
            ("warmup_steps", self.warmup_steps >= 0, ">= 0"),
            ("exploration_noise", math.isfinite(self.exploration_noise)
             and self.exploration_noise >= 0.0, "finite and >= 0"),
            ("stop_fraction", math.isfinite(self.stop_fraction), "finite"),
            ("eval_every", self.eval_every >= 1, ">= 1"),
            ("eval_episodes", self.eval_episodes >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("actor_lr", _positive(self.actor_lr), "finite and > 0"),
            ("critic_lr", _positive(self.critic_lr), "finite and > 0"),
            ("gamma", 0.0 <= self.gamma < 1.0, "in [0, 1)"),
            ("tau", 0.0 < self.tau <= 1.0, "in (0, 1]"),
        ))


@dataclass
class OnlineRunResult:
    policy_fn: object
    replay: Batch  # every transition the run logged, in order
    eval_history: list[tuple[int, float]] = field(default_factory=list)
    stop_step: int = 0
    expert_return: float = 0.0
    medium_return: float = 0.0


def expert_return(env, rng: np.random.Generator, episodes: int = 20) -> float:
    mean, _ = evaluate_policy(env, env.expert_action, episodes, rng)
    return mean


def random_return(env, rng: np.random.Generator, episodes: int = 20) -> float:
    mean, _ = evaluate_policy(env, random_policy(env, rng), episodes, rng)
    return mean


def train_online_medium(env, seed: int, recipe: OnlineTrainRecipe) -> OnlineRunResult:
    """Online actor-critic run stopped partway up the random->expert gap.

    Reuses the unconstrained learner's update code verbatim; the only
    additions are environment interaction, exploration noise, and the log of
    every transition (a ``Batch`` filled row by row), whose filled rows are
    both the learner's replay and, later, the medium-replay dataset.
    """
    rng = np.random.default_rng(seed)
    exp_ret = expert_return(env, np.random.default_rng(seed + 101))
    rand_ret = random_return(env, np.random.default_rng(seed + 102))
    target_return = rand_ret + recipe.stop_fraction * (exp_ret - rand_ret)

    cfg = UnconstrainedTrainConfig(
        batch_size=recipe.batch_size,
        actor_lr=recipe.actor_lr,
        critic_lr=recipe.critic_lr,
        gamma=recipe.gamma,
        tau=recipe.tau,
        hidden_sizes=recipe.hidden_sizes,
    )
    agent = unconstrained_agent_init(env.state_dim, env.action_dim, cfg, rng)
    groups = param_groups(agent, cfg)

    n, d, a = recipe.max_env_steps, env.state_dim, env.action_dim
    log = Batch(np.empty((n, d)), np.empty((n, a)), np.empty(n), np.empty((n, d)), np.empty(n))
    history: list[tuple[int, float]] = []
    state = env.reset(rng)[None]
    episode_steps = 0
    stop_step = recipe.max_env_steps
    for t in range(1, recipe.max_env_steps + 1):
        if t <= recipe.warmup_steps:
            action = rng.uniform(-1.0, 1.0, size=(1, a))
        else:
            action = agent.action(state) + rng.normal(0.0, recipe.exploration_noise, size=(1, a))
            action = np.clip(action, -1.0, 1.0)
        next_state, reward, done = env.step(state, action)
        row = slice(t - 1, t)
        log.states[row], log.actions[row], log.rewards[row] = state, action, reward
        log.next_states[row], log.dones[row] = next_state, done
        episode_steps += 1
        if done[0] or episode_steps >= env.horizon:
            state = env.reset(rng)[None]
            episode_steps = 0
        else:
            state = next_state

        if t > recipe.warmup_steps:
            batch = sample_batch(log[:t], min(recipe.batch_size, t), rng).astype(agent.actor.dtype)
            unconstrained_update(agent, batch, groups)
            for group in groups.values():
                polyak_update(group.target, group.online, cfg.tau)

        if t % recipe.eval_every == 0 and t > recipe.warmup_steps:
            mean, _ = evaluate_policy(env, agent.policy_fn(), recipe.eval_episodes,
                                      np.random.default_rng(seed + 7000 + t))
            history.append((t, mean))
            if mean >= target_return:
                stop_step = t
                break

    medium_mean, _ = evaluate_policy(env, agent.policy_fn(), 20, np.random.default_rng(seed + 99))
    return OnlineRunResult(
        policy_fn=agent.policy_fn(),
        replay=concat_rows([log], stop_step),
        eval_history=history,
        stop_step=stop_step,
        expert_return=exp_ret,
        medium_return=medium_mean,
    )


_MEDIUM_CACHE: dict[tuple, OnlineRunResult] = {}


def medium_run(env, seed: int, recipe: OnlineTrainRecipe | None = None) -> OnlineRunResult:
    recipe = recipe or OnlineTrainRecipe()
    key = (env, seed, tuple(sorted(vars(recipe).items())))
    if key not in _MEDIUM_CACHE:
        _MEDIUM_CACHE[key] = train_online_medium(env, seed, recipe)
    return _MEDIUM_CACHE[key]


# Episodes per lockstep batch in generation. A constant, not a function of the
# size asked for, so a size-n dataset is the first n rows of any larger one.
EPISODES_PER_BATCH = 128


def _rollout_rows(env, policy, n: int, rng: np.random.Generator,
                  noise_std: float = 0.0) -> Batch:
    """Batches of ``EPISODES_PER_BATCH`` lockstep episodes under the batched
    ``policy`` until there are ``n`` rows, laid end to end and cut to ``n``."""
    parts = []
    # at least one batch, so n == 0 still knows the column widths
    while not parts or sum(map(len, parts)) < n:
        parts.append(rollout_batch(env, policy, EPISODES_PER_BATCH, rng, noise_std)[0])
    return concat_rows(parts, n)


def generate_dataset(env, kind: str, size: int, seed: int,
                     recipe: OnlineTrainRecipe | None = None) -> TransitionDataset:
    """Produce one of the benchmark-style dataset regimes for a toy env.

    Exactly ``size`` rows, except ``medium_replay``, which has at most the
    online run's logged transitions.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "random":
        rows = _rollout_rows(env, random_policy(env, rng), size, rng)
    elif kind == "expert":
        rows = _rollout_rows(env, env.expert_action, size, rng, noise_std=0.01)
    elif kind == "medium":
        policy = medium_run(env, seed, recipe).policy_fn
        rows = _rollout_rows(env, policy, size, rng, noise_std=0.05)
    elif kind == "medium_replay":
        rows = concat_rows([medium_run(env, seed, recipe).replay], size)
    elif kind == "medium_expert":
        policy, n_medium = medium_run(env, seed, recipe).policy_fn, size // 2
        rows = concat_rows([_rollout_rows(env, policy, n_medium, rng, noise_std=0.05),
                            _rollout_rows(env, env.expert_action, size - n_medium, rng,
                                          noise_std=0.01)], size)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    meta = DatasetMeta(env_name=env.name, generator_kind=kind, seed=seed, size=len(rows))
    return TransitionDataset(**vars(rows), meta=meta)


def make_bimodal_dataset(size: int, seed: int, env: EdgeFollowEnv | None = None,
                         fast_frac: float = 0.9, slow_frac: float = 0.3,
                         p_fast: float = 0.65, mode_noise: float = 0.03) -> TransitionDataset:
    """Two-mode behavior on the edge task with a hole between the modes.

    At every state the behavior commands either ``fast_frac`` or ``slow_frac``
    of the local speed limit (plus a little action noise), so the local action
    distribution is bimodal everywhere, with nothing between the modes. The
    episodes run in lockstep batches like every other rollout regime; each
    step draws the live rows' modes, then their noise.
    """
    env = env or EdgeFollowEnv()
    rng = np.random.default_rng(seed)

    def behavior(states):
        frac = np.where(rng.uniform(size=len(states)) < p_fast, fast_frac, slow_frac)
        a = env.action_for_speed(frac * env.speed_limit(states[:, 0]))
        return np.clip(a + mode_noise * rng.standard_normal(len(states)), -1.0, 1.0)

    meta = DatasetMeta(env_name=env.name, generator_kind="custom", seed=seed, size=size)
    return TransitionDataset(**vars(_rollout_rows(env, behavior, size, rng)), meta=meta)
