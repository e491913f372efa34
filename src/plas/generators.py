"""Dataset regimes over the toy tasks, in the style of the usual benchmark suites.

- ``random``: rollouts of a uniform-random policy.
- ``expert``: rollouts of the scripted expert with a little action noise.
- ``medium``: rollouts of a partially-trained policy. The controller comes
  from an online actor-critic run (the unconstrained learner plus exploration
  noise and a replay buffer) stopped once evaluation reaches a fraction of the
  scripted expert's return.
- ``medium_replay``: the replay buffer logged during that same online run,
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
step for the live rows, so the datasets (and their content hashes) differ from
those of the earlier one-episode-at-a-time loop; for a fixed seed they are
stable, and a size-n dataset is the first n rows of any larger one.

The online run (``train_online_medium``) steps one state at a time. It is
cached per (env, seed, recipe) within a process so that ``medium`` and
``medium_replay`` describe the same training run, and so that the experiment
pipeline does not pay for it twice.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .baselines import UnconstrainedTrainConfig, unconstrained_agent_init, unconstrained_update
from .data import Batch, DatasetMeta, TransitionDataset, concat_datasets
from .envs import EdgeFollowEnv, evaluate_policy, random_policy, rollout_batch
from .nets import adam_init, polyak_update


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


@dataclass
class OnlineRunResult:
    policy_fn: object
    replay: Batch  # every transition the run logged, in order
    eval_history: list[tuple[int, float]] = field(default_factory=list)
    stop_step: int = 0
    expert_return: float = 0.0
    medium_return: float = 0.0


def expert_policy_fn(env):
    return lambda s: env.expert_action(s)


def expert_return(env, rng: np.random.Generator, episodes: int = 20) -> float:
    mean, _ = evaluate_policy(env, expert_policy_fn(env), episodes, rng)
    return mean


def random_return(env, rng: np.random.Generator, episodes: int = 20) -> float:
    mean, _ = evaluate_policy(env, random_policy(env, rng), episodes, rng)
    return mean


class _ReplayBuffer:
    """Flat preallocated arrays; cheap append and vectorized sampling."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        self.states = np.empty((capacity, state_dim))
        self.actions = np.empty((capacity, action_dim))
        self.rewards = np.empty(capacity)
        self.next_states = np.empty((capacity, state_dim))
        self.dones = np.empty(capacity)
        self.n = 0

    def add(self, s, a, r, s2, done):
        i = self.n
        self.states[i] = s
        self.actions[i] = a
        self.rewards[i] = r
        self.next_states[i] = s2
        self.dones[i] = 1.0 if done else 0.0
        self.n += 1

    def sample(self, k: int, rng: np.random.Generator) -> Batch:
        idx = rng.integers(0, self.n, size=min(k, self.n))
        return Batch(self.states[idx], self.actions[idx], self.rewards[idx],
                     self.next_states[idx], self.dones[idx])


def train_online_medium(env, seed: int, recipe: OnlineTrainRecipe) -> OnlineRunResult:
    """Online actor-critic run stopped partway up the random->expert gap.

    Reuses the unconstrained learner's update code verbatim; the only
    additions are environment interaction, exploration noise, and the replay
    buffer that later becomes the medium-replay dataset.
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
    adam_q1 = adam_init(agent.critics.q1, cfg.critic_lr)
    adam_q2 = adam_init(agent.critics.q2, cfg.critic_lr)
    adam_actor = adam_init(agent.actor, cfg.actor_lr)

    replay = _ReplayBuffer(recipe.max_env_steps, env.state_dim, env.action_dim)
    history: list[tuple[int, float]] = []
    state = env.reset(rng)
    episode_steps = 0
    stop_step = recipe.max_env_steps
    for t in range(1, recipe.max_env_steps + 1):
        if t <= recipe.warmup_steps:
            action = rng.uniform(-1.0, 1.0, size=env.action_dim)
        else:
            action = agent.action(state) + rng.normal(0.0, recipe.exploration_noise, size=env.action_dim)
            action = np.clip(action, -1.0, 1.0)
        next_state, reward, done = env.step(state, action)
        replay.add(state, action, reward, next_state, done)
        episode_steps += 1
        if done or episode_steps >= env.horizon:
            state = env.reset(rng)
            episode_steps = 0
        else:
            state = next_state

        if t > recipe.warmup_steps:
            batch = replay.sample(recipe.batch_size, rng).astype(agent.actor.dtype)
            unconstrained_update(agent, batch, adam_q1, adam_q2, adam_actor)
            for target, online in agent.target_pairs():
                polyak_update(target, online, cfg.tau)

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
        replay=_first_rows([replay], replay.n),
        eval_history=history,
        stop_step=stop_step,
        expert_return=exp_ret,
        medium_return=medium_mean,
    )


_MEDIUM_CACHE: dict[tuple, OnlineRunResult] = {}


def medium_run(env, seed: int, recipe: OnlineTrainRecipe | None = None) -> OnlineRunResult:
    recipe = recipe or OnlineTrainRecipe()
    key = (env.name, seed, tuple(sorted(vars(recipe).items())))
    if key not in _MEDIUM_CACHE:
        _MEDIUM_CACHE[key] = train_online_medium(env, seed, recipe)
    return _MEDIUM_CACHE[key]


_COLUMNS = tuple(f.name for f in fields(Batch))

# Episodes per lockstep batch in generation. A constant, not a function of the
# size asked for, so a size-n dataset is the first n rows of any larger one.
EPISODES_PER_BATCH = 128


def _first_rows(parts, n: int) -> Batch:
    """The first ``n`` rows of columnar ``parts`` laid end to end, as new arrays."""
    return Batch(*(np.concatenate([getattr(p, c) for p in parts])[:n] for c in _COLUMNS))


def _rollout_columns(env, policy, n: int, rng: np.random.Generator,
                     noise_std: float = 0.0) -> Batch:
    """Batches of ``EPISODES_PER_BATCH`` lockstep episodes under the batched
    ``policy`` until there are ``n`` rows, laid end to end and cut to ``n``."""
    episodes = []
    # at least one batch, so n == 0 still knows the column widths
    while not episodes or sum(map(len, episodes)) < n:
        episodes += rollout_batch(env, policy, EPISODES_PER_BATCH, rng, noise_std)
    return _first_rows(episodes, n)


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
        columns = _rollout_columns(env, random_policy(env, rng), size, rng)
    elif kind == "expert":
        columns = _rollout_columns(env, expert_policy_fn(env), size, rng, noise_std=0.01)
    elif kind == "medium":
        run = medium_run(env, seed, recipe)
        columns = _rollout_columns(env, run.policy_fn, size, rng, noise_std=0.05)
    elif kind == "medium_replay":
        columns = _first_rows([medium_run(env, seed, recipe).replay], size)
    elif kind == "medium_expert":
        run = medium_run(env, seed, recipe)
        n_medium = size // 2
        medium = _rollout_columns(env, run.policy_fn, n_medium, rng, noise_std=0.05)
        expert = _rollout_columns(env, expert_policy_fn(env), size - n_medium, rng, noise_std=0.01)
        return concat_datasets(medium, expert, DatasetMeta(env.name, kind, seed, size))
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    meta = DatasetMeta(env_name=env.name, generator_kind=kind, seed=seed, size=len(columns))
    return TransitionDataset(columns.states, columns.actions, columns.rewards,
                             columns.next_states, columns.dones, meta)


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

    columns = _rollout_columns(env, behavior, size, rng)
    meta = DatasetMeta(env_name=env.name, generator_kind="custom", seed=seed, size=size)
    return TransitionDataset(columns.states, columns.actions, columns.rewards,
                             columns.next_states, columns.dones, meta)
