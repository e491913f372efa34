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

The online run (``train_online_medium``) has one fixed recipe, set by the
module constants below. Its learner is ``ONLINE_LEARNER``: the unconstrained
learner's defaults with a faster actor. It takes at most ``MAX_ENV_STEPS`` env
steps, the first ``WARMUP_STEPS`` of them uniform-random and the rest the
learner's action plus Gaussian noise of std ``EXPLORATION_NOISE``. After the
warm-up, each env step runs one ``agent._learner_step`` (every offline trainer's
step, so a failure names its env step) on a minibatch of the log. Every
``EVAL_EVERY`` steps it evaluates the learner over ``EVAL_EPISODES`` episodes
and stops once that reaches ``STOP_FRACTION`` of the way from the random
policy's return to the scripted expert's, each a mean over
``REFERENCE_EPISODES`` episodes. It steps one (1, state_dim) row at a time and
logs every transition into a preallocated ``data.Batch``, which it samples
like any dataset. Runs are cached per (env, seed), keyed by the env's value
(its horizon), within a process, so that ``medium`` and ``medium_replay``
describe the same training run and the experiment pipeline does not pay for
it twice.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .agent import _learner_step, param_groups
from .baselines import UnconstrainedTrainConfig, unconstrained_agent_init, unconstrained_update
from .data import Batch, DatasetMeta, TransitionDataset, concat_rows, sample_batch
from .envs import EdgeFollowEnv, evaluate_policy, random_policy, rollout_batch
from .nets import COUNT, _count


# the online run's recipe (see the module docstring)
MAX_ENV_STEPS, WARMUP_STEPS, EXPLORATION_NOISE = 20_000, 500, 0.1
STOP_FRACTION, EVAL_EVERY, EVAL_EPISODES = 0.5, 500, 5
REFERENCE_EPISODES = 20  # of the expert and random returns that set the stop
ONLINE_LEARNER = UnconstrainedTrainConfig(actor_lr=3e-4)


@dataclass
class OnlineRunResult:
    policy_fn: object
    replay: Batch  # every transition the run logged, in order


def expert_return(env, rng: np.random.Generator) -> float:
    mean, _ = evaluate_policy(env, env.expert_action, REFERENCE_EPISODES, rng)
    return mean


def random_return(env, rng: np.random.Generator) -> float:
    mean, _ = evaluate_policy(env, random_policy(env, rng), REFERENCE_EPISODES, rng)
    return mean


def train_online_medium(env, seed: int) -> OnlineRunResult:
    """Online actor-critic run stopped partway up the random->expert gap.

    Reuses the unconstrained learner's update and every offline trainer's
    ``_learner_step`` verbatim; the only additions are environment
    interaction, exploration noise, and the log of every transition (a
    ``Batch`` filled row by row), whose filled rows are both the learner's
    replay and, later, the medium-replay dataset.
    """
    rng = np.random.default_rng(seed)
    exp_ret = expert_return(env, np.random.default_rng(seed + 101))
    rand_ret = random_return(env, np.random.default_rng(seed + 102))
    target_return = rand_ret + STOP_FRACTION * (exp_ret - rand_ret)

    cfg = ONLINE_LEARNER
    agent = unconstrained_agent_init(env.state_dim, env.action_dim, cfg, rng)
    groups = param_groups(agent, cfg)

    n, d, a = MAX_ENV_STEPS, env.state_dim, env.action_dim
    log = Batch(np.empty((n, d)), np.empty((n, a)), np.empty(n), np.empty((n, d)), np.empty(n))
    state = env.reset(rng, 1)
    episode_steps = 0
    for t in range(1, n + 1):
        if t <= WARMUP_STEPS:
            action = rng.uniform(-1.0, 1.0, size=(1, a))
        else:
            action = agent.action(state) + rng.normal(0.0, EXPLORATION_NOISE, size=(1, a))
            action = np.clip(action, -1.0, 1.0)
        next_state, reward, done = env.step(state, action)
        row = slice(t - 1, t)
        log.states[row], log.actions[row], log.rewards[row] = state, action, reward
        log.next_states[row], log.dones[row] = next_state, done
        episode_steps += 1
        if done[0] or episode_steps >= env.horizon:
            state = env.reset(rng, 1)
            episode_steps = 0
        else:
            state = next_state

        if t > WARMUP_STEPS:
            batch = sample_batch(log[:t], min(cfg.batch_size, t), rng).astype(agent.actor.dtype)
            _learner_step(partial(unconstrained_update, agent), groups, batch, cfg.tau, t)
            if t % EVAL_EVERY == 0:
                mean, _ = evaluate_policy(env, agent.policy_fn(), EVAL_EPISODES,
                                          np.random.default_rng(seed + 7000 + t))
                if mean >= target_return:
                    break
    return OnlineRunResult(policy_fn=agent.policy_fn(), replay=concat_rows([log], t))


_MEDIUM_CACHE: dict[tuple, OnlineRunResult] = {}


def medium_run(env, seed: int) -> OnlineRunResult:
    key = (env, seed)
    if key not in _MEDIUM_CACHE:
        _MEDIUM_CACHE[key] = train_online_medium(env, seed)
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


def generate_dataset(env, kind: str, size: int, seed: int) -> TransitionDataset:
    """Produce one of the benchmark-style dataset regimes for a toy env.

    Exactly ``size`` rows, except ``medium_replay``, which has at most the
    online run's logged transitions.
    """
    if not _count(size):
        raise ValueError(f"size must be {COUNT}, got {size!r}")
    rng = np.random.default_rng(seed)
    if kind == "random":
        rows = _rollout_rows(env, random_policy(env, rng), size, rng)
    elif kind == "expert":
        rows = _rollout_rows(env, env.expert_action, size, rng, noise_std=0.01)
    elif kind == "medium":
        policy = medium_run(env, seed).policy_fn
        rows = _rollout_rows(env, policy, size, rng, noise_std=0.05)
    elif kind == "medium_replay":
        rows = concat_rows([medium_run(env, seed).replay], size)
    elif kind == "medium_expert":
        policy, n_medium = medium_run(env, seed).policy_fn, size // 2
        rows = concat_rows([_rollout_rows(env, policy, n_medium, rng, noise_std=0.05),
                            _rollout_rows(env, env.expert_action, size - n_medium, rng,
                                          noise_std=0.01)], size)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    meta = DatasetMeta(env_name=env.name, generator_kind=kind, seed=seed, size=len(rows))
    return TransitionDataset(**vars(rows), meta=meta)


# the bimodal behavior: the shares of the local speed limit that its fast and
# slow modes command, the fast mode's probability and the action noise
FAST_FRAC, SLOW_FRAC, P_FAST, MODE_NOISE = 0.9, 0.3, 0.65, 0.03


def make_bimodal_dataset(size: int, seed: int) -> TransitionDataset:
    """Two-mode behavior on the default edge task with a hole between the modes.

    At every state the behavior commands either ``FAST_FRAC`` or ``SLOW_FRAC``
    of the local speed limit (plus a little action noise), so the local action
    distribution is bimodal everywhere, with nothing between the modes. The
    episodes run in lockstep batches like every other rollout regime; each
    step draws the live rows' modes, then their noise.
    """
    if not _count(size):
        raise ValueError(f"size must be {COUNT}, got {size!r}")
    env, rng = EdgeFollowEnv(), np.random.default_rng(seed)

    def behavior(states):
        frac = np.where(rng.uniform(size=len(states)) < P_FAST, FAST_FRAC, SLOW_FRAC)
        a = env.action_for_speed(frac * env.speed_limit(states[:, 0]))
        return np.clip(a + MODE_NOISE * rng.standard_normal(len(states)), -1.0, 1.0)

    meta = DatasetMeta(env_name=env.name, generator_kind="custom", seed=seed, size=size)
    return TransitionDataset(**vars(_rollout_rows(env, behavior, size, rng)), meta=meta)
