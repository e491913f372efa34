"""Desk-scale continuous-control tasks standing in for the usual simulators.

Two environments ship by default:

- ``point-mass``: 2-d goal reaching. State is (position, velocity), action is
  a bounded acceleration, reward is negative distance to the goal with a
  terminal bonus. Smooth dense-reward dynamics.
- ``edge-follow``: a 1-d track with a position-dependent speed limit,
  abstracting a contact-rich sliding task. The reward each step equals the
  (horizontal) action, but commanding more than the local safe speed loses the
  edge: zero reward and an absorbing failure. The support boundary is fragile,
  which is exactly the regime where out-of-distribution actions get punished.

Environments are cheap value objects, one fixed task each: the dynamics are
class constants (``ClassVar``s such as point-mass's ``goal``, ``dt`` and
``damping`` or edge-follow's speed-limit curve and ``step_scale``). The one
field is ``horizon``, the cap on an episode's length, an integer >= 1 checked
when built (``ValueError`` naming it otherwise). ``step`` is a pure function
of (states, actions) and ``reset`` only consumes the rng you hand it. Both take
and give rows only: ``reset(rng, n)`` gives the start states (n, state_dim) of
n episodes from one rng call, the same numbers in the same order as n
one-episode draws; states (N, state_dim) and actions (N, action_dim) give next
states (N, state_dim), rewards (N,) and dones (N,), row by row; one state is
the row (1, state_dim), and a 1-D state raises ``ValueError``. Finite
out-of-bounds actions are clipped into [-1, 1] row by row (a row is clipped
when its largest magnitude exceeds 1 + 1e-12) and each clipped row adds one to
a module-level tally rather than raising (see ``clip_warning_count``); a NaN
or infinite action raises ``ValueError``.

``rollout_batch`` is the one episode engine: it runs N episodes in lockstep,
one batched policy call and one array ``step`` per time step, and returns
their transitions as one ``data.Batch`` of rows in episode order. It is used
by dataset generation, evaluation and the Q-error report.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import Batch
from .nets import COUNT, _check_settings, _count, _discount, _nonnegative

_CLIP_WARNINGS = 0


def clip_warning_count() -> int:
    """Number of action rows clipped into [-1, 1] since import; callers read
    differences of it."""
    return _CLIP_WARNINGS


def _step_rows(env, states, actions) -> tuple[np.ndarray, np.ndarray]:
    """States (N, state_dim) and row-clipped actions (N, action_dim) as float64;
    a non-finite action raises."""
    global _CLIP_WARNINGS
    s = np.asarray(states, dtype=np.float64)
    a = np.asarray(actions, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != env.state_dim:
        raise ValueError(f"states must be rows (N, {env.state_dim}), got {np.shape(states)}")
    if a.shape != (s.shape[0], env.action_dim):
        raise ValueError(f"actions must be ({s.shape[0]}, {env.action_dim}) for states "
                         f"{np.shape(states)}, got {np.shape(actions)}")
    inside = np.abs(a) <= 1.0 + 1e-12  # False for NaN as well
    if np.count_nonzero(inside) < a.size:
        if not np.isfinite(a).all():
            raise ValueError("actions must be finite")
        over = ~inside.all(axis=1)
        _CLIP_WARNINGS += int(over.sum())
        a = np.where(over[:, None], np.clip(a, -1.0, 1.0), a)
    return s, a


@dataclass(frozen=True)
class PointMassEnv:
    """Accelerate a point in the plane onto a goal."""

    name: ClassVar[str] = "point-mass"
    state_dim: ClassVar[int] = 4  # (px, py, vx, vy)
    action_dim: ClassVar[int] = 2
    goal: ClassVar[tuple[float, float]] = (1.0, 1.0)
    dt: ClassVar[float] = 0.1
    damping: ClassVar[float] = 0.9
    start_jitter: ClassVar[float] = 0.1
    goal_radius: ClassVar[float] = 0.1
    goal_bonus: ClassVar[float] = 10.0
    horizon: int = 100

    def __post_init__(self):
        _check_settings(self, (("horizon", _count(self.horizon), COUNT),))

    def reset(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, 4) start rows: uniform positions from one (n, 2) draw, at rest."""
        p = rng.uniform(-self.start_jitter, self.start_jitter, size=(n, 2))
        return np.concatenate([p, np.zeros((n, 2))], axis=1)

    def step(self, states: np.ndarray, actions):
        """Array step: see the module docstring for the shapes."""
        s, a = _step_rows(self, states, actions)
        v2 = self.damping * s[:, 2:] + self.dt * a
        p2 = s[:, :2] + self.dt * v2
        d = p2 - np.asarray(self.goal)
        # sqrt of a per-row dot product: the same rounding as np.linalg.norm of one row
        dist = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
        dones = dist < self.goal_radius
        rewards = -dist + self.goal_bonus * dones
        return np.concatenate([p2, v2], axis=1), rewards, dones

    def expert_action(self, states: np.ndarray) -> np.ndarray:
        """Proportional-derivative servo onto the goal, row-wise over (..., 4)."""
        p, v = states[..., :2], states[..., 2:]
        return np.clip(2.0 * (np.asarray(self.goal) - p) - 1.0 * v, -1.0, 1.0)


@dataclass(frozen=True)
class EdgeFollowEnv:
    """Slide along a 1-d edge as far and as fast as the local limit allows.

    The action a in [-1, 1] commands a forward slide speed (a+1)/2 in [0, 1];
    the per-step reward equals that speed, so rewards are non-negative and
    faster looks strictly better. Safe speeds vary along the track as
    ``speed_limit(x)``; commanding more loses the edge: zero reward, episode
    over, an absorbing failure. Reaching the far end of the track ends the
    episode successfully. Reward is at most 1, and each step's reward is its
    progress divided by ``step_scale`` except on the step that reaches x = 1:
    that step earns its full speed while its progress is cut at 1 (from
    x = 0.99 at the speed limit it earns 0.528, where (1 - x) / step_scale is
    0.3). ``return_upper_bound`` builds a ceiling on returns from these (see
    there) -- handy for catching critics that think otherwise.
    """

    name: ClassVar[str] = "edge-follow"
    state_dim: ClassVar[int] = 1  # normalized track position x in [0, 1]
    action_dim: ClassVar[int] = 1
    step_scale: ClassVar[float] = 1.0 / 30.0
    limit_base: ClassVar[float] = 0.5
    limit_amp: ClassVar[float] = 0.3
    limit_freq: ClassVar[float] = 1.5  # cycles over the unit track
    start_jitter: ClassVar[float] = 0.1
    expert_margin: ClassVar[float] = 0.05  # how far under the limit the expert slides
    horizon: int = 70

    def __post_init__(self):
        _check_settings(self, (("horizon", _count(self.horizon), COUNT),))

    def speed_limit(self, x) -> np.ndarray:
        return self.limit_base + self.limit_amp * np.sin(2.0 * np.pi * self.limit_freq * np.asarray(x))

    def action_for_speed(self, speed) -> np.ndarray:
        return 2.0 * np.asarray(speed, dtype=np.float64) - 1.0

    def reset(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, 1) start rows from one draw, uniform on [0, start_jitter)."""
        return rng.uniform(0.0, self.start_jitter, size=(n, 1))

    def step(self, states: np.ndarray, actions):
        """Array step: see the module docstring for the shapes."""
        s, a = _step_rows(self, states, actions)
        x = s[:, 0]
        speed = 0.5 * (a[:, 0] + 1.0)
        # edge lost: absorbing failure, no reward this step, the state stays
        lost = speed > self.speed_limit(x)
        x2 = np.minimum(x + self.step_scale * speed, 1.0)
        next_states = np.where(lost, x, x2)[:, None]
        return next_states, np.where(lost, 0.0, speed), lost | (x2 >= 1.0)

    def expert_action(self, states: np.ndarray) -> np.ndarray:
        """``expert_margin`` under the local speed limit, row-wise over (..., 1)."""
        return self.action_for_speed(self.speed_limit(np.asarray(states)[..., :1])
                                     - self.expert_margin)

    def return_upper_bound(self, gamma: float) -> float:
        """Ceiling on discounted returns: the smaller of two terms.

        Per-step reward is at most 1 and episodes last at most ``horizon``
        steps, so the discounted sum is below the truncated geometric series.
        The track term, 1 / step_scale, is the reward of the full track's
        progress. The step that reaches x = 1 earns its full speed while its
        progress is cut at 1, so an undiscounted total can pass the track term
        by less than that step's speed: the track term bounds a return only
        where discounting takes off more than that.
        """
        if not _discount(gamma):
            raise ValueError(f"gamma must be a real number in [0, 1), got {gamma!r}")
        geometric = (1.0 - gamma ** self.horizon) / (1.0 - gamma) if gamma > 0 else 1.0
        track = 1.0 / self.step_scale
        return min(geometric, track)


ENVS = {"point-mass": PointMassEnv, "edge-follow": EdgeFollowEnv}


def make_env(name: str):
    try:
        return ENVS[name]()
    except KeyError:
        raise ValueError(f"unknown env {name!r}; have {sorted(ENVS)}") from None


def rollout_batch(env, policy, n_episodes: int, rng: np.random.Generator,
                  noise_std: float = 0.0) -> tuple[Batch, np.ndarray]:
    """``n_episodes`` episodes in lockstep under ``policy(states (k, d)) -> (k, a)``.

    All starts are one (n, state_dim) ``env.reset`` draw. Each time step then
    calls ``policy`` once on the k unfinished episodes, adds Gaussian exploration
    noise (one (k, a) draw from ``rng`` when ``noise_std > 0``), clips into
    [-1, 1] and takes one array ``env.step``; an episode ends at ``done`` or
    after ``env.horizon`` steps. Returns every episode's rows as one ``Batch``,
    episode after episode and step after step, and the episode lengths (n,).
    With one episode and a policy that reads only its own row, this is the
    sequential single-episode loop, draw for draw.
    """
    if not _count(n_episodes):
        raise ValueError(f"n_episodes must be {COUNT}, got {n_episodes!r}")
    if env.horizon < 1:  # no step would ever be taken
        raise ValueError(f"env.horizon must be >= 1, got {env.horizon}")
    if not _nonnegative(noise_std):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    n, horizon, s_dim, a_dim = n_episodes, env.horizon, env.state_dim, env.action_dim
    state = env.reset(rng, n)
    steps = Batch(np.empty((n, horizon, s_dim)), np.empty((n, horizon, a_dim)),
                  np.empty((n, horizon)), np.empty((n, horizon, s_dim)), np.empty((n, horizon)))
    lengths = np.full(n, horizon)
    live = np.arange(n)
    rows = slice(None)  # indexes the live episodes; a slice until the first one ends
    for t in range(horizon):
        action = np.asarray(policy(state), dtype=np.float64).reshape(len(live), a_dim)
        if noise_std > 0.0:
            action = action + rng.normal(0.0, noise_std, size=action.shape)
        action = action.clip(-1.0, 1.0)
        next_state, reward, done = env.step(state, action)
        steps.states[rows, t], steps.actions[rows, t], steps.rewards[rows, t] = state, action, reward
        steps.next_states[rows, t], steps.dones[rows, t] = next_state, done
        if np.count_nonzero(done):  # cheaper than .any() on a few rows
            lengths[live[done]] = t + 1
            live = rows = live[~done]
            if not live.size:
                break
            next_state = next_state[~done]
        state = next_state
    return steps[np.arange(horizon) < lengths[:, None]], lengths


def split_episodes(column: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """``column`` of a ``rollout_batch`` result cut into its episodes."""
    return np.split(column, np.cumsum(lengths)[:-1])


def evaluate_policy(env, policy_fn, n_episodes: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean and std of undiscounted episode returns over fresh rollouts.

    ``policy_fn(state) -> action`` maps one state. It is called once per state
    per step, in episode order among the live episodes, while the env steps
    all of them in lockstep. The rng gives the resets only. Each return is
    Python's left-to-right sum of its episode's rewards.
    """
    def per_state(states):
        return np.array([policy_fn(s) for s in states])

    batch, lengths = rollout_batch(env, per_state, n_episodes, rng)
    returns = [sum(r.tolist()) for r in split_episodes(batch.rewards, lengths)]
    return float(np.mean(returns)), float(np.std(returns))


def random_policy(env, rng: np.random.Generator):
    """Uniform actions from ``rng``: (a,) for one state, (k, a) for k states."""
    def policy(states):
        return rng.uniform(-1.0, 1.0, size=np.shape(states)[:-1] + (env.action_dim,))

    return policy
