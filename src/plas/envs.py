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

Environments are cheap value objects: ``step`` is a pure function of
(state, action) and ``reset`` only consumes the rng you hand it. Out-of-bounds
actions are clipped into [-1, 1] and counted on a module-level tally rather
than raising (see ``clip_warning_count``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CLIP_WARNINGS = 0


def clip_warning_count() -> int:
    """Number of out-of-bounds actions clipped since import (or last reset)."""
    return _CLIP_WARNINGS


def reset_clip_warning_count() -> None:
    global _CLIP_WARNINGS
    _CLIP_WARNINGS = 0


def _clip_action(action: np.ndarray, dim: int) -> np.ndarray:
    global _CLIP_WARNINGS
    a = np.asarray(action, dtype=np.float64).reshape(-1)
    if a.shape[0] != dim:
        raise ValueError(f"action must have {dim} entries, got {a.shape[0]}")
    if np.max(np.abs(a)) > 1.0 + 1e-12:
        _CLIP_WARNINGS += 1
        a = np.clip(a, -1.0, 1.0)
    return a


@dataclass(frozen=True)
class PointMassEnv:
    """Accelerate a point in the plane onto a goal."""

    name: str = "point-mass"
    state_dim: int = 4  # (px, py, vx, vy)
    action_dim: int = 2
    goal: tuple[float, float] = (1.0, 1.0)
    dt: float = 0.1
    damping: float = 0.9
    start_jitter: float = 0.1
    goal_radius: float = 0.1
    goal_bonus: float = 10.0
    horizon: int = 100

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        p = rng.uniform(-self.start_jitter, self.start_jitter, size=2)
        return np.array([p[0], p[1], 0.0, 0.0])

    def step(self, state: np.ndarray, action) -> tuple[np.ndarray, float, bool]:
        a = _clip_action(action, self.action_dim)
        p, v = state[:2], state[2:]
        v2 = self.damping * v + self.dt * a
        p2 = p + self.dt * v2
        dist = float(np.linalg.norm(p2 - np.asarray(self.goal)))
        done = dist < self.goal_radius
        reward = -dist + (self.goal_bonus if done else 0.0)
        return np.concatenate([p2, v2]), reward, done

    def expert_action(self, state: np.ndarray) -> np.ndarray:
        # proportional-derivative servo onto the goal
        p, v = state[:2], state[2:]
        return np.clip(2.0 * (np.asarray(self.goal) - p) - 1.0 * v, -1.0, 1.0)


@dataclass(frozen=True)
class EdgeFollowEnv:
    """Slide along a 1-d edge as far and as fast as the local limit allows.

    The action a in [-1, 1] commands a forward slide speed (a+1)/2 in [0, 1];
    the per-step reward equals that speed, so rewards are non-negative and
    faster looks strictly better. Safe speeds vary along the track as
    ``speed_limit(x)``; commanding more loses the edge: zero reward, episode
    over, an absorbing failure. Reaching the far end of the track ends the
    episode successfully. Because reward is bounded by 1 and total reward
    equals net progress divided by ``step_scale``, no return can exceed
    ``return_upper_bound`` -- handy for catching critics that think otherwise.
    """

    name: str = "edge-follow"
    state_dim: int = 1  # normalized track position x in [0, 1]
    action_dim: int = 1
    step_scale: float = 1.0 / 30.0
    limit_base: float = 0.5
    limit_amp: float = 0.3
    limit_freq: float = 1.5  # cycles over the unit track
    start_jitter: float = 0.1
    horizon: int = 70

    def speed_limit(self, x) -> np.ndarray:
        return self.limit_base + self.limit_amp * np.sin(2.0 * np.pi * self.limit_freq * np.asarray(x))

    def speed_of(self, action) -> np.ndarray:
        return 0.5 * (np.asarray(action, dtype=np.float64) + 1.0)

    def action_for_speed(self, speed) -> np.ndarray:
        return 2.0 * np.asarray(speed, dtype=np.float64) - 1.0

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([rng.uniform(0.0, self.start_jitter)])

    def step(self, state: np.ndarray, action) -> tuple[np.ndarray, float, bool]:
        a = float(_clip_action(action, self.action_dim)[0])
        speed = 0.5 * (a + 1.0)
        x = float(state[0])
        if speed > float(self.speed_limit(x)):
            # edge lost: absorbing failure, no reward this step
            return np.array([x]), 0.0, True
        x2 = min(x + self.step_scale * speed, 1.0)
        done = x2 >= 1.0
        return np.array([x2]), speed, done

    def expert_action(self, state: np.ndarray, margin: float = 0.05) -> np.ndarray:
        return self.action_for_speed([float(self.speed_limit(state[0])) - margin])

    def return_upper_bound(self, gamma: float) -> float:
        """Analytic ceiling on any discounted return from any state-action.

        Per-step reward is at most 1 and episodes last at most ``horizon``
        steps, so the discounted sum is below the truncated geometric series;
        additionally total reward equals net track progress / step_scale,
        bounded by the full track. The tighter of the two applies.
        """
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        geometric = (1.0 - gamma ** self.horizon) / (1.0 - gamma) if gamma > 0 else 1.0
        track = 1.0 / self.step_scale
        return min(geometric, track)


ENVS = {"point-mass": PointMassEnv, "edge-follow": EdgeFollowEnv}


def make_env(name: str):
    try:
        return ENVS[name]()
    except KeyError:
        raise ValueError(f"unknown env {name!r}; have {sorted(ENVS)}") from None


@dataclass
class Rollout:
    """One episode in the dataset's column layout: row t is step t."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray

    @property
    def total_reward(self) -> float:
        # Python's left-to-right sum: np.sum's pairwise order would change the last bits
        return float(sum(self.rewards.tolist()))

    def __len__(self) -> int:
        return len(self.rewards)


def rollout(env, policy_fn, rng: np.random.Generator, noise_std: float = 0.0) -> Rollout:
    """One episode under ``policy_fn(state) -> action``.

    Optional Gaussian exploration noise is added before clipping; the noise
    stream comes from the caller's rng so rollouts stay reproducible.
    """
    state = env.reset(rng)
    states, actions, rewards, next_states, dones = [], [], [], [], []
    for _ in range(env.horizon):
        action = np.asarray(policy_fn(state), dtype=np.float64).reshape(-1)
        if noise_std > 0.0:
            action = action + rng.normal(0.0, noise_std, size=action.shape)
        action = np.clip(action, -1.0, 1.0)
        next_state, reward, done = env.step(state, action)
        states.append(state)
        actions.append(action)
        rewards.append(reward)
        next_states.append(next_state)
        dones.append(done)
        state = next_state
        if done:
            break
    return Rollout(np.array(states), np.array(actions), np.array(rewards, dtype=np.float64),
                   np.array(next_states), np.array(dones, dtype=np.float64))


def evaluate_policy(env, policy_fn, n_episodes: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean and std of undiscounted episode returns over fresh rollouts."""
    if n_episodes < 1:
        raise ValueError("need at least one episode")
    returns = [rollout(env, policy_fn, rng).total_reward for _ in range(n_episodes)]
    return float(np.mean(returns)), float(np.std(returns))


def random_policy(env, rng: np.random.Generator):
    def policy(_state):
        return rng.uniform(-1.0, 1.0, size=env.action_dim)

    return policy
