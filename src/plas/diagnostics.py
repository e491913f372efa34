"""Q-function error analysis and dataset-support probes.

The Q-error report compares a critic's claims against truncated Monte-Carlo
returns collected from evaluation rollouts of the same policy: per step,
error = Q(s_t, a_t) - G(s_t, a_t). Four aggregates summarize the comparison:
overall MSE, the fraction of overestimates, and the mean magnitudes of over-
and under-estimation.

Support distance operationalizes "within the support of the dataset": the
distance from a probe (s, a) to the data is the smallest action distance among
the k nearest dataset states. A dataset-specific violation threshold comes
from leave-one-out calibration on the dataset itself.
"""
from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .agent import q_values
from .envs import rollout_batch


@dataclass
class QErrorReport:
    mse: float
    positive_error_pct: float
    positive_error_mean: float
    negative_error_mean: float
    n_points: int
    n_episodes: int


def empirical_return(rewards, gamma: float, truncation: int = 1000) -> np.ndarray:
    """Truncated discounted return G_t for every timestep of one rollout."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        raise ValueError("empty reward sequence")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    T = r.size
    out = np.empty(T)
    for t in range(T):
        horizon = min(T - t, truncation)
        out[t] = np.sum(r[t:t + horizon] * gamma ** np.arange(horizon))
    return out


def report_from_errors(errors, n_episodes: int) -> QErrorReport:
    e = np.asarray(errors, dtype=np.float64)
    pos = e[e > 0]
    neg = e[e < 0]
    return QErrorReport(
        mse=float(np.mean(e ** 2)),
        positive_error_pct=float(np.mean(e > 0)),
        positive_error_mean=float(np.mean(pos)) if pos.size else 0.0,
        negative_error_mean=float(np.mean(neg)) if neg.size else 0.0,
        n_points=int(e.size),
        n_episodes=n_episodes,
    )


def q_error_report(agent, env, n_episodes: int, gamma: float,
                   rng: np.random.Generator, truncation: int = 1000) -> QErrorReport:
    """Roll out the agent's deterministic policy and grade its first critic.

    ``agent`` needs a ``policy_fn()`` that maps a batch of states (k, d) to
    actions (k, a), and a ``critics.q1`` network (both the latent-action agent
    and the unconstrained baseline qualify). The episodes run in lockstep
    (``envs.rollout_batch``) and the critic grades all their steps in one call.
    """
    rollouts = rollout_batch(env, agent.policy_fn(), n_episodes, rng)
    q = q_values(agent.critics.q1, np.concatenate([ro.states for ro in rollouts]),
                 np.concatenate([ro.actions for ro in rollouts]))
    g = np.concatenate([empirical_return(ro.rewards, gamma, truncation) for ro in rollouts])
    return report_from_errors(q - g, n_episodes)


@dataclass
class SupportSummary:
    distances: np.ndarray
    mean: float
    p50: float
    p95: float

    def violation_rate(self, threshold: float) -> float:
        return float(np.mean(self.distances > threshold))


def support_distance(dataset, states, actions, k: int = 10) -> SupportSummary:
    """Distance from each probe (s, a) to the dataset's local action support."""
    s = np.atleast_2d(np.asarray(states, dtype=np.float64))
    a = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    if s.shape[1] != dataset.state_dim or a.shape[1] != dataset.action_dim:
        raise ValueError("probe dimensions do not match the dataset")
    tree = cKDTree(dataset.states)
    k_eff = min(k, len(dataset))
    _, idx = tree.query(s, k=k_eff)
    idx = np.atleast_2d(idx)
    if k_eff == 1:
        idx = idx.reshape(-1, 1)
    neighbor_actions = dataset.actions[idx]          # (n, k, action_dim)
    d = np.linalg.norm(neighbor_actions - a[:, None, :], axis=2).min(axis=1)
    return SupportSummary(
        distances=d,
        mean=float(np.mean(d)),
        p50=float(np.quantile(d, 0.50)),
        p95=float(np.quantile(d, 0.95)),
    )


def support_threshold(dataset, k: int = 10, quantile: float = 0.99,
                      max_points: int = 2000, seed: int = 0) -> float:
    """Leave-one-out calibration: the in-distribution distance scale.

    For (a subsample of) dataset points, measure the support distance of each
    point against the rest of the data and take a high quantile. Probes below
    this threshold are indistinguishable from dataset points.
    """
    rng = np.random.default_rng(seed)
    n = len(dataset)
    idx = rng.permutation(n)[: min(max_points, n)]
    tree = cKDTree(dataset.states)
    k_eff = min(k + 1, n)
    _, nbr = tree.query(dataset.states[idx], k=k_eff)
    nbr = np.atleast_2d(nbr)
    dists = np.empty(len(idx))
    for row, i in enumerate(idx):
        neighbors = [j for j in np.atleast_1d(nbr[row]) if j != i][:k]
        cand = dataset.actions[neighbors]
        dists[row] = np.min(np.linalg.norm(cand - dataset.actions[i], axis=1))
    return float(np.quantile(dists, quantile))


# -- emission -----------------------------------------------------------------

CSV_FIELDS = ["algorithm", "dataset", "seed", "step",
              "mse", "positive_error_pct", "positive_error_mean",
              "negative_error_mean", "n_points", "n_episodes"]


def append_report_csv(path, report: QErrorReport, algorithm: str,
                      dataset: str, seed: int, step: int) -> None:
    path = Path(path)
    new = not path.exists()
    with path.open("a", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=CSV_FIELDS)
        if new:
            w.writeheader()
        row = {"algorithm": algorithm, "dataset": dataset, "seed": seed, "step": step}
        row.update(asdict(report))
        w.writerow(row)
