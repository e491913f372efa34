"""Q-function error analysis and dataset-support probes.

The Q-error report compares a critic's claims against Monte-Carlo returns
collected from evaluation rollouts of the same policy: per step,
error = Q(s_t, a_t) - G(s_t, a_t), where G is the discounted sum of the
episode's rewards from t on. The sum is not truncated: at the default horizons
no episode is longer than 100 steps (edge-follow caps at 70, point-mass at
100), so a cut at 1000 steps would never apply. Four aggregates summarize the
comparison: overall MSE, the fraction of overestimates, and the mean
magnitudes of over- and under-estimation.

Support distance operationalizes "within the support of the dataset": the
distance from a probe (s, a) to the data is the smallest action distance among
the ``SUPPORT_K`` = 10 nearest dataset states. The violation threshold is a
leave-one-out calibration: the ``THRESHOLD_QUANTILE`` = 0.99 quantile of that
distance for at most ``THRESHOLD_POINTS`` = 2000 dataset points, each against
the rest of the data. One k serves both functions: a violation rate compares a
probe's distance with the threshold, which means nothing unless both take
their minimum over the same number of neighbours.

Both support functions find those neighbours with one search, ``_nearest``,
which orders a probe's neighbours by distance, then by state value, then by
dataset row. For one-dimensional states it is exact and needs no tree: a stable
argsort of the data, then for each probe the 2k sorted rows around its
``searchsorted`` position, which hold its k nearest. Wider states go to
scipy's ``cKDTree``, whose order among equally distant rows is its own. That
import is deferred to the first wide query: scipy.spatial adds about 38 MB of
resident memory to the 27 MB of the interpreter and numpy, so a run on
one-dimensional states never pays it.
"""
from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .agent import q_values
from .envs import rollout_batch, split_episodes
from .nets import _discount

SUPPORT_K = 10
THRESHOLD_QUANTILE = 0.99
THRESHOLD_POINTS = 2000


@dataclass
class QErrorReport:
    mse: float
    positive_error_pct: float
    positive_error_mean: float
    negative_error_mean: float
    n_points: int
    n_episodes: int


def _check_gamma(gamma) -> None:
    if not _discount(gamma):
        raise ValueError(f"gamma must be a real number in [0, 1), got {gamma!r}")


def empirical_return(rewards, gamma: float) -> np.ndarray:
    """Discounted return G_t of every timestep of one rollout, in O(T): the
    suffix sums G_t = r_t + gamma*G_{t+1}. Rewards must be finite and gamma
    in [0, 1)."""
    _check_gamma(gamma)
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        raise ValueError("empty reward sequence")
    if not np.isfinite(r).all():
        raise ValueError("non-finite reward")
    suffix, g = [], 0.0
    for x in reversed(r.tolist()):
        g = x + gamma * g
        suffix.append(g)
    return np.array(suffix[::-1])


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
                   rng: np.random.Generator) -> QErrorReport:
    """Roll out the agent's deterministic policy and grade its first critic.

    ``agent`` needs a ``policy_fn()`` that maps a batch of states (k, d) to
    actions (k, a), and a ``critics.q1`` network (both the latent-action agent
    and the unconstrained baseline qualify). The episodes run in lockstep
    (``envs.rollout_batch``), the critic grades all their rows in one call, and
    each episode's rewards give its own returns. ``gamma`` is checked, as
    ``empirical_return`` checks it, before any rollout.
    """
    _check_gamma(gamma)
    batch, lengths = rollout_batch(env, agent.policy_fn(), n_episodes, rng)
    q = q_values(agent.critics.q1, batch.states, batch.actions)
    g = np.concatenate([empirical_return(r, gamma)
                        for r in split_episodes(batch.rewards, lengths)])
    return report_from_errors(q - g, n_episodes)


@dataclass
class SupportSummary:
    distances: np.ndarray
    mean: float
    p50: float
    p95: float

    def violation_rate(self, threshold: float) -> float:
        return float(np.mean(self.distances > threshold))


def _nearest(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Row indices (m, k) of the ``k`` rows of ``points`` (n, d) nearest to each
    row of ``queries`` (m, d), nearest first; needs 1 <= k <= n and finite
    queries."""
    if points.shape[1] > 1:
        # imported here, not at the top: scipy.spatial costs ~38 MB of memory
        from scipy.spatial import cKDTree

        return cKDTree(points).query(queries, k=np.arange(1, k + 1))[1]
    order = np.argsort(points[:, 0], kind="stable")
    v = points[order, 0]
    w = min(2 * k, len(v))
    q = queries[:, 0]
    lo = np.clip(np.searchsorted(v, q) - k, 0, len(v) - w)[:, None]
    window = lo + np.arange(w)
    # equal values sit in row order, so the k nearest are in the window except
    # where a run of equal values crosses its lower edge: the window's part of
    # that run moves down to the run's first rows
    start = np.searchsorted(v, v[lo])
    stop = np.searchsorted(v, v[lo], side="right")
    window = np.where(window < stop, window + (start - lo), window)
    by_distance = np.argsort(np.abs(v[window] - q[:, None]), axis=1, kind="stable")
    return order[np.take_along_axis(window, by_distance[:, :k], axis=1)]


def support_distance(dataset, states, actions) -> SupportSummary:
    """Distance from each probe (s, a) to the dataset's local action support;
    the probes are finite state rows (n, d) and action rows (n, a), n >= 1."""
    s = np.asarray(states, dtype=np.float64)
    a = np.asarray(actions, dtype=np.float64)
    if (s.ndim != 2 or a.ndim != 2 or s.shape[0] != a.shape[0]
            or s.shape[1] != dataset.state_dim or a.shape[1] != dataset.action_dim):
        raise ValueError(f"probes must be rows (n, {dataset.state_dim}) and "
                         f"(n, {dataset.action_dim}), got {s.shape} and {a.shape}")
    if len(s) == 0:
        raise ValueError("support_distance needs at least one probe row")
    # a NaN action's distance is NaN, which no threshold counts as a violation
    for name, column in (("states", s), ("actions", a)):
        if not np.isfinite(column).all():
            raise ValueError(f"probe {name} must be finite")
    idx = _nearest(dataset.states, s, min(SUPPORT_K, len(dataset)))
    d = np.linalg.norm(dataset.actions[idx] - a[:, None, :], axis=2).min(axis=1)
    return SupportSummary(
        distances=d,
        mean=float(np.mean(d)),
        p50=float(np.quantile(d, 0.50)),
        p95=float(np.quantile(d, 0.95)),
    )


def support_threshold(dataset, seed: int = 0) -> float:
    """Leave-one-out calibration: the in-distribution distance scale.

    For a subsample of ``THRESHOLD_POINTS`` dataset points (``seed`` draws it),
    measure the support distance of each point against the rest of the data
    and take the ``THRESHOLD_QUANTILE`` quantile. Probes below this threshold
    are indistinguishable from dataset points. Needs two points.
    """
    rng = np.random.default_rng(seed)
    n = len(dataset)
    if n < 2:
        raise ValueError(f"support_threshold needs two points, got n={n}")
    idx = rng.permutation(n)[: min(THRESHOLD_POINTS, n)]
    nbr = _nearest(dataset.states, dataset.states[idx], min(SUPPORT_K + 1, n))
    # drop each point from its own row (a duplicated state may push it out),
    # then keep the first SUPPORT_K that remain
    keep = nbr != idx[:, None]
    keep &= np.cumsum(keep, axis=1) <= SUPPORT_K
    d = np.linalg.norm(dataset.actions[nbr] - dataset.actions[idx][:, None, :], axis=2)
    return float(np.quantile(np.where(keep, d, np.inf).min(axis=1), THRESHOLD_QUANTILE))


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
