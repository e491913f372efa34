import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plas.diagnostics import (
    QErrorReport,
    append_report_csv,
    empirical_return,
    q_error_report,
    report_from_errors,
    support_distance,
    support_threshold,
)

from .test_data import tiny_dataset


def test_empirical_return_single_reward():
    assert empirical_return([1.0], gamma=0.99)[0] == pytest.approx(1.0)


def test_empirical_return_geometric_series():
    # constant reward 1, truncation 1000: G = (1 - 0.99^1000) / 0.01
    rewards = np.ones(2_000)
    g = empirical_return(rewards, gamma=0.99, truncation=1000)
    expect = (1 - 0.99 ** 1000) / 0.01
    assert g[0] == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(99.995683, abs=1e-5)


def test_empirical_return_truncation_one_is_reward():
    rng = np.random.default_rng(40)
    rewards = rng.normal(size=17)
    g = empirical_return(rewards, gamma=0.99, truncation=1)
    assert np.allclose(g, rewards)


def test_empirical_return_gamma_zero_is_reward():
    rng = np.random.default_rng(41)
    rewards = rng.normal(size=9)
    assert np.allclose(empirical_return(rewards, gamma=0.0), rewards)


def test_empirical_return_matches_brute_force():
    rng = np.random.default_rng(42)
    rewards = rng.normal(size=30)
    gamma, trunc = 0.9, 7
    g = empirical_return(rewards, gamma, trunc)
    for t in range(30):
        want = sum(gamma ** k * rewards[t + k] for k in range(min(30 - t, trunc)))
        assert g[t] == pytest.approx(want, rel=1e-12)


def test_empirical_return_rejects_empty():
    with pytest.raises(ValueError):
        empirical_return([], gamma=0.9)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_empirical_return_rejects_non_finite_rewards(bad):
    with pytest.raises(ValueError):
        empirical_return([1.0, 2.0, bad, 0.5], gamma=0.9, truncation=1)


@pytest.mark.parametrize("truncation", [0, -3])
def test_empirical_return_rejects_truncation_below_one(truncation):
    with pytest.raises(ValueError):
        empirical_return([1.0, 2.0], gamma=0.9, truncation=truncation)


def _loop_empirical_return(rewards, gamma, truncation=1000):
    # the per-timestep window sum that empirical_return replaced
    r = np.asarray(rewards, dtype=np.float64)
    out = np.empty(r.size)
    for t in range(r.size):
        horizon = min(r.size - t, truncation)
        out[t] = np.sum(r[t:t + horizon] * gamma ** np.arange(horizon))
    return out


@pytest.mark.parametrize("truncation", [1, 7, 69, 70, 71, 1000])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_empirical_return_equals_the_window_loop(truncation, sign):
    # env rewards keep one sign per task: edge-follow's are >= 0, point-mass's
    # (minus the goal distance) <= 0 until the bonus
    rng = np.random.default_rng(43)
    for gamma in (0.0, 0.5, 0.9, 0.99):
        rewards = sign * rng.uniform(0.0, 2.0, size=70)
        rewards[-1] = 10.0
        got = empirical_return(rewards, gamma, truncation)
        np.testing.assert_allclose(got, _loop_empirical_return(rewards, gamma, truncation),
                                   rtol=1e-12, atol=0.0)


def test_report_two_point_hand_case():
    rep = report_from_errors([+1.0, -1.0], n_episodes=1)
    assert rep.mse == 1.0
    assert rep.positive_error_pct == 0.5
    assert rep.positive_error_mean == 1.0
    assert rep.negative_error_mean == -1.0
    assert rep.n_points == 2


def test_report_oracle_critic_all_zero():
    rep = report_from_errors(np.zeros(50), n_episodes=5)
    assert rep.mse == 0.0
    assert rep.positive_error_pct == 0.0
    assert rep.positive_error_mean == 0.0
    assert rep.negative_error_mean == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=40))
@example(errors=[85.6124830535189] * 3)  # mse one ulp below the squared mean
def test_report_invariants(errors):
    rep = report_from_errors(errors, n_episodes=1)
    assert rep.positive_error_mean >= 0.0
    assert rep.negative_error_mean <= 0.0
    assert rep.mse >= 0.0
    e = np.asarray(errors)
    # Jensen, up to rounding: each of the two n-term means is off by at most
    # about n ulps, so the slack scales with the squared mean and with n
    mean_sq = np.mean(e) ** 2
    assert rep.mse >= mean_sq * (1.0 - 4 * e.size * np.finfo(float).eps)
    n_pos = round(rep.positive_error_pct * rep.n_points)
    assert n_pos == int(np.sum(e > 0))


def test_q_error_report_on_trained_pair():
    # wiring check: a real agent-shaped object rolled out on a real env
    from plas.agent import PlasTrainConfig, plas_agent_init
    from plas.cvae import CvaeTrainConfig, FrozenDecoder, cvae_init
    from plas.envs import EdgeFollowEnv

    env = EdgeFollowEnv()
    rng = np.random.default_rng(43)
    cvae = cvae_init(env.state_dim, env.action_dim, CvaeTrainConfig(hidden_sizes=(8, 8)), rng)
    agent = plas_agent_init(env.state_dim, FrozenDecoder(cvae),
                            PlasTrainConfig(hidden_sizes=(8, 8)), rng)
    rep = q_error_report(agent, env, n_episodes=3, gamma=0.99,
                         rng=np.random.default_rng(44))
    assert rep.n_episodes == 3
    assert rep.n_points >= 3
    assert np.isfinite(rep.mse)
    with pytest.raises(ValueError):
        q_error_report(agent, env, 0, 0.99, np.random.default_rng(0))


def test_support_distance_zero_for_dataset_probes():
    ds = tiny_dataset(n=40, seed=50)
    summary = support_distance(ds, ds.states, ds.actions, k=5)
    assert np.all(summary.distances == 0.0)
    assert summary.mean == 0.0


def test_support_distance_flags_far_actions():
    ds = tiny_dataset(n=60, seed=51)
    far_actions = np.full((60, 1), 1.0) * np.where(ds.actions > 0, -1.0, 1.0)
    far = support_distance(ds, ds.states, far_actions, k=5)
    near = support_distance(ds, ds.states, ds.actions, k=5)
    assert far.mean > near.mean
    assert far.p95 > 0.5


def test_support_distance_dimension_check():
    ds = tiny_dataset(n=10)
    with pytest.raises(ValueError):
        support_distance(ds, np.zeros((3, 5)), np.zeros((3, 1)))


def test_support_distance_takes_rows_with_any_k():
    ds = tiny_dataset(n=10)
    for states, actions in ((ds.states[0], ds.actions[0]), (ds.states[:3], ds.actions[:2])):
        with pytest.raises(ValueError):
            support_distance(ds, states, actions)
    # one neighbour, and more neighbours than points, are the same shape of answer
    for k in (1, 3, 50):
        summary = support_distance(ds, ds.states[:1], ds.actions[:1], k=k)
        assert summary.distances.shape == (1,) and summary.distances[0] == 0.0


def test_support_threshold_accepts_dataset_itself():
    ds = tiny_dataset(n=200, seed=52)
    thr = support_threshold(ds, k=10)
    summary = support_distance(ds, ds.states, ds.actions, k=10)
    assert summary.violation_rate(thr) == 0.0
    assert thr > 0.0


def test_support_threshold_separates_random_probes():
    # uniform-random probe actions sit well above the dataset's own scale
    from plas.generators import make_bimodal_dataset

    ds = make_bimodal_dataset(2_000, seed=53)
    thr = support_threshold(ds, k=10)
    rng = np.random.default_rng(54)
    idx = rng.integers(0, len(ds), size=1_000)
    random_actions = rng.uniform(-1, 1, size=(1_000, 1))
    rand_summary = support_distance(ds, ds.states[idx], random_actions, k=10)
    data_summary = support_distance(ds, ds.states[idx], ds.actions[idx], k=10)
    assert rand_summary.violation_rate(thr) > 0.3
    assert data_summary.violation_rate(thr) == 0.0
    assert np.median(rand_summary.distances) > np.median(data_summary.distances)


def _loop_support_threshold(dataset, k=10, quantile=0.99, max_points=2000, seed=0):
    # the per-point neighbour loop that support_threshold replaced
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    n = len(dataset)
    idx = rng.permutation(n)[: min(max_points, n)]
    _, nbr = cKDTree(dataset.states).query(dataset.states[idx], k=min(k + 1, n))
    nbr = np.atleast_2d(nbr)
    dists = np.empty(len(idx))
    for row, i in enumerate(idx):
        neighbors = [j for j in np.atleast_1d(nbr[row]) if j != i][:k]
        cand = dataset.actions[neighbors]
        dists[row] = np.min(np.linalg.norm(cand - dataset.actions[i], axis=1))
    return float(np.quantile(dists, quantile))


@pytest.mark.parametrize("n, k, action_dim, max_points", [
    (200, 10, 1, 2000), (300, 5, 2, 100), (8, 10, 2, 2000), (11, 10, 1, 2000), (2, 1, 1, 2000)])
@pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
def test_support_threshold_equals_the_neighbour_loop(n, k, action_dim, max_points, duplicated):
    ds = tiny_dataset(n=n, action_dim=action_dim, seed=55)
    if duplicated:  # ties put a point behind its copies, or out of its own row
        ds.states = ds.states[np.arange(n) % 3]
    for quantile in (0.5, 0.99, 1.0):
        assert (support_threshold(ds, k, quantile, max_points)
                == _loop_support_threshold(ds, k, quantile, max_points))


def test_support_threshold_rejects_one_neighbour_queries():
    # k_eff == 1 leaves no neighbour once a point is dropped from its own row;
    # the loop failed there too
    for n, k in ((1, 10), (50, 0)):
        ds = tiny_dataset(n=n, seed=56)
        for threshold in (support_threshold, _loop_support_threshold):
            with pytest.raises(ValueError):
                threshold(ds, k)


def test_report_emission(tmp_path):
    rep = QErrorReport(1.5, 0.4, 2.0, -0.5, 100, 10)
    path = tmp_path / "reports.csv"
    append_report_csv(path, rep, "plas", "edge-follow-medium", seed=0, step=1000)
    append_report_csv(path, rep, "bc", "edge-follow-medium", seed=0, step=1000)
    with path.open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert rows[0]["algorithm"] == "plas"
    assert float(rows[1]["mse"]) == 1.5


def _tiny_agents(env, seed):
    from plas.agent import PlasTrainConfig, plas_agent_init
    from plas.baselines import UnconstrainedTrainConfig, unconstrained_agent_init
    from plas.cvae import CvaeTrainConfig, FrozenDecoder, cvae_init

    # float64, where a batched row and a one-state forward differ by less than
    # the comparison below allows (float32 ones differ by ~1e-7)
    rng = np.random.default_rng(seed)
    cvae = cvae_init(env.state_dim, env.action_dim, CvaeTrainConfig(hidden_sizes=(8, 8)), rng,
                     np.float64)
    plas = plas_agent_init(env.state_dim, FrozenDecoder(cvae),
                           PlasTrainConfig(hidden_sizes=(8, 8), perturbation_epsilon=0.05), rng,
                           np.float64)
    base = unconstrained_agent_init(env.state_dim, env.action_dim,
                                    UnconstrainedTrainConfig(hidden_sizes=(8, 8)), rng, np.float64)
    return {"plas": plas, "unconstrained": base}


@pytest.mark.parametrize("env_name", ["point-mass", "edge-follow"])
@pytest.mark.parametrize("which", ["plas", "unconstrained"])
def test_q_error_report_matches_sequential_per_state_reference(env_name, which):
    from plas.agent import q_values
    from plas.envs import make_env

    env = make_env(env_name)
    agent = _tiny_agents(env, 45)[which]
    policy = agent.policy_fn()
    rng = np.random.default_rng(46)
    errors = []
    for _ in range(6):  # one episode at a time, one state at a time
        state, rows = env.reset(rng), []
        for _ in range(env.horizon):
            action = np.clip(np.asarray(policy(state)).reshape(-1), -1.0, 1.0)
            next_states, rewards, dones = env.step(state[None], action[None])
            rows.append((state, action, rewards[0]))
            state = next_states[0]
            if dones[0]:
                break
        s, a, r = (np.array(c) for c in zip(*rows))
        errors.append(q_values(agent.critics.q1, s, a) - empirical_return(r, 0.99))
    want = report_from_errors(np.concatenate(errors), 6)

    got = q_error_report(agent, env, 6, 0.99, np.random.default_rng(46))
    assert (got.n_points, got.n_episodes) == (want.n_points, want.n_episodes)
    assert got.positive_error_pct == want.positive_error_pct
    for field in ("mse", "positive_error_mean", "negative_error_mean"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=1e-12)
