import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plas import diagnostics
from plas.diagnostics import (
    QErrorReport,
    _nearest,
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
    # constant reward 1 for 1000 steps: G = (1 - 0.99^1000) / 0.01
    rewards = np.ones(1_000)
    g = empirical_return(rewards, gamma=0.99)
    expect = (1 - 0.99 ** 1000) / 0.01
    assert g[0] == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(99.995683, abs=1e-5)


def test_empirical_return_gamma_zero_is_reward():
    rng = np.random.default_rng(41)
    rewards = rng.normal(size=9)
    assert np.allclose(empirical_return(rewards, gamma=0.0), rewards)


def test_empirical_return_matches_brute_force():
    rng = np.random.default_rng(42)
    rewards = rng.normal(size=30)
    gamma = 0.9
    g = empirical_return(rewards, gamma)
    for t in range(30):
        want = sum(gamma ** k * rewards[t + k] for k in range(30 - t))
        assert g[t] == pytest.approx(want, rel=1e-12)


def test_empirical_return_rejects_empty():
    with pytest.raises(ValueError):
        empirical_return([], gamma=0.9)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_empirical_return_rejects_non_finite_rewards(bad):
    with pytest.raises(ValueError):
        empirical_return([1.0, 2.0, bad, 0.5], gamma=0.9)


def _loop_empirical_return(rewards, gamma):
    # the reference: each timestep's discounted sum, formed afresh
    r = np.asarray(rewards, dtype=np.float64)
    return np.array([np.sum(r[t:] * gamma ** np.arange(r.size - t)) for t in range(r.size)])


@pytest.mark.parametrize("length", [1, 7, 69, 70, 71, 1000])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_empirical_return_equals_the_window_loop(length, sign):
    # episode lengths around edge-follow's cap of 70, and up to 1000; env
    # rewards keep one sign per task: edge-follow's are >= 0, point-mass's
    # (minus the goal distance) <= 0 until the bonus
    rng = np.random.default_rng(43)
    for gamma in (0.0, 0.5, 0.9, 0.99):
        rewards = sign * rng.uniform(0.0, 2.0, size=length)
        rewards[-1] = 10.0
        # a return that sums to near 0 is held to the scale of its terms
        np.testing.assert_allclose(empirical_return(rewards, gamma),
                                   _loop_empirical_return(rewards, gamma), rtol=1e-12,
                                   atol=1e-12 * np.abs(rewards).sum())


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


@pytest.mark.parametrize("gamma", [1.5, np.nan, -0.5, True, "0.5", Fraction(1, 2), 1.0, -0.1],
                         ids=["1.5", "nan", "-0.5", "True", "str", "Fraction", "1.0", "-0.1"])
def test_gamma_must_be_a_real_number_in_the_unit_interval(gamma):
    # one rule (nets._discount) for the critics, the config, the Q-error
    # report and the env's return ceiling
    from plas.agent import ActorCriticConfig, CriticPair, PlasTrainConfig, plas_agent_init
    from plas.cvae import CvaeTrainConfig, FrozenDecoder, cvae_init
    from plas.envs import EdgeFollowEnv
    from plas.nets import mlp_zeros

    with pytest.raises(ValueError, match="gamma"):
        empirical_return([1.0, 1.0, 1.0], gamma)
    with pytest.raises(ValueError, match="gamma"):
        ActorCriticConfig(gamma=gamma)
    with pytest.raises(ValueError, match="gamma"):
        CriticPair(*(mlp_zeros([3, 1]) for _ in range(4)), gamma=gamma)
    env = EdgeFollowEnv()
    with pytest.raises(ValueError, match="gamma"):
        env.return_upper_bound(gamma)
    rng = np.random.default_rng(45)
    cvae = cvae_init(env.state_dim, env.action_dim, CvaeTrainConfig(hidden_sizes=(8,)), rng)
    agent = plas_agent_init(env.state_dim, FrozenDecoder(cvae),
                            PlasTrainConfig(hidden_sizes=(8,)), rng)
    with pytest.raises(ValueError, match="gamma"):
        q_error_report(agent, env, 2, gamma, np.random.default_rng(46))


def test_support_distance_zero_for_dataset_probes():
    ds = tiny_dataset(n=40, seed=50)
    summary = support_distance(ds, ds.states, ds.actions)
    assert np.all(summary.distances == 0.0)
    assert summary.mean == 0.0


def test_support_distance_flags_far_actions():
    ds = tiny_dataset(n=60, seed=51)
    far_actions = np.full((60, 1), 1.0) * np.where(ds.actions > 0, -1.0, 1.0)
    far = support_distance(ds, ds.states, far_actions)
    near = support_distance(ds, ds.states, ds.actions)
    assert far.mean > near.mean
    assert far.p95 > 0.5


def test_support_distance_dimension_check():
    ds = tiny_dataset(n=10)
    with pytest.raises(ValueError):
        support_distance(ds, np.zeros((3, 5)), np.zeros((3, 1)))


def test_support_distance_takes_rows_with_any_k(monkeypatch):
    ds = tiny_dataset(n=10)
    for states, actions in ((ds.states[0], ds.actions[0]), (ds.states[:3], ds.actions[:2])):
        with pytest.raises(ValueError):
            support_distance(ds, states, actions)
    # one neighbour, and more neighbours than points, are the same shape of answer
    for k in (1, 3, 50):
        monkeypatch.setattr(diagnostics, "SUPPORT_K", k)
        summary = support_distance(ds, ds.states[:1], ds.actions[:1])
        assert summary.distances.shape == (1,) and summary.distances[0] == 0.0


def test_support_threshold_accepts_dataset_itself():
    ds = tiny_dataset(n=200, seed=52)
    thr = support_threshold(ds)
    summary = support_distance(ds, ds.states, ds.actions)
    assert summary.violation_rate(thr) == 0.0
    assert thr > 0.0


def test_support_threshold_separates_random_probes():
    # uniform-random probe actions sit well above the dataset's own scale
    from plas.generators import make_bimodal_dataset

    ds = make_bimodal_dataset(2_000, seed=53)
    thr = support_threshold(ds)
    rng = np.random.default_rng(54)
    idx = rng.integers(0, len(ds), size=1_000)
    random_actions = rng.uniform(-1, 1, size=(1_000, 1))
    rand_summary = support_distance(ds, ds.states[idx], random_actions)
    data_summary = support_distance(ds, ds.states[idx], ds.actions[idx])
    assert rand_summary.violation_rate(thr) > 0.3
    assert data_summary.violation_rate(thr) == 0.0
    assert np.median(rand_summary.distances) > np.median(data_summary.distances)


def _set_support_recipe(monkeypatch, k, quantile, max_points):
    # the reference loops take the recipe as arguments; the library reads constants
    monkeypatch.setattr(diagnostics, "SUPPORT_K", k)
    monkeypatch.setattr(diagnostics, "THRESHOLD_QUANTILE", quantile)
    monkeypatch.setattr(diagnostics, "THRESHOLD_POINTS", max_points)


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
def test_support_threshold_equals_the_neighbour_loop(n, k, action_dim, max_points, duplicated,
                                                     monkeypatch):
    ds = tiny_dataset(n=n, action_dim=action_dim, seed=55)
    if duplicated:  # ties put a point behind its copies, or out of its own row
        ds.states = ds.states[np.arange(n) % 3]
    for quantile in (0.5, 0.99, 1.0):
        _set_support_recipe(monkeypatch, k, quantile, max_points)
        assert support_threshold(ds) == _loop_support_threshold(ds, k, quantile, max_points)


def test_support_threshold_rejects_one_neighbour_queries():
    # one point leaves no neighbour once it is dropped from its own row; the
    # loop failed there too
    ds = tiny_dataset(n=1, seed=56)
    for threshold in (support_threshold, _loop_support_threshold):
        with pytest.raises(ValueError):
            threshold(ds)


def _lexsort_nearest(points, queries, k):
    # every row, ordered by distance, then state value, then dataset row
    rows = np.arange(len(points))
    return np.array([np.lexsort((rows, points[:, 0], np.abs(points[:, 0] - q)))[:k]
                     for q in queries[:, 0]])


def _probes_around(states, rng):
    low, high = states.min(), states.max()
    return np.concatenate([low - rng.uniform(0.1, 2.0, (4, 1)),
                           rng.uniform(low, high, (8, 1)),
                           states[rng.integers(0, len(states), 4)],
                           high + rng.uniform(0.1, 2.0, (4, 1))])


@pytest.mark.parametrize("n", [1, 7, 40])
def test_sorted_search_orders_distinct_states_as_the_kd_tree(n):
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(57)
    states = rng.normal(size=(n, 1))
    probes = _probes_around(states, rng)
    for k in (1, 2, 10, 11, n, n + 5):
        got = _nearest(states, probes, min(k, n))
        # past n neighbours the tree pads with the index n
        expect = cKDTree(states).query(probes, k=np.arange(1, k + 1))[1][:, :n]
        assert got.shape == (len(probes), min(k, n))
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("n, copies", [(40, 3), (40, 15), (25, 25)])
def test_sorted_search_breaks_ties_by_state_then_row(n, copies, monkeypatch):
    # runs of equal states longer than k cross the search window's edges
    ds = tiny_dataset(n=n, state_dim=1, seed=58)
    ds.states = ds.states[np.arange(n) % (n // copies)]
    probes = _probes_around(ds.states, np.random.default_rng(59))
    for k in (1, 2, 5, 10, n):
        assert np.array_equal(_nearest(ds.states, probes, k),
                              _lexsort_nearest(ds.states, probes, k))
        nbr = _lexsort_nearest(ds.states, probes, min(k, n))
        actions = np.random.default_rng(k).uniform(-1, 1, (len(probes), 1))
        expect = np.linalg.norm(ds.actions[nbr] - actions[:, None], axis=2).min(axis=1)
        monkeypatch.setattr(diagnostics, "SUPPORT_K", k)
        assert np.array_equal(support_distance(ds, probes, actions).distances, expect)


def _lexsort_loop_support_threshold(dataset, k=10, quantile=0.99, max_points=2000, seed=0):
    # the per-point neighbour loop, on one-dimensional states, over the
    # brute-force neighbour order
    rng = np.random.default_rng(seed)
    n = len(dataset)
    idx = rng.permutation(n)[: min(max_points, n)]
    nbr = _lexsort_nearest(dataset.states, dataset.states[idx], min(k + 1, n))
    dists = np.empty(len(idx))
    for row, i in enumerate(idx):
        neighbors = [j for j in nbr[row] if j != i][:k]
        cand = dataset.actions[neighbors]
        dists[row] = np.min(np.linalg.norm(cand - dataset.actions[i], axis=1))
    return float(np.quantile(dists, quantile))


@pytest.mark.parametrize("n, k, action_dim, max_points", [
    (200, 10, 1, 2000), (300, 5, 2, 100), (8, 10, 2, 2000), (11, 10, 1, 2000), (2, 1, 1, 2000)])
@pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
def test_one_dimensional_support_threshold_equals_the_neighbour_loop(
        n, k, action_dim, max_points, duplicated, monkeypatch):
    ds = tiny_dataset(n=n, state_dim=1, action_dim=action_dim, seed=55)
    if duplicated:
        ds.states = ds.states[np.arange(n) % 3]
    for quantile in (0.5, 0.99, 1.0):
        _set_support_recipe(monkeypatch, k, quantile, max_points)
        assert (support_threshold(ds)
                == _lexsort_loop_support_threshold(ds, k, quantile, max_points))


@pytest.mark.parametrize("state_dim", [1, 2], ids=["sorted", "kd-tree"])
@pytest.mark.parametrize("column", ["states", "actions"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_support_distance_rejects_non_finite_probes(state_dim, column, bad):
    # a NaN action's distance is NaN, which no threshold counts as a violation
    ds = tiny_dataset(n=20, state_dim=state_dim, seed=60)
    probes = {"states": ds.states[:3].copy(), "actions": ds.actions[:3].copy()}
    probes[column][1, 0] = bad
    with pytest.raises(ValueError, match=f"probe {column} must be finite"):
        support_distance(ds, probes["states"], probes["actions"])


@pytest.mark.parametrize("call, message", [
    (lambda ds: support_distance(ds, ds.states[:0], ds.actions[:0]), "at least one probe row"),
], ids=["probes"])
@pytest.mark.parametrize("state_dim", [1, 2], ids=["sorted", "kd-tree"])
def test_support_diagnostics_name_the_argument_they_reject(call, message, state_dim):
    with pytest.raises(ValueError, match=message):
        call(tiny_dataset(n=20, state_dim=state_dim, seed=61))


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
        state, rows = env.reset(rng, 1)[0], []
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


def test_q_error_report_resets_once(monkeypatch):
    from plas.envs import make_env

    from .test_envs import _CountedReset

    env = make_env("point-mass")
    agent = _tiny_agents(env, 45)["plas"]
    counter = _CountedReset(monkeypatch, env)
    q_error_report(agent, env, 6, 0.99, np.random.default_rng(46))
    assert counter.calls == 1
