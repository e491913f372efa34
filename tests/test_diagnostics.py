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
    from plas.cvae import FrozenDecoder, cvae_init
    from plas.envs import EdgeFollowEnv

    env = EdgeFollowEnv()
    rng = np.random.default_rng(43)
    cvae = cvae_init(env.state_dim, env.action_dim, rng, hidden_sizes=(8, 8))
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


def test_report_emission(tmp_path):
    rep = QErrorReport(1.5, 0.4, 2.0, -0.5, 100, 10)
    path = tmp_path / "reports.csv"
    append_report_csv(path, rep, "plas", "edge-follow-medium", seed=0, step=1000)
    append_report_csv(path, rep, "bc", "edge-follow-medium", seed=0, step=1000)
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 2
    assert rows[0]["algorithm"] == "plas"
    assert float(rows[1]["mse"]) == 1.5


def _tiny_agents(env, seed):
    from plas.agent import PlasTrainConfig, plas_agent_init
    from plas.baselines import UnconstrainedTrainConfig, unconstrained_agent_init
    from plas.cvae import FrozenDecoder, cvae_init

    rng = np.random.default_rng(seed)
    cvae = cvae_init(env.state_dim, env.action_dim, rng, hidden_sizes=(8, 8))
    plas = plas_agent_init(env.state_dim, FrozenDecoder(cvae),
                           PlasTrainConfig(hidden_sizes=(8, 8), perturbation_epsilon=0.05), rng)
    base = unconstrained_agent_init(env.state_dim, env.action_dim,
                                    UnconstrainedTrainConfig(hidden_sizes=(8, 8)), rng)
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
            next_state, reward, done = env.step(state, action)
            rows.append((state, action, reward))
            state = next_state
            if done:
                break
        s, a, r = (np.array(c) for c in zip(*rows))
        errors.append(q_values(agent.critics.q1, s, a) - empirical_return(r, 0.99))
    want = report_from_errors(np.concatenate(errors), 6)

    got = q_error_report(agent, env, 6, 0.99, np.random.default_rng(46))
    assert (got.n_points, got.n_episodes) == (want.n_points, want.n_episodes)
    assert got.positive_error_pct == want.positive_error_pct
    for field in ("mse", "positive_error_mean", "negative_error_mean"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=1e-12)
