import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plas import envs
from plas.envs import (
    EdgeFollowEnv,
    PointMassEnv,
    clip_warning_count,
    evaluate_policy,
    make_env,
    random_policy,
    rollout_batch,
)


# -- frozen reference: the one-state step and the sequential episode loop ------
# Kept verbatim from the per-row implementation the array step replaced, so the
# array step, the lockstep engine and evaluation can be held to it bit for bit.
# The reference steps one 1-D state; ``env.step`` itself takes only rows.

def _ref_clip(action, dim):
    a = np.asarray(action, dtype=np.float64).reshape(-1)
    assert a.shape[0] == dim
    clipped = bool(np.max(np.abs(a)) > 1.0 + 1e-12)
    return (np.clip(a, -1.0, 1.0) if clipped else a), clipped


def _ref_step(env, state, action):
    """(next state, reward, done, clipped) of the scalar step."""
    a, clipped = _ref_clip(action, env.action_dim)
    if isinstance(env, PointMassEnv):
        p, v = state[:2], state[2:]
        v2 = env.damping * v + env.dt * a
        p2 = p + env.dt * v2
        dist = float(np.linalg.norm(p2 - np.asarray(env.goal)))
        done = dist < env.goal_radius
        reward = -dist + (env.goal_bonus if done else 0.0)
        return np.concatenate([p2, v2]), reward, done, clipped
    a = float(a[0])
    speed = 0.5 * (a + 1.0)
    x = float(state[0])
    if speed > float(env.speed_limit(x)):
        return np.array([x]), 0.0, True, clipped
    x2 = min(x + env.step_scale * speed, 1.0)
    return np.array([x2]), speed, x2 >= 1.0, clipped


def _ref_rollout(env, policy_fn, rng, noise_std=0.0):
    """Columns of one episode, the sequential loop."""
    state = env.reset(rng)
    states, actions, rewards, next_states, dones = [], [], [], [], []
    for _ in range(env.horizon):
        action = np.asarray(policy_fn(state), dtype=np.float64).reshape(-1)
        if noise_std > 0.0:
            action = action + rng.normal(0.0, noise_std, size=action.shape)
        action = np.clip(action, -1.0, 1.0)
        next_state, reward, done, _ = _ref_step(env, state, action)
        states.append(state)
        actions.append(action)
        rewards.append(reward)
        next_states.append(next_state)
        dones.append(done)
        state = next_state
        if done:
            break
    return (np.array(states), np.array(actions), np.array(rewards, dtype=np.float64),
            np.array(next_states), np.array(dones, dtype=np.float64))


def _columns(batch):
    return (batch.states, batch.actions, batch.rewards, batch.next_states, batch.dones)


def _episodes(batch, lengths):
    """The column tuple of every episode of a ``rollout_batch`` result."""
    ends = np.cumsum(lengths)
    return [tuple(c[end - k:end] for c in _columns(batch)) for end, k in zip(ends, lengths)]


def _step_one(env, state, action):
    """(next state, reward, done) of one state, stepped as the row (1, d)."""
    next_states, rewards, dones = env.step(np.asarray(state)[None], np.asarray(action)[None])
    return next_states[0], rewards[0], dones[0]


def _same_bits(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _one_episode(policy_fn):
    """A per-state policy as the batched policy of one episode."""
    return lambda states: np.asarray(policy_fn(states[0]))[None]


def test_point_mass_zero_action_keeps_position():
    env = PointMassEnv()
    state = env.reset(np.random.default_rng(0))
    next_state, reward, done = _step_one(env, state, np.zeros(2))
    assert np.array_equal(next_state[:2], state[:2])
    assert reward == pytest.approx(-np.linalg.norm(state[:2] - np.asarray(env.goal)))
    assert not done


def test_point_mass_goal_is_absorbing_with_bonus():
    env = PointMassEnv()
    state = np.array([env.goal[0] - 0.01, env.goal[1], 0.0, 0.0])
    next_state, reward, done = _step_one(env, state, np.zeros(2))
    assert done
    assert reward > env.goal_bonus - 1.0


def test_point_mass_scripted_rollout_matches_hand_simulation():
    # independent re-simulation of the same closed-form dynamics
    env = PointMassEnv()
    rng = np.random.default_rng(42)
    ro, lengths = rollout_batch(env, env.expert_action, 1, rng)
    assert lengths.tolist() == [len(ro)]

    state = ro.states[0].copy()
    total = 0.0
    goal = np.asarray(env.goal)
    for _ in range(len(ro)):
        a = np.clip(2.0 * (goal - state[:2]) - 1.0 * state[2:], -1, 1)
        v2 = env.damping * state[2:] + env.dt * a
        p2 = state[:2] + env.dt * v2
        dist = np.linalg.norm(p2 - goal)
        total += -dist + (env.goal_bonus if dist < env.goal_radius else 0.0)
        state = np.concatenate([p2, v2])
    assert sum(ro.rewards.tolist()) == pytest.approx(total, abs=1e-9)


def test_point_mass_expert_beats_random():
    env = PointMassEnv()
    e, _ = evaluate_policy(env, env.expert_action, 10, np.random.default_rng(1))
    r, _ = evaluate_policy(env, random_policy(env, np.random.default_rng(2)), 10,
                           np.random.default_rng(3))
    assert e > r + 50


@pytest.mark.parametrize("n_episodes", [0, -1])
def test_evaluate_policy_needs_an_episode(n_episodes):
    env = PointMassEnv()
    with pytest.raises(ValueError):
        evaluate_policy(env, env.expert_action, n_episodes, np.random.default_rng(0))


def test_edge_follow_safe_step_reward_is_commanded_speed():
    env = EdgeFollowEnv()
    state = np.array([0.2])
    speed = float(env.speed_limit(0.2)) - 0.1
    a = env.action_for_speed([speed])
    next_state, reward, done = _step_one(env, state, a)
    assert reward == pytest.approx(speed)
    assert next_state[0] == pytest.approx(0.2 + env.step_scale * speed)
    assert not done


def test_edge_follow_over_limit_fails_with_zero_reward():
    env = EdgeFollowEnv()
    state = np.array([0.2])
    a = env.action_for_speed([float(env.speed_limit(0.2)) + 0.05])
    next_state, reward, done = _step_one(env, state, a)
    assert done
    assert reward == 0.0
    assert next_state[0] == pytest.approx(0.2)


def test_edge_follow_track_end_terminates():
    env = EdgeFollowEnv()
    state = np.array([0.999])
    a = env.action_for_speed([0.3])
    assert 0.3 < float(env.speed_limit(0.999))
    next_state, reward, done = _step_one(env, state, a)
    assert done
    assert next_state[0] == pytest.approx(1.0)


def test_edge_follow_upper_bound():
    env = EdgeFollowEnv()
    bound = env.return_upper_bound(0.99)
    assert bound == pytest.approx(min((1 - 0.99 ** 70) / 0.01, 30.0))
    # the scripted expert respects it with real margin
    e, _ = evaluate_policy(env, env.expert_action, 10, np.random.default_rng(4))
    assert e < bound


def test_edge_follow_reward_equals_progress_over_scale():
    env = EdgeFollowEnv()
    ro, _ = rollout_batch(env, env.expert_action, 1, np.random.default_rng(5))
    progress = ro.next_states[-1, 0] - ro.states[0, 0]
    assert sum(ro.rewards.tolist()) == pytest.approx(progress / env.step_scale, abs=1e-9)
    assert np.all(ro.rewards >= 0.0)


def test_out_of_bounds_actions_clip_and_count():
    env = EdgeFollowEnv()
    before = clip_warning_count()
    state = np.array([[0.0]])
    env.step(state, np.array([[3.0]]))  # clipped to 1.0, above the limit -> fail
    assert clip_warning_count() - before == 1
    env.step(state, np.array([[0.1]]))
    assert clip_warning_count() - before == 1


@pytest.mark.parametrize("name", sorted(envs.ENVS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite_actions(name, bad):
    # NaN is neither above nor below the bound, so clipping alone would pass
    # it through as NaN states and rewards
    env = make_env(name)
    states = np.stack([env.reset(np.random.default_rng(i)) for i in range(3)])
    actions = np.zeros((3, env.action_dim))
    actions[1, -1] = bad
    before = clip_warning_count()
    with pytest.raises(ValueError, match="finite"):
        env.step(states, actions)
    assert clip_warning_count() == before


@pytest.mark.parametrize("name", sorted(envs.ENVS))
def test_evaluating_a_nan_policy_raises(name):
    env = make_env(name)
    with pytest.raises(ValueError, match="finite"):
        evaluate_policy(env, lambda state: np.full(env.action_dim, np.nan), 3,
                        np.random.default_rng(0))


def test_reset_is_seed_deterministic():
    for env in (PointMassEnv(), EdgeFollowEnv()):
        a = env.reset(np.random.default_rng(11))
        b = env.reset(np.random.default_rng(11))
        assert np.array_equal(a, b)


def test_rollout_respects_horizon():
    env = EdgeFollowEnv(horizon=7)
    batch, lengths = rollout_batch(env, lambda s: np.zeros((len(s), 1)), 3,
                                   np.random.default_rng(6))
    assert lengths.tolist() == [7, 7, 7] and len(batch) == 21


def test_make_env_registry():
    assert make_env("point-mass").name == "point-mass"
    assert make_env("edge-follow").name == "edge-follow"
    with pytest.raises(ValueError):
        make_env("mujoco")


@pytest.mark.parametrize("name, widths", [("point-mass", (4, 2)), ("edge-follow", (1, 1))])
def test_an_envs_name_and_widths_are_its_class_constants(name, widths):
    env = make_env(name)
    assert (env.name, env.state_dim, env.action_dim) == (name, *widths)
    for field, value in [("name", "other"), ("state_dim", 3), ("action_dim", 2)]:
        with pytest.raises(TypeError, match=field):
            type(env)(**{field: value})


# -- array step ----------------------------------------------------------------

def _step_rows(env):
    if isinstance(env, PointMassEnv):
        # positions around the goal, so some rows reach it
        state = st.tuples(st.floats(0.8, 1.2), st.floats(0.8, 1.2),
                          st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    else:
        state = st.tuples(st.floats(0.0, 1.0))
    action = st.lists(st.floats(-1.5, 1.5), min_size=env.action_dim, max_size=env.action_dim)
    return st.lists(st.tuples(state, action), min_size=1, max_size=12)


def _assert_rows_match_reference(env, states, actions):
    before = clip_warning_count()
    next_states, rewards, dones = env.step(states, actions)
    assert clip_warning_count() - before == sum(_ref_clip(a, env.action_dim)[1] for a in actions)
    assert next_states.shape == states.shape
    assert rewards.shape == dones.shape == (len(states),)
    outcomes = []
    for i in range(len(states)):
        want = _ref_step(env, states[i], actions[i])
        got = env.step(states[i:i + 1], actions[i:i + 1])  # the row alone, as (1, d)
        assert [x.shape for x in got] == [(1, env.state_dim), (1,), (1,)]
        assert np.array_equal(got[0][0], want[0]) and got[1][0] == want[1]
        assert got[2][0] == want[2]
        assert np.array_equal(next_states[i], want[0])
        assert rewards[i] == want[1] and dones[i] == want[2]
        outcomes.append(want)
    return outcomes


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(envs.ENVS)))
def test_one_state_step_is_row_of_batched_step(data, name):
    env = make_env(name)
    rows = data.draw(_step_rows(env))
    _assert_rows_match_reference(env, np.array([r[0] for r in rows]),
                                 np.array([r[1] for r in rows]))


def test_batched_step_rows_cover_every_outcome():
    edge = EdgeFollowEnv()
    lim = float(edge.speed_limit(0.2))
    states = np.array([[0.2], [0.2], [0.999], [0.2], [0.5]])
    actions = np.array([edge.action_for_speed([lim - 0.1]),    # safe step
                        edge.action_for_speed([lim + 0.05]),   # edge lost
                        edge.action_for_speed([0.3]),          # track end
                        [3.0],                                 # clipped, then lost
                        [1.0 + 1e-13]])                        # within tolerance: kept
    out = _assert_rows_match_reference(edge, states, actions)
    assert [o[2] for o in out] == [False, True, True, True, True]
    assert [o[3] for o in out] == [False, False, False, True, False]
    assert out[2][0][0] == 1.0 and out[1][1] == 0.0

    pm = PointMassEnv()
    states = np.array([[0.99, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.1, -0.1]])
    actions = np.array([[0.0, 0.0], [0.5, -0.5], [2.0, -0.2]])
    out = _assert_rows_match_reference(pm, states, actions)
    assert [o[2] for o in out] == [True, False, False]
    assert [o[3] for o in out] == [False, False, True]


@pytest.mark.parametrize("env, states, actions", [
    (PointMassEnv(), np.zeros((1, 3)), np.zeros((1, 2))),     # state too short
    (EdgeFollowEnv(), np.array([[0.2, 5.0]]), np.zeros((1, 1))),  # state too long
    (PointMassEnv(), np.zeros((2, 5)), np.zeros((2, 2))),     # batch of wrong width
    (PointMassEnv(), np.zeros((3, 4)), np.zeros((2, 2))),     # row counts differ
    (EdgeFollowEnv(), np.zeros((2, 1)), np.zeros((2, 2))),    # action of wrong width
    (EdgeFollowEnv(), np.zeros((2, 1)), np.zeros(1)),         # a batch needs (N, a) actions
    (EdgeFollowEnv(), np.zeros((1, 1, 1)), np.zeros((1, 1))),
])
def test_step_rejects_bad_shapes(env, states, actions):
    with pytest.raises(ValueError):
        env.step(states, actions)


@pytest.mark.parametrize("name", sorted(envs.ENVS))
def test_step_rejects_a_one_state_vector(name):
    env = make_env(name)
    state = env.reset(np.random.default_rng(0))
    assert state.shape == (env.state_dim,)
    for action in (np.zeros(env.action_dim), np.zeros((1, env.action_dim))):
        with pytest.raises(ValueError, match="rows"):
            env.step(state, action)
    next_states, _, _ = env.step(state[None], np.zeros((1, env.action_dim)))
    assert next_states.shape == (1, env.state_dim)


# -- lockstep engine -------------------------------------------------------------

@pytest.mark.parametrize("n_episodes, noise_std", [
    (0, 0.0), (-1, 0.0), (1, -1.0), (1, float("nan")), (1, float("inf")), (1, -float("inf")),
])
def test_rollout_batch_rejects_bad_inputs(n_episodes, noise_std):
    env = EdgeFollowEnv()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        rollout_batch(env, env.expert_action, n_episodes, rng, noise_std=noise_std)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("name", sorted(envs.ENVS))
@pytest.mark.parametrize("noise_std", [0.0, 0.05, 0.4])
def test_one_episode_equals_sequential_loop(name, noise_std):
    env = make_env(name)
    for seed in range(5):
        r_ref, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _ref_rollout(env, env.expert_action, r_ref, noise_std)
        got, lengths = rollout_batch(env, env.expert_action, 1, r_new, noise_std)
        assert lengths.tolist() == [len(got)] and _same_bits(_columns(got), want)
        assert r_new.bit_generator.state == r_ref.bit_generator.state
        # a per-state policy drawing from the same rng keeps the same stream too
        r_ref, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _ref_rollout(env, random_policy(env, r_ref), r_ref, noise_std)
        got, _ = rollout_batch(env, _one_episode(random_policy(env, r_new)), 1, r_new, noise_std)
        assert _same_bits(_columns(got), want)
        assert r_new.bit_generator.state == r_ref.bit_generator.state


@pytest.mark.parametrize("name", sorted(envs.ENVS))
def test_evaluate_policy_equals_sequential_loop(name):
    env = make_env(name)

    def policy(state):  # deterministic, per state, and off the expert's rule
        return np.clip(np.asarray(env.expert_action(state)) - 0.3 * math.sin(7.0 * state[0]),
                       -1.0, 1.0)

    r_ref, r_new, r_batch = (np.random.default_rng(9) for _ in range(3))
    episodes = [_ref_rollout(env, policy, r_ref) for _ in range(25)]
    returns = [sum(ep[2].tolist()) for ep in episodes]
    assert evaluate_policy(env, policy, 25, r_new) == (float(np.mean(returns)),
                                                       float(np.std(returns)))
    assert r_new.bit_generator.state == r_ref.bit_generator.state
    # the same episodes, row for row, from the engine
    got = _episodes(*rollout_batch(env, lambda s: np.array([policy(x) for x in s]), 25, r_batch))
    assert len(got) == 25 and all(_same_bits(ro, ep) for ro, ep in zip(got, episodes))
    assert len({len(ro[0]) for ro in got}) > 1  # episodes of different lengths were masked


@pytest.mark.parametrize("name", sorted(envs.ENVS))
def test_rollout_batch_masks_finished_episodes_in_order(name):
    env = make_env(name)
    rng = np.random.default_rng(7)
    live_rows = []

    def policy(states):
        live_rows.append(len(states))
        return random_policy(env, rng)(states)

    batch, lengths = rollout_batch(env, policy, 40, rng, noise_std=0.1)
    assert lengths.shape == (40,) and len(batch) == lengths.sum()
    # the engine's rows all at once: each is one step of the env
    next_states, rewards, dones = env.step(batch.states, batch.actions)
    assert _same_bits((next_states, rewards, dones),
                      (batch.next_states, batch.rewards, batch.dones == 1.0))
    starts = np.random.default_rng(7)
    for states, _, _, next_states, dones in _episodes(batch, lengths):
        assert np.array_equal(states[0], env.reset(starts))  # resets in episode order
        assert 1 <= len(states) <= env.horizon
        assert not dones[:-1].any()  # no row after a done
        assert dones[-1] == 1.0 or len(states) == env.horizon
        assert np.array_equal(states[1:], next_states[:-1])
    # one policy call per step, on exactly the episodes still running
    assert live_rows == [int(np.sum(lengths > t)) for t in range(len(live_rows))]
    assert lengths.max() == len(live_rows)
