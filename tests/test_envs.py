import numpy as np
import pytest

from plas.envs import (
    EdgeFollowEnv,
    PointMassEnv,
    clip_warning_count,
    evaluate_policy,
    make_env,
    random_policy,
    reset_clip_warning_count,
    rollout,
)


def test_point_mass_zero_action_keeps_position():
    env = PointMassEnv()
    state = env.reset(np.random.default_rng(0))
    next_state, reward, done = env.step(state, np.zeros(2))
    assert np.array_equal(next_state[:2], state[:2])
    assert reward == pytest.approx(-np.linalg.norm(state[:2] - np.asarray(env.goal)))
    assert not done


def test_point_mass_goal_is_absorbing_with_bonus():
    env = PointMassEnv()
    state = np.array([env.goal[0] - 0.01, env.goal[1], 0.0, 0.0])
    next_state, reward, done = env.step(state, np.zeros(2))
    assert done
    assert reward > env.goal_bonus - 1.0


def test_point_mass_scripted_rollout_matches_hand_simulation():
    # independent re-simulation of the same closed-form dynamics
    env = PointMassEnv()
    rng = np.random.default_rng(42)
    ro = rollout(env, env.expert_action, rng)

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
    assert ro.total_reward == pytest.approx(total, abs=1e-9)


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
    next_state, reward, done = env.step(state, a)
    assert reward == pytest.approx(speed)
    assert next_state[0] == pytest.approx(0.2 + env.step_scale * speed)
    assert not done


def test_edge_follow_over_limit_fails_with_zero_reward():
    env = EdgeFollowEnv()
    state = np.array([0.2])
    a = env.action_for_speed([float(env.speed_limit(0.2)) + 0.05])
    next_state, reward, done = env.step(state, a)
    assert done
    assert reward == 0.0
    assert next_state[0] == pytest.approx(0.2)


def test_edge_follow_track_end_terminates():
    env = EdgeFollowEnv()
    state = np.array([0.999])
    a = env.action_for_speed([0.3])
    assert 0.3 < float(env.speed_limit(0.999))
    next_state, reward, done = env.step(state, a)
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
    ro = rollout(env, env.expert_action, np.random.default_rng(5))
    progress = ro.next_states[-1, 0] - ro.states[0, 0]
    assert ro.total_reward == pytest.approx(progress / env.step_scale, abs=1e-9)
    assert np.all(ro.rewards >= 0.0)


def test_out_of_bounds_actions_clip_and_count():
    env = EdgeFollowEnv()
    reset_clip_warning_count()
    state = np.array([0.0])
    env.step(state, np.array([3.0]))  # clipped to 1.0, above the limit -> fail
    assert clip_warning_count() == 1
    env.step(state, np.array([0.1]))
    assert clip_warning_count() == 1


def test_reset_is_seed_deterministic():
    for env in (PointMassEnv(), EdgeFollowEnv()):
        a = env.reset(np.random.default_rng(11))
        b = env.reset(np.random.default_rng(11))
        assert np.array_equal(a, b)


def test_rollout_respects_horizon():
    env = EdgeFollowEnv(horizon=7)
    ro = rollout(env, lambda s: np.array([0.0]), np.random.default_rng(6))
    assert len(ro) == 7


def test_make_env_registry():
    assert make_env("point-mass").name == "point-mass"
    assert make_env("edge-follow").name == "edge-follow"
    with pytest.raises(ValueError):
        make_env("mujoco")
