import numpy as np
import pytest
from scipy import stats

from plas.data import save_dataset
from plas.envs import EdgeFollowEnv, PointMassEnv
from plas.generators import (
    OnlineTrainRecipe,
    generate_dataset,
    make_bimodal_dataset,
    medium_run,
)

# short recipe so the medium policy trains in seconds; cached across tests
FAST_RECIPE = OnlineTrainRecipe(max_env_steps=6_000, eval_every=500)


def test_random_dataset_actions_uniform():
    env = PointMassEnv()
    ds = generate_dataset(env, "random", 4_000, seed=0)
    assert len(ds) == 4_000
    for d in range(env.action_dim):
        stat = stats.kstest(ds.actions[:, d], stats.uniform(loc=-1, scale=2).cdf).statistic
        assert stat < 0.03


def test_random_dataset_bounds_and_finiteness():
    env = EdgeFollowEnv()
    ds = generate_dataset(env, "random", 2_000, seed=1)
    assert np.max(np.abs(ds.actions)) <= 1.0
    assert np.all(np.isfinite(ds.rewards))
    assert np.all(np.isfinite(ds.states))


def test_expert_dataset_high_reward():
    env = EdgeFollowEnv()
    ds = generate_dataset(env, "expert", 1_000, seed=2)
    # expert stays near the speed limit; per-step reward well above random
    assert ds.rewards.mean() > 0.3


def test_a_dataset_holds_only_its_own_rows():
    # a 1-row dataset cut from a lockstep batch of ~2.9k rows must not keep
    # that batch alive
    ds = generate_dataset(PointMassEnv(), "expert", 1, 0)
    for name in ("states", "actions", "rewards", "next_states", "dones"):
        column = getattr(ds, name)
        assert column.base is None or column.base.nbytes == column.nbytes, name


def _generate(env, kind, size, seed):
    if kind == "bimodal":
        return make_bimodal_dataset(size, seed, env=env)
    return generate_dataset(env, kind, size, seed, recipe=FAST_RECIPE)


KINDS = ("random", "expert", "medium", "medium_replay", "medium_expert", "bimodal")


def test_generate_is_reproducible_byte_for_byte(tmp_path):
    env = EdgeFollowEnv()
    for kind in KINDS:
        a = _generate(env, kind, 500, seed=5)
        b = _generate(env, kind, 500, seed=5)
        assert a.content_hash() == b.content_hash(), kind
        pa, pb = tmp_path / f"{kind}_a.npz", tmp_path / f"{kind}_b.npz"
        save_dataset(pa, a)
        save_dataset(pb, b)
        assert pa.read_bytes() == pb.read_bytes(), kind
    c = generate_dataset(env, "random", 500, seed=4)
    assert c.content_hash() != generate_dataset(env, "random", 500, seed=3).content_hash()


CASES = [(EdgeFollowEnv(), kind) for kind in KINDS] + [(PointMassEnv(), "random"),
                                                      (PointMassEnv(), "expert")]


@pytest.mark.parametrize("env, kind", CASES, ids=[f"{e.name}-{k}" for e, k in CASES])
def test_every_kind_gives_exactly_the_rows_asked_for(env, kind):
    replay_rows = len(medium_run(env, 5, FAST_RECIPE).replay) if kind == "medium_replay" else None
    for size in (1, env.horizon - 1, env.horizon + 1, 5_000):
        ds = _generate(env, kind, size, seed=5)
        want = min(size, replay_rows) if replay_rows is not None else size
        assert len(ds) == ds.meta.size == want, (kind, size)


# medium_replay cuts one logged buffer; medium_expert's expert half starts
# wherever its medium half left the rng
PREFIX_CASES = [c for c in CASES if c[1] not in ("medium_replay", "medium_expert")]


@pytest.mark.parametrize("env, kind", PREFIX_CASES, ids=[f"{e.name}-{k}" for e, k in PREFIX_CASES])
def test_smaller_dataset_is_a_prefix_of_a_larger_one(env, kind):
    big = _generate(env, kind, 3_000, seed=5)
    for n in (1, 37, 1_000, 2_999):
        small = _generate(env, kind, n, seed=5)
        for column in ("states", "actions", "rewards", "next_states", "dones"):
            assert np.array_equal(getattr(small, column), getattr(big, column)[:n]), (n, column)


def test_edge_follow_random_episodes_are_short():
    # the generator's batches end early on most rows: ~3-row episodes, still exact sizes
    ds = generate_dataset(EdgeFollowEnv(), "random", 2_000, seed=1)
    assert 1.0 / ds.dones.mean() < 6.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        generate_dataset(EdgeFollowEnv(), "expert_replay", 10, seed=0)
    with pytest.raises(ValueError):
        generate_dataset(EdgeFollowEnv(), "random", 0, seed=0)


def test_medium_expert_is_concatenation():
    env = EdgeFollowEnv()
    ds = generate_dataset(env, "medium_expert", 2_000, seed=5, recipe=FAST_RECIPE)
    assert len(ds) == 2_000
    assert ds.meta.generator_kind == "medium_expert"
    # expert half comes second: its commanded speeds hug the limit
    expert_speeds = env.speed_of(ds.actions[1_000:, 0])
    limits = env.speed_limit(ds.states[1_000:, 0])
    assert np.mean(np.abs(expert_speeds - (limits - 0.05)) < 0.06) > 0.9
    # medium half is visibly different from the expert rule
    medium_speeds = env.speed_of(ds.actions[:1_000, 0])
    limits_m = env.speed_limit(ds.states[:1_000, 0])
    assert np.mean(np.abs(medium_speeds - (limits_m - 0.05)) < 0.06) < 0.8


def test_medium_expert_of_one_row_is_all_expert():
    env = EdgeFollowEnv()
    ds = generate_dataset(env, "medium_expert", 1, seed=5, recipe=FAST_RECIPE)
    assert len(ds) == 1 and ds.meta.size == 1
    assert abs(env.speed_of(ds.actions[0, 0]) - (env.speed_limit(ds.states[0, 0]) - 0.05)) < 0.06


def test_medium_replay_smaller_than_medium():
    env = EdgeFollowEnv()
    medium = generate_dataset(env, "medium", 10_000, seed=5, recipe=FAST_RECIPE)
    replay = generate_dataset(env, "medium_replay", 10_000, seed=5, recipe=FAST_RECIPE)
    assert len(replay) < len(medium)
    assert replay.meta.size == len(replay)


def test_medium_run_stops_mid_gap():
    env = EdgeFollowEnv()
    run = medium_run(env, 5, FAST_RECIPE)
    assert run.medium_return < 0.9 * run.expert_return
    assert run.stop_step <= FAST_RECIPE.max_env_steps
    assert len(run.replay) == run.stop_step


def test_medium_run_is_cached_per_env_value():
    # two configurations of one env share a name; each gets its own run
    recipe = OnlineTrainRecipe(max_env_steps=700, eval_every=100, eval_episodes=2)
    base = medium_run(EdgeFollowEnv(), 0, recipe)
    other = EdgeFollowEnv(horizon=20, limit_amp=0.1)
    run = medium_run(other, 0, recipe)
    assert run is not base
    assert medium_run(EdgeFollowEnv(horizon=20, limit_amp=0.1), 0, recipe) is run
    assert medium_run(EdgeFollowEnv(), 0, recipe) is base
    # every logged row is a step of the env the run was asked for
    replay = run.replay
    next_states, rewards, dones = other.step(replay.states, replay.actions)
    assert np.array_equal(next_states, replay.next_states)
    assert np.array_equal(rewards, replay.rewards)
    assert np.array_equal(dones, replay.dones == 1.0)


@pytest.mark.parametrize("field, value", [
    ("max_env_steps", 0), ("warmup_steps", -1), ("exploration_noise", -0.1),
    ("exploration_noise", float("nan")), ("stop_fraction", float("inf")), ("eval_every", 0),
    ("eval_episodes", 0), ("batch_size", 0), ("actor_lr", 0.0), ("critic_lr", float("nan")),
    ("actor_lr", float("inf")), ("critic_lr", float("inf")), ("gamma", 1.0), ("tau", 0.0),
])
def test_online_recipe_rejects_bad_fields(field, value):
    with pytest.raises(ValueError, match=f"OnlineTrainRecipe.{field} "):
        OnlineTrainRecipe(**{field: value})


def test_bimodal_dataset_has_two_modes_and_a_hole():
    env = EdgeFollowEnv()
    ds = make_bimodal_dataset(3_000, seed=6, env=env)
    assert len(ds) == 3_000
    lim = env.speed_limit(ds.states[:, 0])
    speeds = env.speed_of(ds.actions[:, 0])
    frac = speeds / lim
    near_fast = np.abs(frac - 0.9) < 0.15
    near_slow = np.abs(frac - 0.3) < 0.15
    assert np.mean(near_fast) > 0.4
    assert np.mean(near_slow) > 0.15
    # nothing between the per-state modes
    assert np.mean((frac > 0.5) & (frac < 0.7)) < 0.01
    assert np.mean(near_fast | near_slow) > 0.98
