import numpy as np
import pytest
from scipy import stats

from plas.data import save_dataset
from plas.envs import EdgeFollowEnv, PointMassEnv, evaluate_policy, make_env
from plas.generators import (
    FAST_FRAC,
    MAX_ENV_STEPS,
    SLOW_FRAC,
    WARMUP_STEPS,
    expert_return,
    generate_dataset,
    make_bimodal_dataset,
    medium_run,
)

from .test_envs import NoStepEnv


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
        return make_bimodal_dataset(size, seed)
    return generate_dataset(env, kind, size, seed)


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
    replay_rows = len(medium_run(env, 5).replay) if kind == "medium_replay" else None
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


@pytest.mark.parametrize("size", [0, -5])
def test_bimodal_dataset_needs_a_row(size, monkeypatch):
    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before checking the size")

    monkeypatch.setattr("plas.generators.rollout_batch", no_rollout)
    with pytest.raises(ValueError, match="size"):
        make_bimodal_dataset(size, seed=0)


@pytest.mark.parametrize("size", [10.5, 10.0, True, "10"])
@pytest.mark.parametrize("kind", ["bimodal", "random", "medium_replay"])
def test_a_dataset_size_is_a_count_checked_before_any_rollout(kind, size, monkeypatch):
    # a float size ran a whole lockstep batch, then numpy refused it as a slice
    # index; True built a 1-row dataset
    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before checking the size")

    monkeypatch.setattr("plas.generators.rollout_batch", no_rollout)
    monkeypatch.setattr("plas.generators.medium_run", no_rollout)
    with pytest.raises(ValueError, match="size must be an integer >= 1"):
        _generate(EdgeFollowEnv(), kind, size, seed=0)


def test_an_env_without_steps_cannot_make_a_dataset():
    # the batches of zero-step episodes hold no rows, so appending them until
    # there are enough would never end
    with pytest.raises(ValueError, match="horizon"):
        generate_dataset(NoStepEnv(), "random", 10, seed=0)


# content hashes of generated datasets, taken while every rollout started its
# episodes with one one-state reset each; drawing the starts in one block keeps
# every bit, and a reordered draw anywhere in a generator changes them
DATASET_DIGESTS = {
    ("bimodal", 20_000, 0): "9ce7f33af443485ce2b86bdd25f1e8c8cc4afd232dadee5818c050a54deb82b8",
    ("bimodal", 5_000, 2): "4406df1c77c2b5e41c3c5895dda88709f967cc523a076e37f89e872881cd707f",
    ("edge-follow", "random", 2_000, 1):
        "4380d6d7a2aab109f6694f75c2faa796184d2412b20b336cb53e4c33cd1622ed",
    ("point-mass", "expert", 5_000, 0):
        "e287650b868ef189342df9e35ce897041c4c478139eae641ffccdf02f9b8fc3a",
    ("point-mass", "random", 5_000, 1):
        "6820233429e4c150d507cfd939a2012ca1c67b483ede88462318aba0ffffed4b",
    ("edge-follow", "medium", 3_000, 5):
        "2e3bbcbe0f938ebc40e85958bc56c4e3158ec472242188783cb66503d35ebb59",
    ("edge-follow", "medium_replay", 3_000, 5):
        "0a506747ed822df5badea88c232f6f0bab806a2cb0186cd4eb9135899bb93f57",
}


@pytest.mark.parametrize("case", list(DATASET_DIGESTS), ids=lambda case: "-".join(map(str, case)))
def test_generated_datasets_keep_their_bits(case):
    if case[0] == "bimodal":
        ds = make_bimodal_dataset(*case[1:])
    else:
        ds = generate_dataset(make_env(case[0]), *case[1:])
    assert ds.content_hash() == DATASET_DIGESTS[case]


def test_medium_expert_is_concatenation():
    env = EdgeFollowEnv()
    ds = generate_dataset(env, "medium_expert", 2_000, seed=5)
    assert len(ds) == 2_000
    assert ds.meta.generator_kind == "medium_expert"
    # expert half comes second: its commanded speeds hug the limit
    expert_speeds = 0.5 * (ds.actions[1_000:, 0] + 1.0)
    limits = env.speed_limit(ds.states[1_000:, 0])
    assert np.mean(np.abs(expert_speeds - (limits - 0.05)) < 0.06) > 0.9
    # medium half is visibly different from the expert rule
    medium_speeds = 0.5 * (ds.actions[:1_000, 0] + 1.0)
    limits_m = env.speed_limit(ds.states[:1_000, 0])
    assert np.mean(np.abs(medium_speeds - (limits_m - 0.05)) < 0.06) < 0.8


def test_medium_expert_of_one_row_is_all_expert():
    env = EdgeFollowEnv()
    ds = generate_dataset(env, "medium_expert", 1, seed=5)
    assert len(ds) == 1 and ds.meta.size == 1
    assert abs(0.5 * (ds.actions[0, 0] + 1.0) - (env.speed_limit(ds.states[0, 0]) - 0.05)) < 0.06


def test_medium_replay_smaller_than_medium():
    env = EdgeFollowEnv()
    medium = generate_dataset(env, "medium", 10_000, seed=5)
    replay = generate_dataset(env, "medium_replay", 10_000, seed=5)
    assert len(replay) < len(medium)
    assert replay.meta.size == len(replay)


def test_medium_run_stops_mid_gap():
    env = EdgeFollowEnv()
    run = medium_run(env, 5)
    medium, _ = evaluate_policy(env, run.policy_fn, 20, np.random.default_rng(104))
    assert medium < 0.9 * expert_return(env, np.random.default_rng(106))
    assert WARMUP_STEPS < len(run.replay) <= MAX_ENV_STEPS


def test_medium_run_is_cached_per_env_value():
    # two horizons of one env share a name; each gets its own run (seed 5,
    # whose default-env run the other tests share)
    base = medium_run(EdgeFollowEnv(), 5)
    other = EdgeFollowEnv(horizon=20)
    run = medium_run(other, 5)
    assert run is not base
    assert medium_run(EdgeFollowEnv(horizon=20), 5) is run
    assert medium_run(EdgeFollowEnv(), 5) is base
    # every logged row is a step of the env the run was asked for
    replay = run.replay
    next_states, rewards, dones = other.step(replay.states, replay.actions)
    assert np.array_equal(next_states, replay.next_states)
    assert np.array_equal(rewards, replay.rewards)
    assert np.array_equal(dones, replay.dones == 1.0)


def test_bimodal_dataset_has_two_modes_and_a_hole():
    env = EdgeFollowEnv()
    ds = make_bimodal_dataset(3_000, seed=6)
    assert len(ds) == 3_000
    lim = env.speed_limit(ds.states[:, 0])
    speeds = 0.5 * (ds.actions[:, 0] + 1.0)
    frac = speeds / lim
    near_fast = np.abs(frac - FAST_FRAC) < 0.15
    near_slow = np.abs(frac - SLOW_FRAC) < 0.15
    assert np.mean(near_fast) > 0.4
    assert np.mean(near_slow) > 0.15
    # nothing between the per-state modes
    assert np.mean((frac > 0.5) & (frac < 0.7)) < 0.01
    assert np.mean(near_fast | near_slow) > 0.98
