import time

import numpy as np
import pytest

from plas.data import (
    COLUMNS,
    Batch,
    DatasetMeta,
    TransitionDataset,
    concat_rows,
    load_dataset,
    sample_batch,
    save_dataset,
)

from .test_nets import rewrite_container


def tiny_dataset(n=10, state_dim=2, action_dim=1, seed=0, kind="custom"):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, state_dim))
    return TransitionDataset(
        states=states,
        actions=rng.uniform(-1, 1, size=(n, action_dim)),
        rewards=rng.normal(size=n),
        next_states=states + 0.1,
        dones=(rng.uniform(size=n) < 0.1).astype(float),
        meta=DatasetMeta("synthetic", kind, seed, n),
    )


def test_a_dataset_is_a_batch_with_meta():
    ds = TransitionDataset(np.zeros((4, 2), int), np.zeros((4, 1), np.float32), [0, 1, 2, 3],
                           np.ones((4, 2)), np.zeros(4), DatasetMeta("e", "custom", 0, 4))
    assert isinstance(ds, Batch)
    assert all(getattr(ds, c).dtype == np.float64 for c in COLUMNS)
    assert (len(ds), ds.state_dim, ds.action_dim) == (4, 2, 1)
    rows = ds[1:3]
    assert type(rows) is Batch and (len(rows), rows.state_dim, rows.action_dim) == (2, 2, 1)
    # the columnar methods are Batch's; content_hash stays the dataset's own
    assert not {"__len__", "state_dim", "action_dim"} & set(vars(TransitionDataset))
    assert "content_hash" in vars(TransitionDataset)


def test_dataset_validation():
    ds = tiny_dataset()
    assert len(ds) == 10 and ds.state_dim == 2 and ds.action_dim == 1
    with pytest.raises(ValueError):
        TransitionDataset(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0),
                          np.zeros((0, 2)), np.zeros(0), DatasetMeta("e", "custom", 0, 0))
    with pytest.raises(ValueError):
        TransitionDataset(np.zeros((2, 2)), np.full((2, 1), 1.5), np.zeros(2),
                          np.zeros((2, 2)), np.zeros(2), DatasetMeta("e", "custom", 0, 2))
    with pytest.raises(ValueError):
        tiny_dataset(kind="bogus")


@pytest.mark.parametrize("column", ["states", "actions", "next_states"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_dataset_rejects_non_finite_columns(column, value):
    ds = tiny_dataset()
    cols = {c: getattr(ds, c).copy() for c in ("states", "actions", "rewards", "next_states", "dones")}
    cols[column][3, 0] = value
    with pytest.raises(ValueError):
        TransitionDataset(**cols, meta=ds.meta)


@pytest.mark.parametrize("done", [2.0, -1.0, 0.5, np.nan])
def test_dataset_rejects_dones_outside_zero_one(done):
    ds = tiny_dataset()
    dones = ds.dones.copy()
    dones[0] = done
    with pytest.raises(ValueError):
        TransitionDataset(ds.states, ds.actions, ds.rewards, ds.next_states, dones, ds.meta)


@pytest.mark.parametrize("column", ["rewards", "dones"])
@pytest.mark.parametrize("shape", [(10, 1), (10, 3), (9,), ()])
def test_dataset_rewards_and_dones_are_one_value_per_row(column, shape):
    # a (n, 1) column would broadcast the critic targets to (B, B)
    ds = tiny_dataset()
    cols = {c: getattr(ds, c) for c in COLUMNS}
    cols[column] = np.zeros(shape)
    with pytest.raises(ValueError, match=f"{column} must be \\(10,\\)"):
        TransitionDataset(**cols, meta=ds.meta)


@pytest.mark.parametrize("column", ["rewards", "dones"])
def test_load_dataset_rejects_a_two_dimensional_reward_or_done_column(tmp_path, column):
    path = tmp_path / "d.npz"
    ds = tiny_dataset()
    save_dataset(path, ds)
    rewrite_container(path, **{column: getattr(ds, column)[:, None]})
    with pytest.raises(ValueError, match=f"{column} must be \\(10,\\), got \\(10, 1\\)"):
        load_dataset(path)


def test_metadata_size_must_match():
    with pytest.raises(ValueError):
        TransitionDataset(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros(2),
                          np.zeros((2, 1)), np.zeros(2), DatasetMeta("e", "custom", 0, 3))


def test_dataset_file_round_trip_and_hash(tmp_path):
    ds = tiny_dataset(seed=4)
    path = tmp_path / "d.jsonl"
    save_dataset(path, ds)
    assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]  # no suffix, no sidecar
    back = load_dataset(path)
    assert np.array_equal(back.states, ds.states)
    assert np.array_equal(back.actions, ds.actions)
    assert np.array_equal(back.rewards, ds.rewards)
    assert np.array_equal(back.next_states, ds.next_states)
    assert np.array_equal(back.dones, ds.dones)
    assert back.meta == ds.meta
    assert back.content_hash() == ds.content_hash()
    # file bytes are canonical: saving the loaded copy reproduces the file
    path2 = tmp_path / "d2.jsonl"
    save_dataset(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_file_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    ds = tiny_dataset(seed=5)
    save_dataset(tmp_path / "a", ds)
    monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
    save_dataset(tmp_path / "b", ds)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_sampling_seed_reproducible():
    ds = tiny_dataset(n=50)
    a = sample_batch(ds, 32, np.random.default_rng(123))
    b = sample_batch(ds, 32, np.random.default_rng(123))
    for c in COLUMNS:
        assert np.array_equal(getattr(a, c), getattr(b, c))


def test_sampling_rejects_k_zero():
    ds = tiny_dataset()
    with pytest.raises(ValueError):
        sample_batch(ds, 0, np.random.default_rng(0))


def test_sampling_uniformity_chi_square():
    ds = tiny_dataset(n=100)
    ds.rewards = np.arange(100.0)  # each row's reward names it
    batch = sample_batch(ds, 1_000_000, np.random.default_rng(7))
    counts = np.bincount(batch.rewards.astype(int), minlength=100)
    expected = 10_000.0
    sigma = np.sqrt(1_000_000 * 0.01 * 0.99)
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_sample_batch_matches_minibatch_indices():
    # the draw is one rng.integers call: every trainer's stream depends on it
    ds = tiny_dataset(n=30)
    batch = sample_batch(ds, 8, np.random.default_rng(9))
    idx = np.random.default_rng(9).integers(0, 30, size=8)
    for c in COLUMNS:
        assert np.array_equal(getattr(batch, c), getattr(ds, c)[idx])


def test_concat_preserves_order():
    a = tiny_dataset(n=5, seed=1)
    b = tiny_dataset(n=7, seed=2)
    part = Batch(b.states, b.actions, b.rewards, b.next_states, b.dones)[2:4]
    both = concat_rows([a, part], 12)  # a dataset and a batch; only 7 rows there
    assert len(both) == 7 and type(both) is Batch
    for column in COLUMNS:
        assert np.array_equal(getattr(both, column)[:5], getattr(a, column))
        assert np.array_equal(getattr(both, column)[5:], getattr(b, column)[2:4])
    cut = concat_rows([a, b], 6)
    assert len(TransitionDataset(**vars(cut), meta=DatasetMeta("x", "custom", 0, 6))) == 6
    assert np.array_equal(cut.rewards, np.concatenate([a.rewards, b.rewards[:1]]))
    assert not np.shares_memory(concat_rows([a], 5).states, a.states)



@pytest.mark.parametrize("version", [None, 99, "1"])
def test_load_dataset_checks_format_version(tmp_path, version):
    path = tmp_path / "d.npz"
    save_dataset(path, tiny_dataset())

    def edit(header):
        if version is None:
            del header["version"]
        else:
            header["version"] = version

    rewrite_container(path, edit)
    with pytest.raises(ValueError, match="'dataset'"):
        load_dataset(path)
