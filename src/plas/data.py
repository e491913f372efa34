"""Offline transition datasets: containers, minibatch sampling, files.

Any set of transitions is a ``Batch``: five columns (state/action/reward/
next_state/done arrays) of one row per transition. Minibatches, the rows of
lockstep rollouts and the online run's log are all batches; ``sample_batch``
draws every trainer's minibatch and ``concat_rows`` lays any batches end to
end. A dataset (``TransitionDataset``) is a ``Batch`` of checked float64
columns with a metadata record. A file is one ``nets`` container of kind
``"dataset"``: the five columns as float64 arrays, the metadata in its header.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .nets import COUNT, _count, _read, _write

GENERATOR_KINDS = ("random", "medium", "medium_replay", "medium_expert", "expert", "custom")

COLUMNS = ("states", "actions", "rewards", "next_states", "dones")


@dataclass
class DatasetMeta:
    env_name: str
    generator_kind: str
    seed: int
    size: int


@dataclass(eq=False)  # columns are arrays: two batches are equal only if they are one
class Batch:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]

    def __getitem__(self, rows) -> "Batch":
        """The same rows (a slice or an index array) of every column."""
        return Batch(*(getattr(self, c)[rows] for c in COLUMNS))

    def astype(self, dtype) -> "Batch":
        """Every column as ``dtype``; columns already of it are not copied."""
        return Batch(*(getattr(self, c).astype(dtype, copy=False) for c in COLUMNS))


@dataclass(eq=False)
class TransitionDataset(Batch):
    """A checked ``Batch`` of float64 columns and its metadata;
    immutable by convention."""

    meta: DatasetMeta

    def __post_init__(self):
        for name in COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = self.states.shape[0]
        if n == 0:
            raise ValueError("empty dataset")
        if self.states.ndim != 2 or self.actions.ndim != 2:
            raise ValueError("states/actions must be 2-D")
        if self.next_states.shape != self.states.shape:
            raise ValueError("next_states shape mismatch")
        if self.actions.shape[0] != n:
            raise ValueError("column lengths differ")
        for name in ("rewards", "dones"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must be ({n},), got {getattr(self, name).shape}")
        for name in ("states", "actions", "rewards", "next_states"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite {name}")
        if np.max(np.abs(self.actions)) > 1.0 + 1e-12:
            raise ValueError("actions outside [-1, 1]")
        if not ((self.dones == 0.0) | (self.dones == 1.0)).all():
            raise ValueError("dones outside {0, 1}")
        if self.meta.size != n:
            raise ValueError(f"metadata size {self.meta.size} != length {n}")
        if self.meta.generator_kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.meta.generator_kind!r}")

    def content_hash(self) -> str:
        """SHA-256 over the five columns' shapes, then their little-endian
        float64 bytes (immutability probe; equal across a file round trip)."""
        columns = [getattr(self, name) for name in COLUMNS]
        h = hashlib.sha256(json.dumps([c.shape for c in columns]).encode("utf-8"))
        for c in columns:
            h.update(np.ascontiguousarray(c, dtype="<f8"))
        return h.hexdigest()


# -- sampling ---------------------------------------------------------------

def sample_batch(dataset: Batch, k: int, rng: np.random.Generator) -> Batch:
    """``k`` rows drawn uniformly with replacement: the one minibatch draw of
    every trainer, which casts to its networks' dtype what it reads."""
    if not _count(k):
        raise ValueError(f"k must be {COUNT}, got {k!r}")
    if len(dataset) == 0:
        raise ValueError("cannot sample rows from an empty batch")
    return dataset[rng.integers(0, len(dataset), size=k)]


def concat_rows(parts, n: int) -> Batch:
    """The first ``n`` rows of the batches ``parts`` (datasets included) laid
    end to end, as new arrays that hold only those rows; ``n`` may exceed
    their total and must be an integer >= 0."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    stops, left = [], n
    for p in parts:
        stops.append(left)
        left = max(left - len(p), 0)
    return Batch(*(np.concatenate([getattr(p, c)[:k] for p, k in zip(parts, stops)])
                   for c in COLUMNS))


# -- files -------------------------------------------------------------------

def save_dataset(path, dataset: TransitionDataset) -> None:
    _write(path, "dataset", {"meta": asdict(dataset.meta)},
           {name: getattr(dataset, name) for name in COLUMNS})


def load_dataset(path) -> TransitionDataset:
    header, columns = _read(path, "dataset", COLUMNS, {"meta": (dict,)})
    try:
        meta = DatasetMeta(**header["meta"])
    except TypeError as e:
        raise ValueError(f"{path} is not a 'dataset' file: meta {header['meta']!r}: {e}") from e
    return TransitionDataset(**columns, meta=meta)
