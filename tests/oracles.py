"""Independent numerical oracles used across the test suite.

These stay deliberately dumb (loops, quadrature, brute force) so they share no
code with the implementations they check.
"""
from __future__ import annotations

import numpy as np

from plas.mmd import _diff_histogram, _kernel_of_diff
from plas.nets import Mlp


def finite_diff_param_grads(loss_fn, params: Mlp, h: float = 1e-5):
    """Central finite differences of a scalar loss over every Mlp entry.

    loss_fn takes an Mlp and returns a float. Returns (weight_grads,
    bias_grads) as lists of arrays congruent with params.
    """
    gw = [np.zeros_like(w) for w in params.weights]
    gb = [np.zeros_like(b) for b in params.biases]
    for k, w in enumerate(params.weights):
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            up = loss_fn(params)
            w[idx] = orig - h
            down = loss_fn(params)
            w[idx] = orig
            gw[k][idx] = (up - down) / (2.0 * h)
    for k, b in enumerate(params.biases):
        for i in range(b.shape[0]):
            orig = b[i]
            b[i] = orig + h
            up = loss_fn(params)
            b[i] = orig - h
            down = loss_fn(params)
            b[i] = orig
            gb[k][i] = (up - down) / (2.0 * h)
    return gw, gb


def finite_diff_input_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f w.r.t. a flat input vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def max_rel_err(got, want, floor: float = 1e-8) -> float:
    """Max elementwise relative error with an absolute floor for tiny values."""
    got = np.asarray(got, dtype=np.float64).ravel()
    want = np.asarray(want, dtype=np.float64).ravel()
    denom = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / denom)) if got.size else 0.0


def naive_mlp_forward(params: Mlp, x: np.ndarray) -> np.ndarray:
    """Loop-based forward pass (no shared code with plas.nets)."""
    h = np.asarray(x, dtype=np.float64)
    for w, b, act in zip(params.weights, params.biases, params.activations):
        out = np.zeros(w.shape[0])
        for i in range(w.shape[0]):
            s = b[i]
            for j in range(w.shape[1]):
                s += w[i, j] * h[j]
            out[i] = s
        if act == "relu":
            h = np.array([v if v > 0 else 0.0 for v in out])
        elif act == "tanh":
            h = np.tanh(out)
        else:
            h = out
    return h


def float64_pair_mean(k, a, b) -> float:
    """Mean of kernel k over the float64 n x n differences a[:, None] - b[None, :]."""
    return float(_kernel_of_diff(k, a[:, None] - b[None, :]).mean())


def _per_point_kernel_values(k, sweep, centers):
    """k(|x| * centers) at every point x of the sweep, one fresh exp each."""
    return [_kernel_of_diff(k, abs(float(x)) * centers) for x in sweep]


def mmd_reference_curves(sc, kernels, seed, pair_mean=float64_pair_mean, pq_table=None,
                         qq_grid=_per_point_kernel_values):
    """Float64 oracle of ``plas.mmd.run_scenario``: (mean, std) per kernel.

    The per-(kernel, point) loop of the original sweep: one fresh n x n
    difference array, and fresh kernel temporaries, for every exact term
    (pp, pq, the shift family's qq), each averaged by ``pair_mean`` — by
    default a direct float64 ``.mean()``. The agent draws at point x are
    x * base (scale) or x + 0.5 * base (shift), with base sorted as the sweep
    sorts it. Given ``pq_table(k, behavior, draws)``, the pq terms of kernel
    k are instead read from its result, one value per row of the (points x n)
    agent draws, wherever it returns one rather than None. The scale family's
    qq terms use the same histogram as the sweep, with the n self-differences
    at exactly 0; each is the float64 dot of its weights with row xi of
    ``qq_grid(k, sweep, centers)``, the kernel values at |x| times the centres,
    by default a fresh float64 exp at every point.
    """
    values = np.empty((len(kernels), sc.n_repeats, sc.sweep.size))
    for r in range(sc.n_repeats):
        rng = np.random.default_rng([seed, r])
        behavior = sc.behavior_sample(rng)
        base = np.sort(rng.standard_normal(sc.n_samples))
        if sc.agent_family == "scale":
            draws = sc.sweep[:, None] * base
            qq_centers, qq_weights = _diff_histogram(
                np.abs(base[:, None] - base[None, :]).ravel(), sc.n_samples
            )
        else:
            draws = sc.sweep[:, None] + 0.5 * base
        for ki, k in enumerate(kernels):
            pp = pair_mean(k, behavior, behavior)
            if sc.agent_family == "shift":
                qq_const = pair_mean(k, 0.5 * base, 0.5 * base)
            table = pq_table(k, behavior, draws) if pq_table is not None else None
            if sc.agent_family == "scale":
                grid = qq_grid(k, sc.sweep, qq_centers)
            for xi in range(sc.sweep.size):
                if table is not None:
                    pq = table[xi]
                elif k.family == "laplacian":
                    pq = pair_mean(k, draws[xi], behavior)
                else:
                    pq = pair_mean(k, behavior, draws[xi])
                if sc.agent_family == "scale":
                    qq = float(qq_weights @ grid[xi])
                else:
                    qq = qq_const
                values[ki, r, xi] = pp - 2.0 * pq + qq
    return [(values[ki].mean(axis=0), values[ki].std(axis=0)) for ki in range(len(kernels))]
