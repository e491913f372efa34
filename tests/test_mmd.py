import math
from fractions import Fraction

import numpy as np
import pytest

from plas import mmd
from plas.mmd import (
    SCENARIOS,
    KernelSpec,
    MmdScenario,
    SweepCurve,
    _aligned_histogram,
    _kernel_means,
    _kernel_of_diff,
    _laplacian_mean,
    _tabulated_pq,
    default_kernels,
    kernel_eval,
    run_scenario,
    sampled_mmd,
    scenario_bimodal_hole,
    scenario_matched_scale,
    write_curves_csv,
)
from .oracles import float64_pair_mean, mmd_reference_curves


def test_kernel_at_equal_points_is_one():
    for family in ("gaussian", "laplacian"):
        spec = KernelSpec(family, 0.7)
        assert kernel_eval(spec, 1.3, 1.3) == pytest.approx(1.0)


def test_kernel_gaussian_closed_form():
    spec = KernelSpec("gaussian", 1.0)
    assert kernel_eval(spec, 0.0, 1.0) == pytest.approx(np.exp(-0.5))


def test_kernel_laplacian_closed_form():
    spec = KernelSpec("laplacian", 2.0)
    assert kernel_eval(spec, 0.0, 1.0) == pytest.approx(np.exp(-0.5))


def test_kernel_symmetric_and_bounded():
    # distances kept small enough that even sigma=0.1 stays above float64
    # underflow, where the mathematically-positive value rounds to 0.0
    rng = np.random.default_rng(30)
    for spec in default_kernels():
        x = rng.uniform(-1.5, 1.5, size=10_000)
        y = rng.uniform(-1.5, 1.5, size=10_000)
        kxy = kernel_eval(spec, x, y)
        kyx = kernel_eval(spec, y, x)
        assert np.array_equal(kxy, kyx)
        assert np.all((kxy > 0.0) & (kxy <= 1.0))


def test_kernel_rejects_bad_sigma():
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("cauchy", 1.0)
    # a bool or a Fraction built, and a Fraction's label then read "0.5"
    for sigma in (True, Fraction(1, 2), "1.0"):
        with pytest.raises(ValueError, match="sigma must be a finite real number"):
            KernelSpec("gaussian", sigma)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_kernel_rejects_non_finite_sigma(sigma):
    # nan made every kernel value NaN; inf made the kernel a constant 1
    with pytest.raises(ValueError, match="finite"):
        KernelSpec("gaussian", sigma)


@pytest.mark.parametrize("family, sigma", [
    ("gaussian", 1e-200),  # built, then kernel_eval(k, [0], [0]) read NaN
    ("gaussian", 1e-30),  # built, then run_scenario gave NaN curves
    ("gaussian", 1e20),
    ("gaussian", 1e200),
    ("laplacian", 1e-46),
    ("gaussian", 1.87e-23),  # 2 s^2 rounds to a zero float32
    ("laplacian", 7.006492321624085e-46),  # half the smallest subnormal: rounds to zero
])
def test_kernel_rejects_sigma_without_a_float32_divisor(family, sigma):
    with pytest.raises(ValueError, match=r"must lie in \[.*\], where its float32 divisor"):
        KernelSpec(family, sigma)


@pytest.mark.parametrize("family, sigma", [("gaussian", 1.9e-23), ("laplacian", 1e-45),
                                           ("gaussian", 1.3e19), ("laplacian", 3.4e38)])
def test_kernel_at_the_sigma_limits_stays_finite(family, sigma):
    # run_scenario at gaussian 1.9e-23 warned of float32 overflow in its divides
    k = KernelSpec(family, sigma)
    assert kernel_eval(k, [0.0, 1.0], [0.0, 1.0]).tolist() == [1.0, 1.0]
    assert np.isfinite(sampled_mmd(k, [0.0, 1.0], [0.5, 2.0]))
    for name in SCENARIOS:
        curve = run_scenario(MmdScenario(name, 20, 1), [k])[0]
        assert np.all(np.isfinite(curve.mean)), name


def test_argmin_of_a_non_finite_curve_raises():
    curve = SweepCurve(KernelSpec("gaussian", 1.0), np.array([0.0, 1.0, 2.0]),
                       np.array([np.nan, 1.0, 0.5]), np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        curve.argmin_x()


_NO_PAIRS = np.empty((0, 0), dtype=np.float32)


def _laplacian_cases():
    rng = np.random.default_rng(36)
    a = rng.normal(size=50)
    wide = rng.uniform(-1e3, 1e3, size=60)
    cluster = 1e3 - rng.exponential(1e-3, size=40)
    return {
        "ties": (np.round(rng.normal(size=60), 1), np.round(rng.normal(size=40), 1)),
        "duplicates": (a, np.repeat(a[:10], 5)),
        "n=2": (np.array([0.3, -1.2]), np.array([0.5, 0.5])),
        "a_below_b": (rng.normal(size=30) - 4.0, rng.normal(size=30) + 4.0),
        "a_above_b": (rng.normal(size=30) + 4.0, rng.normal(size=30) - 4.0),
        "wide": (wide, np.concatenate([wide[:20], rng.uniform(-1e3, 1e3, size=30)])),
        "wide_clusters": (np.concatenate([-cluster, cluster]),
                          np.concatenate([cluster[::-1], -cluster])),
    }


@pytest.mark.parametrize("sigma", [1e-3, 0.1, 10.0, 1e3])
@pytest.mark.parametrize("case", list(_laplacian_cases()))
def test_sorted_laplacian_mean_matches_brute_force(case, sigma):
    # a/s and b/s are rounded before the exponent subtracts them, so the
    # relative error scales with eps * max|x| / s: every case reads below 4e-13
    # except the clusters at +-1e3 under s = 1e-3 (8.5e-11, 0.38 eps * 1e6)
    a, b = _laplacian_cases()[case]
    k = KernelSpec("laplacian", sigma)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _kernel_means([k], a, b, _NO_PAIRS, _NO_PAIRS)[0]
    want = float64_pair_mean(k, a, b)
    scale = max(np.abs(a).max(), np.abs(b).max()) / sigma
    assert np.isfinite(got)
    assert abs(got - want) <= max(1e-12, 16 * np.finfo(float).eps * scale) * want


@pytest.mark.parametrize("sigma", [1e-3, 0.1, 10.0, 1e3])
def test_laplacian_mean_of_each_row(sigma):
    # the scale sweep splits the draws of every point into one sorted
    # behaviour sample at once: each row must read as its own 1-d call, bit
    # for bit, and as the brute force within the bound above
    k = KernelSpec("laplacian", sigma)
    for case, (a, b) in _laplacian_cases().items():
        span = b.max() - b.min()
        # the case's own a, then b's own values repeated to a's length (every
        # one a tie), rows at b's ends and rows wholly below and above b
        rows = np.stack([a, np.resize(b, a.size),
                         np.full(a.size, b.min()), np.full(a.size, b.max()),
                         a - a.max() + b.min() - 0.5 * span,
                         a - a.min() + b.max() + 0.5 * span])
        b_sorted = np.sort(b)
        split = np.searchsorted(b_sorted, rows, side="right")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _laplacian_mean(sigma, rows, b_sorted, split)
            alone = [_laplacian_mean(sigma, row, b_sorted, s) for row, s in zip(rows, split)]
        assert got.shape == (rows.shape[0],)
        assert np.array_equal(got, alone), case
        for row, value in zip(rows, got):
            want = float64_pair_mean(k, row, b)
            scale = max(np.abs(row).max(), np.abs(b).max()) / sigma
            assert abs(value - want) <= max(1e-12, 16 * np.finfo(float).eps * scale) * want, case


def test_gaussian_pair_mean_below_the_exp_floor():
    # every pair is >= 5 apart, so every argument is <= -1250 and floored at -87
    a = 10.0 * np.arange(20)
    k = KernelSpec("gaussian", 0.1)
    work, sq = np.empty((2, 20, 20), dtype=np.float32)
    got = _kernel_means([k], a, a + 5.0, work, sq)[0]
    assert abs(got - float64_pair_mean(k, a, a + 5.0)) <= 1e-36
    # every kernel value reads exp(-87) = 1.65e-38 (float32 row sums round it)
    assert got == pytest.approx(float(np.exp(np.float32(-87.0))), rel=1e-6, abs=0.0)


def test_sampled_mmd_identical_sets_zero():
    rng = np.random.default_rng(31)
    x = rng.normal(size=200)
    for spec in (KernelSpec("gaussian", 1.0), KernelSpec("laplacian", 0.5)):
        assert abs(sampled_mmd(spec, x, x)) < 1e-12


def test_sampled_mmd_symmetric_in_arguments():
    rng = np.random.default_rng(32)
    p = rng.normal(size=150)
    q = rng.normal(loc=0.5, size=150)
    spec = KernelSpec("gaussian", 1.0)
    assert sampled_mmd(spec, p, q) == pytest.approx(sampled_mmd(spec, q, p), rel=1e-12)


def test_sampled_mmd_far_separated_modes():
    # Cross term vanishes, so the estimate approaches the two self terms.
    rng = np.random.default_rng(33)
    p = rng.normal(0.0, 1.0, size=500)
    q = rng.normal(10.0, 1.0, size=500)
    spec = KernelSpec("gaussian", 1.0)
    got = sampled_mmd(spec, p, q)
    self_terms = (
        np.exp(-((p[:, None] - p[None, :]) ** 2) / 2).mean()
        + np.exp(-((q[:, None] - q[None, :]) ** 2) / 2).mean()
    )
    assert got == pytest.approx(self_terms, abs=1e-6)


def test_sampled_mmd_null_concentration():
    rng = np.random.default_rng(34)
    p = rng.standard_normal(10_000)
    q = rng.standard_normal(10_000)
    assert sampled_mmd(KernelSpec("gaussian", 1.0), p, q) < 0.01


def test_sampled_mmd_needs_two_points():
    with pytest.raises(ValueError):
        sampled_mmd(KernelSpec("gaussian", 1.0), [1.0], [1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampled_mmd_rejects_non_finite_samples(bad):
    # a NaN sample used to return nan silently
    spec = KernelSpec("gaussian", 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        sampled_mmd(spec, [0.0, bad, 1.0], [0.5, 1.5])
    with pytest.raises(ValueError, match="non-finite"):
        sampled_mmd(spec, [0.5, 1.5], [0.0, 1.0, bad])


def _direct_curves(sc, kernels, seed):
    """``sampled_mmd`` at every point of a one-repeat sweep, on the sweep's draws."""
    rng = np.random.default_rng([seed, 0])
    behavior_draws = sc.behavior_sample(rng)
    base = rng.standard_normal(sc.n_samples)
    # the agent's draws: N(0, x) as x * base, N(x, 0.5) as x + 0.5 * base
    agents = [x * base if sc.agent_family == "scale" else x + 0.5 * base
              for x in sc.sweep.tolist()]
    return [[sampled_mmd(k, behavior_draws, agent) for agent in agents] for k in kernels]


def test_run_scenario_matches_direct_estimator():
    # one repeat, so each point of a curve is one (kernel, x, repeat) cell
    kernels = [KernelSpec("gaussian", 0.1), KernelSpec("laplacian", 1.0)]
    for name in ("scenario2-bimodal", "scenario1-scale"):
        sc = MmdScenario(name, n_samples=200, n_repeats=1)
        curves = run_scenario(sc, kernels, seed=3)
        for kern, curve, direct in zip(kernels, curves, _direct_curves(sc, kernels, 3)):
            assert np.max(np.abs(curve.mean - direct)) < 1e-5, (name, kern)


# the worst |curve - sampled_mmd| over the default kernels at 200 samples x 1
# repeat, seeds 0-4, rounded up to three digits: 5.7106e-6 in the scale family
# (tabulated Gaussian pq, its qq binned on 8192 bins spanning the differences
# with the self-differences at 0; 6.1602e-5 before that last fix), and 9.6998e-6
# in the shift family when it also binned on 8192 such bins (its aligned grid
# reads 7.12e-6)
DIRECT_ESTIMATOR_BOUNDS = {"scenario1-scale": 5.72e-6, "scenario2-bimodal": 9.7e-6}


@pytest.mark.parametrize("name", list(DIRECT_ESTIMATOR_BOUNDS))
def test_every_default_kernel_tracks_the_direct_estimator(name):
    sc = MmdScenario(name, n_samples=200, n_repeats=1)
    kernels = default_kernels()
    for seed in range(3):
        curves = run_scenario(sc, kernels, seed=seed)
        for curve, direct in zip(curves, _direct_curves(sc, kernels, seed)):
            error = np.max(np.abs(curve.mean - direct))
            assert error <= DIRECT_ESTIMATOR_BOUNDS[name], (seed, curve.kernel, error)


@pytest.mark.parametrize("factory", [scenario_matched_scale, scenario_bimodal_hole])
def test_aligned_histogram_keeps_every_value_on_the_sweeps_grid(factory):
    sweep = factory().sweep
    values = np.random.default_rng(37).uniform(-4.3, 4.7, size=5000)
    values[:2] = -4.3, 4.7  # the range's own ends stay inside it
    first, width, weights = _aligned_histogram(values, -4.3, 4.7, sweep)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert width == pytest.approx(0.1 / 256, rel=1e-12)
    # each bin centre lies a whole number of bins plus a half from each point
    centres = sweep[0] + (first + np.arange(weights.size) + 0.5) * width
    offsets = (centres[:, None] - sweep[None, :]) / width - 0.5
    assert np.max(np.abs(offsets - np.round(offsets))) < 1e-6
    # and every value is counted in the bin that contains it
    containing = np.floor((values - sweep[0]) / width) - first
    assert np.array_equal(np.bincount(containing.astype(int), minlength=weights.size) / values.size,
                          weights)


def _float32_pair_mean(k, a, b):
    """The sweep's pair-term arithmetic, written out.

    Gaussian: both samples rounded to float32 once, float32 exp arguments
    floored at -87, float32 kernel values and einsum row sums, a float64
    total. Laplacian: float64 log-space prefix sums of b/s and -b/s over the
    sorted b, read at each a's split.
    """
    if k.family == "laplacian":
        b_sorted = np.sort(b)
        split = np.searchsorted(b_sorted, a, side="right")
        t, u = a / k.sigma, b_sorted / k.sigma
        below = np.concatenate(([-np.inf], np.logaddexp.accumulate(u)))
        above = np.concatenate((np.logaddexp.accumulate(-u[::-1])[::-1], [-np.inf]))
        rows = np.exp(below[split] - t) + np.exp(t + above[split])
        return float(rows.sum()) / (a.size * b.size)
    d = a.astype(np.float32)[:, None] - b.astype(np.float32)[None, :]
    args = np.maximum(d ** 2 / np.float32(-(2.0 * k.sigma ** 2)), np.float32(-87.0))
    row_sums = np.einsum("ij->i", np.exp(args))
    assert row_sums.dtype == np.float32
    return float(row_sums.astype(np.float64).sum()) / d.size


def _float32_tabulated_pq(k, behavior, draws):
    """The sweep's tabulated Gaussian pq, written out; None for a Laplacian
    kernel, or where the table would need more rows than there are draws.

    Nodes sigma / 12 apart over the draws' span clipped to 9 sigma from the
    behaviour sample; at each node the float32 kernel values (arguments
    floored at -87) of every behaviour draw, and float64 totals of them and
    of their differences times them, for the density and its derivative.
    Each draw then reads the density by cubic Hermite interpolation on its
    cell, and a draw outside the nodes' span reads 0.
    """
    if k.family == "laplacian":
        return None
    step, reach = k.sigma / 12, 9 * k.sigma
    low = max(draws.min(), behavior.min() - reach)
    high = min(draws.max(), behavior.max() + reach)
    if low > high:
        return np.zeros(len(draws))
    cells = max(math.ceil((high - low) / step), 1)
    if cells + 1 > draws.size:
        return None
    nodes = low + step * np.arange(cells + 1)
    d = behavior.astype(np.float32)[None, :] - nodes.astype(np.float32)[:, None]
    kv = np.exp(np.maximum(d ** 2 / np.float32(-(2.0 * k.sigma ** 2)), np.float32(-87.0)))
    n = behavior.size
    density = np.einsum("ij->i", kv, dtype=np.float64) / n
    slope = np.einsum("ij,ij->i", d, kv, dtype=np.float64) / (n * k.sigma ** 2)
    values = np.zeros(draws.shape)
    for p, j in np.ndindex(draws.shape):
        y = float(draws[p, j])
        if low <= y <= high:
            c = min(int((y - low) / step), cells - 1)
            s = (y - low) / step - c
            s2 = s * s
            s3 = s2 * s
            values[p, j] = ((2.0 * s3 - 3.0 * s2 + 1.0) * density[c]
                            + (s3 - 2.0 * s2 + s) * step * slope[c]
                            + (3.0 * s2 - 2.0 * s3) * density[c + 1]
                            + (s3 - s2) * step * slope[c + 1])
    return values.mean(axis=1)


def test_kernel_formula_bit_equal_to_written_form():
    # the reference pair means (above, and the oracle's in tests/oracles.py)
    # rest on _kernel_of_diff; pin it to the formula as written, exp(-d^2 / (2 s^2))
    # and exp(-|d| / s), in float64 and in float32
    d = np.random.default_rng(35).normal(scale=3.0, size=(40, 50))
    for k in default_kernels():
        for dd in (d, d.astype(np.float32)):
            if k.family == "gaussian":
                written = np.exp(-(dd ** 2) / (2.0 * k.sigma ** 2))
            else:
                written = np.exp(-np.abs(dd) / k.sigma)
            got = _kernel_of_diff(k, dd)
            assert got.dtype == dd.dtype
            assert np.array_equal(got, written)


@pytest.mark.parametrize("factory", [scenario_matched_scale, scenario_bimodal_hole])
def test_run_scenario_bit_equal_to_reference_loop(factory):
    sc = factory(n_samples=37, n_repeats=2)
    kernels = default_kernels()
    curves = run_scenario(sc, kernels, seed=4)
    reference = mmd_reference_curves(sc, kernels, 4, pair_mean=_float32_pair_mean,
                                     pq_table=_float32_tabulated_pq)
    for curve, (mean, std) in zip(curves, reference):
        assert np.array_equal(curve.mean, mean)
        assert np.array_equal(curve.std, std)


@pytest.mark.parametrize("sigma", [0.1, 1.0, 3.0, 10.0])
def test_tabulated_pq_matches_exact_pair_means(sigma):
    # the Hermite error is at most 3.8e-7 of the kernel's peak
    behavior, base = np.random.default_rng(38).standard_normal((2, 200))
    draws = scenario_matched_scale().sweep[:, None] * base
    k = KernelSpec("gaussian", sigma)
    work, sq = np.empty((2, 200, 200), dtype=np.float32)
    got = _tabulated_pq(k, behavior, draws, work, sq)
    want = [float64_pair_mean(k, behavior, row) for row in draws]
    assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("shift", [-1e3, 1e3])
@pytest.mark.parametrize("sigma", [0.1, 10.0])
def test_tabulated_pq_beyond_the_reach_reads_zero(shift, sigma):
    behavior, base = np.random.default_rng(39).standard_normal((2, 50))
    draws = scenario_matched_scale().sweep[:, None] * base
    work, sq = np.empty((2, 50, 50), dtype=np.float32)
    got = _tabulated_pq(KernelSpec("gaussian", sigma), behavior + shift, draws, work, sq)
    assert got.shape == (draws.shape[0],)
    assert np.all(np.abs(got) <= 1e-30)


def test_default_kernels_read_every_gaussian_pq_from_a_table(monkeypatch):
    exact_pq, tables, laplacian_rows = [], [], []

    def kernel_means_spy(kernels, a, b, work, sq):
        if a is not b:
            exact_pq.extend(k.family for k in kernels)
        return kernel_means(kernels, a, b, work, sq)

    def tabulated_spy(k, behavior, draws, work, sq):
        table = tabulated(k, behavior, draws, work, sq)
        tables.append(table is not None)
        return table

    def laplacian_spy(sigma, a, b_sorted, split):
        laplacian_rows.append(a.shape)
        return laplacian_mean(sigma, a, b_sorted, split)

    kernel_means, tabulated, laplacian_mean = (
        mmd._kernel_means, mmd._tabulated_pq, mmd._laplacian_mean)
    monkeypatch.setattr(mmd, "_kernel_means", kernel_means_spy)
    monkeypatch.setattr(mmd, "_tabulated_pq", tabulated_spy)
    monkeypatch.setattr(mmd, "_laplacian_mean", laplacian_spy)
    sc = scenario_matched_scale(200, 2)
    run_scenario(sc, default_kernels(), seed=0)
    assert tables == [True] * 8  # four Gaussian kernels, two repeats
    assert exact_pq == []
    # per repeat, pp of each of the four Laplacian kernels, then each one's
    # pq at every sweep point from one call
    repeat = [(200,)] * 4 + [(sc.sweep.size, 200)] * 4
    assert laplacian_rows == repeat * 2


@pytest.mark.parametrize("sigma", [1e-3, 1.9e-23])
def test_a_narrow_gaussian_takes_the_exact_pq(sigma, monkeypatch):
    # the table would need more rows than the sweep has draws
    tables = []

    def tabulated_spy(*args):
        tables.append(tabulated(*args))
        return tables[-1]

    tabulated = mmd._tabulated_pq
    monkeypatch.setattr(mmd, "_tabulated_pq", tabulated_spy)
    sc, kernels = scenario_matched_scale(20, 1), [KernelSpec("gaussian", sigma)]
    curve = run_scenario(sc, kernels, seed=2)[0]
    assert tables == [None]
    assert np.all(np.isfinite(curve.mean))
    if sigma == 1e-3:
        (mean, std), = mmd_reference_curves(sc, kernels, 2, pair_mean=_float32_pair_mean,
                                            pq_table=_float32_tabulated_pq)
        assert np.array_equal(curve.mean, mean)
        assert np.array_equal(curve.std, std)


@pytest.mark.parametrize("factory", [scenario_matched_scale, scenario_bimodal_hole])
def test_run_scenario_agrees_with_the_float64_oracle(factory):
    # float32 pair terms with float64 totals move no curve by more than 1e-6
    # and no kernel's minimum off the float64 one
    sc = factory(n_samples=200, n_repeats=2)
    kernels = default_kernels()
    for seed in range(5):
        curves = run_scenario(sc, kernels, seed=seed)
        for curve, (mean, _) in zip(curves, mmd_reference_curves(sc, kernels, seed)):
            assert np.max(np.abs(curve.mean - mean)) <= 1e-6, (seed, curve.kernel)
            assert curve.argmin_x() == float(sc.sweep[np.argmin(mean)]), (seed, curve.kernel)


@pytest.mark.parametrize("factory", [scenario_matched_scale, scenario_bimodal_hole])
def test_run_scenario_pair_buffers_are_float32(factory, monkeypatch):
    seen = []

    def spy(kernels, a, b, work, sq):
        seen.append([work.dtype, sq.dtype])
        return kernel_means(kernels, a, b, work, sq)

    kernel_means = mmd._kernel_means
    monkeypatch.setattr(mmd, "_kernel_means", spy)
    run_scenario(factory(n_samples=20, n_repeats=1), default_kernels(), seed=0)
    assert seen
    assert all(dtype == np.float32 for dtypes in seen for dtype in dtypes)


def test_run_scenario_reproducible_bit_for_bit():
    sc = scenario_matched_scale(n_samples=100, n_repeats=3)
    kerns = [KernelSpec("gaussian", 1.0), KernelSpec("laplacian", 3.0)]
    a = run_scenario(sc, kerns, seed=9)
    b = run_scenario(sc, kerns, seed=9)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.mean, cb.mean)
        assert np.array_equal(ca.std, cb.std)


def test_run_scenario_kernel_curves_independent_of_list():
    # a kernel's curve only depends on (seed, scenario, kernel)
    for factory in (scenario_matched_scale, scenario_bimodal_hole):
        sc = factory(n_samples=100, n_repeats=2)
        solo = run_scenario(sc, [KernelSpec("gaussian", 3.0)], seed=5)[0]
        joint = run_scenario(sc, default_kernels(), seed=5)
        match = [c for c in joint if c.kernel == KernelSpec("gaussian", 3.0)][0]
        assert np.array_equal(solo.mean, match.mean)
        assert np.array_equal(solo.std, match.std)


def test_scenario_small_scale_minima():
    # cheap version of the study: matched scale is preferred by every kernel
    sc = scenario_matched_scale(n_samples=200, n_repeats=5)
    curves = run_scenario(sc, [KernelSpec("gaussian", 1.0), KernelSpec("laplacian", 1.0)], seed=1)
    for c in curves:
        assert 0.8 <= c.argmin_x() <= 1.2


def test_scenario_bimodal_small_scale_hole():
    sc = scenario_bimodal_hole(n_samples=200, n_repeats=5)
    curve = run_scenario(sc, [KernelSpec("gaussian", 3.0)], seed=1)[0]
    assert abs(curve.argmin_x()) <= 0.2


def test_csv_output(tmp_path):
    sc = scenario_bimodal_hole(n_samples=50, n_repeats=2)
    kerns = [KernelSpec("gaussian", 1.0)]
    curves = run_scenario(sc, kerns, seed=0)
    csv_path = tmp_path / "curves.csv"
    write_curves_csv(csv_path, sc, curves)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scenario,kernel,sigma,x,mean,std"
    assert len(lines) == 1 + len(sc.sweep)


def test_scenario_validation():
    with pytest.raises(ValueError, match="unknown scenario 'scenario3'"):
        MmdScenario("scenario3", n_samples=10)
    with pytest.raises(ValueError, match="n_samples"):
        MmdScenario("scenario1-scale", n_samples=1)


def test_a_scenario_is_its_name_and_its_sizes():
    # the two grids, as the study has always swept them
    grids = {"scenario1-scale": np.round(np.arange(0.1, 3.0 + 1e-9, 0.1), 10),
             "scenario2-bimodal": np.round(np.arange(-3.0, 3.0 + 1e-9, 0.1), 10)}
    for factory, behavior, family in (
            (scenario_matched_scale, "std_normal", "scale"),
            (scenario_bimodal_hole, "uniform_bimodal", "shift")):
        sc = factory(50, 3)
        assert (sc.n_samples, sc.n_repeats) == (50, 3)
        assert (sc.behavior, sc.agent_family) == (behavior, family)
        assert sc.sweep.dtype == np.float64
        assert np.array_equal(sc.sweep, grids[sc.name])


def test_scenarios_are_equal_when_their_names_and_sizes_are():
    # the sweep array made == raise ValueError
    assert scenario_matched_scale(50, 3) == scenario_matched_scale(50, 3)
    assert scenario_matched_scale(50, 3) != scenario_bimodal_hole(50, 3)
    assert scenario_matched_scale(50, 3) != scenario_matched_scale(60, 3)
    assert scenario_matched_scale(50, 3) != scenario_matched_scale(50, 4)


@pytest.mark.parametrize("bad", [
    {"n_repeats": 0},  # all-NaN curves, argmin silently at the first point
    {"name": "scenario1-scael"},
])
def test_scenario_rejects_what_run_scenario_cannot_run(bad):
    fields = dict(name="scenario1-scale", n_samples=10, n_repeats=2)
    with pytest.raises(ValueError):
        MmdScenario(**{**fields, **bad})


@pytest.mark.parametrize("field_name, value", [
    ("n_samples", 2.5),  # constructed, then np.empty raised TypeError in run_scenario
    ("n_repeats", 1.5),
    ("n_samples", 10.0),
    ("n_samples", True),
    ("n_repeats", True),
    ("n_repeats", "2"),
])
def test_scenario_rejects_non_integer_counts(field_name, value):
    fields = dict(name="scenario1-scale", n_samples=10, n_repeats=2)
    with pytest.raises(ValueError, match=field_name):
        MmdScenario(**{**fields, field_name: value})


def test_scenario_accepts_numpy_integer_counts():
    sc = MmdScenario("scenario1-scale", n_samples=np.int64(10), n_repeats=np.int32(2))
    assert len(run_scenario(sc, [KernelSpec("gaussian", 1.0)], seed=0)[0].mean) == 30
