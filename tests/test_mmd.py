import numpy as np
import pytest

from plas.mmd import (
    KernelSpec,
    MmdScenario,
    _diff_histogram,
    _kernel_of_diff,
    default_kernels,
    kernel_eval,
    run_scenario,
    sampled_mmd,
    scenario_bimodal_hole,
    scenario_matched_scale,
    write_curves_csv,
)


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


def test_run_scenario_matches_direct_estimator():
    # one repeat, so each point of a curve is one (kernel, x, repeat) cell
    kernels = [KernelSpec("gaussian", 0.1), KernelSpec("laplacian", 1.0)]
    for behavior, family, sweep in (("uniform_bimodal", "shift", [-0.7, 0.3]),
                                    ("std_normal", "scale", [0.5, 1.3])):
        sc = MmdScenario("t", behavior, family, sweep=np.array(sweep),
                         n_samples=200, n_repeats=1)
        curves = run_scenario(sc, kernels, seed=3)
        rng = np.random.default_rng([3, 0])
        behavior_draws = sc.behavior_sample(rng)
        base = rng.standard_normal(200)
        for kern, curve in zip(kernels, curves):
            # the agent's draws: N(0, x) as x * base, N(x, 0.5) as x + 0.5 * base
            direct = [sampled_mmd(kern, behavior_draws,
                                  x * base if family == "scale" else x + 0.5 * base)
                      for x in sc.sweep.tolist()]
            assert np.max(np.abs(curve.mean - direct)) < 1e-5, (family, kern)


def _reference_curves(sc, kernels, seed):
    """The per-(kernel, point) loop of the earlier sweep: one fresh n x n
    difference array, and fresh kernel temporaries, for every cell."""
    values = np.empty((len(kernels), sc.n_repeats, sc.sweep.size))
    for r in range(sc.n_repeats):
        rng = np.random.default_rng([seed, r])
        behavior = sc.behavior_sample(rng)
        base = rng.standard_normal(sc.n_samples)
        d_pp = behavior[:, None] - behavior[None, :]
        d_bb = base[:, None] - base[None, :]
        if sc.agent_family == "scale":
            qq_centers, qq_weights = _diff_histogram(np.abs(d_bb).ravel())
        else:
            pq_centers, pq_weights = _diff_histogram(
                (behavior[:, None] - 0.5 * base[None, :]).ravel()
            )
        for ki, k in enumerate(kernels):
            pp = float(_kernel_of_diff(k, d_pp).mean())
            if sc.agent_family == "shift":
                qq_const = float(_kernel_of_diff(k, 0.5 * d_bb).mean())
            for xi, x in enumerate(sc.sweep):
                x = float(x)
                if sc.agent_family == "scale":
                    d_pq = behavior[:, None] - x * base[None, :]
                    pq = float(_kernel_of_diff(k, d_pq).mean())
                    qq = float(qq_weights @ _kernel_of_diff(k, abs(x) * qq_centers))
                else:
                    pq = float(pq_weights @ _kernel_of_diff(k, pq_centers - x))
                    qq = qq_const
                values[ki, r, xi] = pp - 2.0 * pq + qq
    return [(values[ki].mean(axis=0), values[ki].std(axis=0)) for ki in range(len(kernels))]


def test_kernel_formula_bit_equal_to_written_form():
    # the reference loop above rests on _kernel_of_diff; pin it to the
    # formula as written, exp(-d^2 / (2 s^2)) and exp(-|d| / s)
    d = np.random.default_rng(35).normal(scale=3.0, size=(40, 50))
    for k in default_kernels():
        if k.family == "gaussian":
            written = np.exp(-(d ** 2) / (2.0 * k.sigma ** 2))
        else:
            written = np.exp(-np.abs(d) / k.sigma)
        assert np.array_equal(_kernel_of_diff(k, d), written)


@pytest.mark.parametrize("factory", [scenario_matched_scale, scenario_bimodal_hole])
def test_run_scenario_bit_equal_to_reference_loop(factory):
    sc = factory(n_samples=37, n_repeats=2)
    kernels = default_kernels()
    curves = run_scenario(sc, kernels, seed=4)
    for curve, (mean, std) in zip(curves, _reference_curves(sc, kernels, seed=4)):
        assert np.array_equal(curve.mean, mean)
        assert np.array_equal(curve.std, std)


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
    with pytest.raises(ValueError):
        MmdScenario("t", "std_normal", "scale", sweep=np.array([]), n_samples=10)
    with pytest.raises(ValueError):
        MmdScenario("t", "std_normal", "scale", sweep=np.array([1.0]), n_samples=1)


@pytest.mark.parametrize("bad", [
    {"n_repeats": 0},  # all-NaN curves, argmin silently at the first point
    {"agent_family": "scael"},  # ran as the shift family, then crashed
    {"behavior": "std_normall"},  # failed only inside run_scenario
    {"sweep": np.array([[0.5, 1.0], [1.5, 2.0]])},  # TypeError inside the loop
    {"sweep": np.array([0.5, np.nan])},
])
def test_scenario_rejects_what_run_scenario_cannot_run(bad):
    fields = dict(name="t", behavior="std_normal", agent_family="scale",
                  sweep=np.array([0.5, 1.0]), n_samples=10, n_repeats=2)
    with pytest.raises(ValueError):
        MmdScenario(**{**fields, **bad})
