"""Sampled-MMD simulation study: how kernel two-sample losses behave as
policy constraints.

Two scenarios, both one-dimensional:

1. behavior N(0, 1) versus agent N(0, x) with the scale x swept over 0.1,
   0.2, ..., 3.0: the loss minimum should sit near the matched scale x = 1.
2. behavior uniform on [-2, -1] union [1, 2] versus agent N(x, 0.5) with the
   mean x swept over -3.0, -2.9, ..., 3.0: a constraint which respected the
   support would prefer the modes at +/-1.5; with wide kernels the loss is
   instead minimized in the hole between them.

A scenario is its name and its sizes (samples per side, repeats): the name
fixes the behaviour sampler, the agent family and the sweep grid.

Estimates use the biased V-statistic (the plotted losses are then
non-negative). Within one repeat, every sweep point reuses the same base
draws — scenario 1 scales one fixed standard-normal sample, scenario 2 shifts
it — so a sweep traces a smooth curve whose shape is the signal rather than
per-point sampling noise. Each repeat redraws everything.

A sweep evaluates every kernel on the same pairs. Each exact n x n Gaussian
term builds its float32 squared differences once, in a buffer that
``run_scenario`` allocates once per call; each Gaussian kernel then only
divides, exponentiates and sums rows, in place, inside a second such buffer.
The Laplacian terms need no n x n array. With b sorted, a row sum splits at
a_i into exp(-a_i/s) * sum_{b_j <= a_i} exp(b_j/s) plus
exp(a_i/s) * sum_{b_j > a_i} exp(-b_j/s), and both sums are read from float64
log-space prefix sums over the sorted b (``_laplacian_mean``): O(n log n) per
term, and no exponent exceeds log n, so no sigma > 0 overflows. The pair mean
is symmetric, so the pq terms take the behaviour sample as b: it is sorted
once per repeat, the agent draws of all sweep points and the behaviour sample
itself are split into it by one search, and every point's pq, and pp, are
read from each kernel's one pair of prefix sums. The kernel formula is written
once, as a family distance (``_distance``) over a signed divisor
(``_divisor``); it serves ``kernel_eval``, the binned terms and the Gaussian
pair terms, and the Laplacian pair terms regroup the same exponent.

Both families take their pq terms by that one rule: the Gaussian pq term at x
is the mean over the agent draws (x * base_j or x + base_j / 2) of the
behaviour sample's density K(y) = mean_i k(b_i - y). Each Gaussian kernel
tabulates K and its derivative once per repeat, on nodes s / 12 apart over
the draws of the whole sweep (clipped to 9 s from the behaviour sample), and
turns each cell between two nodes into the coefficients of its cubic Hermite
interpolant; every point then reads each of its draws as one cubic in the
draw's position along its cell, in Horner form (``_tabulated_pq``): one
(nodes x n) evaluation per kernel and repeat rather than an n x n one per
kernel, point and repeat. A kernel whose table would
need more nodes than the sweep has draws (a narrow s, such as 1e-3 on 20
samples) takes the exact pair means at every point instead: the only pq term
still evaluated point by point.

The scale family's qq differences are x times |base_i - base_j|, so they are
binned once per repeat, as weights at the centres of 8192 bins spanning
them, except the n self-differences, which are exactly 0 and weighted at a
centre of 0. The sweep's points are evenly spaced, x_m = x_0 + m h, so each
kernel's values at x times the centres step from one point to the next by
multiplication (``_scale_qq``): two exps per kernel and repeat (Laplacian) or
three (Gaussian) over the centres, then one product per value and point
(two for a Gaussian, whose ratio itself steps). The shift family's qq does
not move with x.

Precision: every pq term is tabulated or exact, and only the scale family's
qq is binned. The exact Gaussian pair terms (pp, the shift family's qq and a
narrow kernel's pq) run in float32. The samples are rounded to float32 once
per term, and the differences, squares, divides and exps stay float32. Where a
term's largest distance over the divisor falls below -87, the exp arguments
are floored at -87, so a kernel value below 1.65e-38 reads 1.65e-38: float32
exp takes a slow path for subnormal results, over 10x the time of an ordinary
one. Each term's total is float64: float32 row sums (``np.einsum``) of at most
n kernel values, then a float64 sum of the n row sums, divided by n^2. A pure
float32 total would lose digits to cancellation in pp - 2 pq + qq. The
tabulated pq terms take float32 kernel values by the same rule, float64 node
totals and a float64 interpolation, whose error is at most 3 / (384 * 12^4) =
3.8e-7 of a kernel's peak of 1. The Laplacian pair terms are float64
throughout; since a/s and b/s are rounded before the exponent subtracts them,
their relative error is of order eps * max|x| / s (3e-14 at |x| = 13.5 and
s = 0.1). The binned terms, ``kernel_eval`` and ``sampled_mmd`` stay float64,
and ``sampled_mmd`` is the oracle. A stepped qq value carries the
roundings of its products and of its ratio: a Laplacian value about two per
step, 16 ulp at most at the 30th point where it is above 0.01 on a dense grid
of centres; a Gaussian ratio is itself a product of steps, so its rounding
reaches the value about m^2 / 2 times, 159 ulp at most at the 30th point. In
absolute terms the worst read 3.4e-14 (Gaussian) and 1.9e-15 (Laplacian),
and a qq term, a mean of such values, moves no more than its worst value;
over seeds 0-4 at 200 x 4 and 500 x 2, no curve moved more than 4.0e-15 from
a sweep that takes one exp per value and point and reads its tables through
the four Hermite basis polynomials. Each curve reads the same bits at one and
two BLAS threads. The tests hold every curve's mean within 1e-6 of a float64
evaluation of the same sweep with exact pair terms, with the same argmin; over
seeds 0-4 at 500 x 2, 200 x 4, 200 x 2, 37 x 2 and 20 x 1 samples x repeats,
the largest difference read 6.3e-7 (scale family) and 5.0e-7 (shift family),
and no argmin moved. The scale family's binning moves its curves further:
against ``sampled_mmd`` at 200 samples x 1 repeat, over the default kernels
and seeds 0-4, the worst difference read 5.7e-6 in the scale family and
4.0e-7 in the shift family.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nets import COUNT, _check_settings, _count, _real

KERNEL_FAMILIES = ("gaussian", "laplacian")
# each scenario's behaviour sampler, agent family and sweep grid (low, high),
# _SWEEP_STEP apart, by name
_SWEEP_STEP = 0.1
SCENARIOS = {
    "scenario1-scale": ("std_normal", "scale", (0.1, 3.0)),
    "scenario2-bimodal": ("uniform_bimodal", "shift", (-3.0, 3.0)),
}

_F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
_F32_MAX = float(np.finfo(np.float32).max)
# sigmas whose float32 divisor, -2 s^2 or -s, is finite and nonzero: its magnitude
# must round to at least the smallest subnormal and at most the largest float32
_SIGMA_RANGE = {
    "gaussian": (math.sqrt(_F32_TINY / 4), math.sqrt(_F32_MAX / 2)),
    "laplacian": (_F32_TINY / 2, _F32_MAX),
}
# the smallest float32 exp argument whose result is normal, rounded up: exp(-87) = 1.65e-38
_EXP_FLOOR = np.float32(-87.0)


@dataclass(frozen=True)
class KernelSpec:
    family: str
    sigma: float

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (_real(self.sigma) and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a finite real number, got {self.sigma!r}")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")
        # the sweep divides by the float32 divisor: 0 gives NaN at d = 0, inf a constant 1;
        # sigma <= high also keeps sigma ** 2 from overflowing
        low, high = _SIGMA_RANGE[self.family]
        with np.errstate(over="ignore", under="ignore"):
            if not (self.sigma <= high and 0 < abs(np.float32(_divisor(self))) < np.inf):
                raise ValueError(
                    f"{self.family} sigma {self.sigma:g} must lie in [{low:.3g}, {high:.3g}], "
                    "where its float32 divisor is finite and nonzero"
                )

    @property
    def label(self) -> str:
        return f"{self.family}-{self.sigma:g}"


def kernel_eval(spec: KernelSpec, x, y) -> np.ndarray:
    """Pointwise kernel value; gaussian exp(-d^2/(2 s^2)), laplacian exp(-|d|/s)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite kernel inputs")
    return _kernel_of_diff(spec, x - y)


def _distance(family: str, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The family's distance of differences d: gaussian d^2, laplacian |d|."""
    return np.square(d, out=out) if family == "gaussian" else np.abs(d, out=out)


def _divisor(spec: KernelSpec) -> float:
    """A kernel value is exp(distance / divisor): gaussian -(2 s^2), laplacian -s.

    Folding the minus sign into the divisor is exact in IEEE arithmetic:
    -(d^2) / (2 s^2) == d^2 / -(2 s^2) and -|d| / s == |d| / -s, bit for bit.
    """
    return -(2.0 * spec.sigma ** 2) if spec.family == "gaussian" else -spec.sigma


def _kernel_of_diff(spec: KernelSpec, d: np.ndarray) -> np.ndarray:
    """The one kernel formula, applied to differences d = x - y."""
    return np.exp(_distance(spec.family, d) / _divisor(spec))


def _kernel_matrix_mean(spec: KernelSpec, a: np.ndarray, b: np.ndarray,
                        row_block: int = 2048) -> float:
    # blocked over rows so 1e4-sample estimates stay within memory
    total = 0.0
    for lo in range(0, a.size, row_block):
        d = a[lo:lo + row_block, None] - b[None, :]
        total += float(_kernel_of_diff(spec, d).sum())
    return total / (a.size * b.size)


def sampled_mmd(spec: KernelSpec, samples_p, samples_q) -> float:
    """Biased (V-statistic) squared-MMD estimate between two 1-d samples."""
    p = np.asarray(samples_p, dtype=np.float64).ravel()
    q = np.asarray(samples_q, dtype=np.float64).ravel()
    if p.size < 2 or q.size < 2:
        raise ValueError("need at least 2 samples on each side")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("non-finite samples")
    return (
        _kernel_matrix_mean(spec, p, p)
        - 2.0 * _kernel_matrix_mean(spec, p, q)
        + _kernel_matrix_mean(spec, q, q)
    )


def default_kernels() -> list[KernelSpec]:
    sigmas = (0.1, 1.0, 3.0, 10.0)
    return [KernelSpec(f, s) for f in KERNEL_FAMILIES for s in sigmas]


@dataclass
class MmdScenario:
    """One sweep: a name of ``SCENARIOS`` and its sizes. The name sets
    ``behavior`` ("std_normal" or "uniform_bimodal"), ``agent_family``
    ("scale", N(0, x), or "shift", N(x, 0.5)) and ``sweep``, the grid of x."""

    name: str
    n_samples: int = 1000
    n_repeats: int = 20
    # set by the name, so equality compares the name and the sizes only
    behavior: str = field(init=False, compare=False)
    agent_family: str = field(init=False, compare=False)
    sweep: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.name!r}; the scenarios are "
                             f"{', '.join(SCENARIOS)}")
        self.behavior, self.agent_family, (low, high) = SCENARIOS[self.name]
        self.sweep = np.round(np.arange(low, high + 1e-9, _SWEEP_STEP), 10)
        _check_settings(self, [
            ("n_samples", _count(self.n_samples) and self.n_samples >= 2, "an integer >= 2"),
            ("n_repeats", _count(self.n_repeats), COUNT)])

    def behavior_sample(self, rng: np.random.Generator) -> np.ndarray:
        if self.behavior == "std_normal":
            return rng.standard_normal(self.n_samples)
        u = rng.uniform(1.0, 2.0, size=self.n_samples)
        signs = rng.choice([-1.0, 1.0], size=self.n_samples)
        return u * signs


def scenario_matched_scale(n_samples: int = 1000, n_repeats: int = 20) -> MmdScenario:
    return MmdScenario("scenario1-scale", n_samples, n_repeats)


def scenario_bimodal_hole(n_samples: int = 1000, n_repeats: int = 20) -> MmdScenario:
    return MmdScenario("scenario2-bimodal", n_samples, n_repeats)


@dataclass
class SweepCurve:
    kernel: KernelSpec
    xs: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def argmin_x(self) -> float:
        if not np.all(np.isfinite(self.mean)):
            raise ValueError(f"{self.kernel.label} curve has non-finite means, so no argmin")
        return float(self.xs[int(np.argmin(self.mean))])


_HIST_BINS = 8192
# the Gaussian pq table (see _tabulated_pq): nodes sigma / 12 apart, out to
# 9 sigma from the behaviour sample
_GRID_PER_SIGMA = 12
_REACH_SIGMAS = 9


def _diff_histogram(values: np.ndarray, zeros: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-grid weighted histogram of the absolute pairwise differences of a
    sample, ``zeros`` of which are its self-differences (i = j), exactly 0.

    Collapsing the n^2 differences to bin centers turns every sweep point into
    an O(bins) kernel evaluation. The self-differences are taken out of the
    first bin and weighted at a centre of exactly 0, where every kernel reads
    1; at that bin's centre instead, the Laplacian s = 0.1 kernel misread them
    by up to 6e-5. The other differences' midpoint error is
    O(bin_width^2 / sigma^2) weighted mass: against ``sampled_mmd`` at 200
    samples x 1 repeat, seeds 0-4, the scale family's worst error over the
    default kernels reads 5.7e-6.
    """
    counts, edges = np.histogram(values, bins=_HIST_BINS)
    counts[0] -= zeros
    centers = np.concatenate(([0.0], 0.5 * (edges[:-1] + edges[1:])))
    counts = np.concatenate(([zeros], counts))
    mask = counts > 0
    return centers[mask], counts[mask] / values.size


def _scale_qq(kernels: list[KernelSpec], xs: np.ndarray, centers: np.ndarray,
              weights: np.ndarray) -> np.ndarray:
    """The scale family's qq term of every kernel at every sweep point x:
    ``weights @ k(x * centers)``, one row per kernel.

    ``xs`` is the scale sweep, x_m = x_0 + m * h with x_0 > 0 and h =
    _SWEEP_STEP, so each kernel's values step from one point to the next by
    multiplication, with u = distance(centers) / divisor: a Laplacian's
    exp(x_m u) is exp(x_{m-1} u) * Q with Q = exp(h u), and a Gaussian's
    exp(x_m^2 u) is exp(x_{m-1}^2 u) * R_m with R_1 = exp((2 x_0 h + h^2) u)
    and R_{m+1} = R_m * exp(2 h^2 u). A family's kernels step together as one
    (kernels x centres) array, from two exps (Laplacian) or three (Gaussian)
    per kernel, not one per kernel, point and centre. Each point's total is
    one float64 dot per kernel, not a matrix product over the points, which
    keeps the curves' bits the same at one and two BLAS threads.
    """
    qq = np.empty((len(kernels), xs.size))
    x0, h = float(xs[0]), _SWEEP_STEP
    for family in KERNEL_FAMILIES:
        rows = [ki for ki, k in enumerate(kernels) if k.family == family]
        if not rows:
            continue
        divisors = np.array([_divisor(kernels[ki]) for ki in rows])
        u = _distance(family, centers) / divisors[:, None]
        if family == "gaussian":
            values, ratio, ratio_step = (np.exp(x0 * x0 * u), np.exp((2.0 * x0 * h + h * h) * u),
                                         np.exp(2.0 * h * h * u))
        else:
            values, ratio, ratio_step = np.exp(x0 * u), np.exp(h * u), None
        for xi in range(xs.size):
            if xi:
                values *= ratio
                if ratio_step is not None:
                    ratio *= ratio_step
            qq[rows, xi] = [weights @ row for row in values]
    return qq


def _laplacian_mean(sigma: float, a: np.ndarray, b_sorted: np.ndarray,
                    split: np.ndarray) -> float | np.ndarray:
    """Mean of exp(-|a_i - b_j| / sigma) over all pairs (a_i, b_j) of each row
    of ``a``, with no n x n array: a float for a 1-d ``a``, one mean per row
    for a (points, n) one.

    ``b_sorted`` is b in ascending order and ``split`` counts, for each a_i,
    the b_j <= a_i. Below the split a pair is exp(b_j/s - a_i/s), above it
    exp(a_i/s - b_j/s), so each a_i's sum over b is two terms over float64
    log-space prefix sums of b/s (from the left) and -b/s (from the right),
    taken once for every row. An empty side reads log 0 = -inf, and no
    exponent exceeds log n. Each row's total is the same sum as a 1-d call on
    that row, bit for bit.
    """
    t = a / sigma
    u = b_sorted / sigma
    below = np.concatenate(([-np.inf], np.logaddexp.accumulate(u)))
    above = np.concatenate((np.logaddexp.accumulate(-u[::-1])[::-1], [-np.inf]))
    sums = np.exp(below[split] - t) + np.exp(t + above[split])
    return sums.sum(axis=-1) / (a.shape[-1] * b_sorted.size)


def _gaussian_values(k: KernelSpec, sq: np.ndarray, farthest: np.float32,
                     out: np.ndarray) -> np.ndarray:
    """Gaussian kernel k at the float32 squared differences ``sq``, whose
    largest is ``farthest``, written into ``out`` (which may be ``sq``).

    The arguments sq / divisor are floored at ``_EXP_FLOOR`` when the largest
    would fall below it. At the smallest sigmas the float32 quotient overflows
    to -inf, which the floor absorbs, so that overflow is silenced and the
    floor is tested in float64.
    """
    divisor = np.float32(_divisor(k))
    with np.errstate(over="ignore"):
        np.divide(sq, divisor, out=out)
    if farthest / np.float64(divisor) < _EXP_FLOOR:
        np.maximum(out, _EXP_FLOOR, out=out)
    return np.exp(out, out=out)


def _tabulated_pq(k: KernelSpec, behavior: np.ndarray, draws: np.ndarray,
                  work: np.ndarray, sq: np.ndarray) -> np.ndarray | None:
    """Mean of the Gaussian kernel k over the pairs (behavior_i, draws[p, j]),
    for each row p of ``draws``, read from a table of the behaviour sample's
    density; None when the table would need more nodes than ``draws`` has
    values, and the caller then takes the exact pair means.

    The density K(y) = mean_i k(b_i - y) and its derivative
    K'(y) = mean_i (b_i - y) / s^2 * k(b_i - y) are tabulated at a spacing of
    s / _GRID_PER_SIGMA, over the span of the draws clipped to within
    _REACH_SIGMAS * s of the behaviour sample, and each cell's cubic Hermite
    interpolant is turned into four coefficients once; each draw then reads K
    as that cubic in its position along its cell, in Horner form. Its error
    is at most max|k''''| h^4 / 384 = 3 / (384 * 12^4) = 3.8e-7 of the
    kernel's peak of 1. A draw outside the table reads 0: each of its pairs
    is at most exp(-9^2 / 2) = 2.6e-18.

    The nodes go through ``work`` and ``sq`` in blocks of n: the float32
    differences b - y into ``work``, the kernel values into ``sq``
    (``_gaussian_values``), and float64 totals over b. Only arrays the size
    of ``draws`` and of the table are allocated.
    """
    step = k.sigma / _GRID_PER_SIGMA
    reach = _REACH_SIGMAS * k.sigma
    low = max(draws.min(), behavior.min() - reach)
    high = min(draws.max(), behavior.max() + reach)
    if low > high:
        return np.zeros(draws.shape[0])
    cells = max(math.ceil((high - low) / step), 1)
    if cells + 1 > draws.size:
        return None
    nodes = low + step * np.arange(cells + 1)
    n = behavior.size
    b32 = behavior.astype(np.float32)
    density, slope = np.empty((2, nodes.size))
    for start in range(0, nodes.size, n):
        y32 = nodes[start:start + n].astype(np.float32)
        d = np.subtract(b32[None, :], y32[:, None], out=work[:y32.size])
        kv = _distance("gaussian", d, out=sq[:y32.size])
        # float32 rounding is monotone, so the extremes give the largest square exactly
        farthest = np.square(max(b32.max() - y32.min(), y32.max() - b32.min()))
        _gaussian_values(k, kv, farthest, out=kv)
        density[start:start + y32.size] = np.einsum("ij->i", kv, dtype=np.float64) / n
        slope[start:start + y32.size] = (np.einsum("ij,ij->i", d, kv, dtype=np.float64)
                                         / (n * k.sigma ** 2))
    # each cell's cubic Hermite as a cubic in the draw's position s in [0, 1]
    # along it, ((a3 s + a2) s + a1) s + a0, with a0 = D_c and a1 = M_c from
    # the node densities D and slopes M = step * K'
    d0, d1 = density[:-1], density[1:]
    m = step * slope
    m0, m1 = m[:-1], m[1:]
    a2 = 3.0 * (d1 - d0) - 2.0 * m0 - m1
    a3 = 2.0 * (d0 - d1) + m0 + m1
    # t is clipped so outside draws stay finite
    t = np.clip((draws - low) / step, 0.0, cells)
    cell = np.minimum(t.astype(np.intp), cells - 1)
    s = t - cell
    values = ((a3[cell] * s + a2[cell]) * s + m0[cell]) * s + d0[cell]
    inside = (draws >= low) & (draws <= high)
    return np.where(inside, values, 0.0).mean(axis=1)


def _kernel_means(kernels: list[KernelSpec], a: np.ndarray, b: np.ndarray,
                  work: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Mean of every kernel over the n x n differences a[:, None] - b[None, :].

    Gaussian kernels share the float32 squared differences, written into
    ``sq`` once; each then takes its kernel values into ``work``
    (``_gaussian_values``) and sums rows, so no n x n array is allocated
    here. Each such mean is float32 row sums, then a float64 total of those n
    row sums. Laplacian kernels share one sort of b and one split of a into
    it (``_laplacian_mean``).
    """
    means = np.empty(len(kernels))
    if any(k.family == "gaussian" for k in kernels):
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
        np.subtract(a32[:, None], b32[None, :], out=sq)
        _distance("gaussian", sq, out=sq)
        # float32 rounding is monotone, so the extremes give the largest square exactly
        farthest = np.square(max(a32.max() - b32.min(), b32.max() - a32.min()))
    if any(k.family == "laplacian" for k in kernels):
        b_sorted = np.sort(b)
        split = np.searchsorted(b_sorted, a, side="right")
    for ki, k in enumerate(kernels):
        if k.family == "laplacian":
            means[ki] = _laplacian_mean(k.sigma, a, b_sorted, split)
            continue
        rows = np.einsum("ij->i", _gaussian_values(k, sq, farthest, out=work))
        means[ki] = rows.sum(dtype=np.float64) / work.size
    return means


def run_scenario(scenario: MmdScenario, kernels: list[KernelSpec] | None = None,
                 seed: int = 0) -> list[SweepCurve]:
    """Mean +/- std loss curves over repeats, common random numbers per repeat.

    Matches ``sampled_mmd`` on every (kernel, x, repeat) cell up to the binned
    scale-family qq terms (see ``_diff_histogram``), the interpolated pq terms
    (see ``_tabulated_pq``) and the float32 rounding of the exact Gaussian pair
    terms; constant terms are computed once per repeat.

    The families differ only in their agent draws at each point x: x * base
    or x + base / 2, with base sorted so that each point's draws are too.
    Each Gaussian kernel reads every point's pq from one table per repeat or,
    too narrow for its table, takes exact pq pairs at each point. Each
    Laplacian kernel reads every point's pq, and pp from a last row of the
    behaviour sample itself, from one ``_laplacian_mean`` call per repeat over
    one sort of the behaviour sample and one search of those rows into it.
    The Gaussian pp, the exact pq pairs and the shift family's constant qq go
    through ``_kernel_means``. The scale family's qq terms step each kernel's
    values at x times the binned centres from point to point by
    multiplication (``_scale_qq``), in one (kernels x centres) array per
    family and repeat. The n x n buffers (two float32 pair buffers when
    any kernel is Gaussian, which also carry the tables' rows in blocks of n,
    and, for the scale family only, one float64 buffer for its qq
    differences) are allocated once per call, so a sweep does not fault in
    fresh pages at every (kernel, point) pair.
    """
    kernels = kernels if kernels is not None else default_kernels()
    xs = scenario.sweep
    n = scenario.n_samples
    scale = scenario.agent_family == "scale"
    gaussian = [ki for ki, k in enumerate(kernels) if k.family == "gaussian"]
    laplacian = [ki for ki, k in enumerate(kernels) if k.family == "laplacian"]
    work, sq = np.empty((2, n, n) if gaussian else (2, 0, 0), dtype=np.float32)
    diffs = np.empty((n, n)) if scale else None
    values = np.empty((len(kernels), scenario.n_repeats, xs.size))
    for r in range(scenario.n_repeats):
        rng = np.random.default_rng([seed, r])
        behavior = scenario.behavior_sample(rng)
        # a V-statistic does not depend on sample order: sorted, every row of
        # draws is sorted too, which keeps the search below fast
        base = np.sort(rng.standard_normal(n))
        draws = xs[:, None] * base if scale else xs[:, None] + 0.5 * base
        pp, pq = np.empty(len(kernels)), np.empty((len(kernels), xs.size))
        pp[gaussian] = _kernel_means([kernels[ki] for ki in gaussian],
                                     behavior, behavior, work, sq)
        exact = []
        for ki in gaussian:
            table = _tabulated_pq(kernels[ki], behavior, draws, work, sq)
            if table is None:
                exact.append(ki)
            else:
                pq[ki] = table
        if exact:
            exact_kernels = [kernels[ki] for ki in exact]
            for xi in range(xs.size):
                pq[exact, xi] = _kernel_means(exact_kernels, behavior, draws[xi], work, sq)
        if laplacian:
            # by symmetry, pq splits the draws into the sorted behaviour
            # sample; the behaviour sample rides as a last row, for pp
            rows = np.vstack((draws, behavior))
            b_sorted = np.sort(behavior)
            split = np.searchsorted(b_sorted, rows, side="right")
            for ki in laplacian:
                means = _laplacian_mean(kernels[ki].sigma, rows, b_sorted, split)
                pq[ki], pp[ki] = means[:-1], means[-1]
        if scale:
            # qq diffs are x*(base_i - base_j): binned on |base_i - base_j|
            np.subtract(base[:, None], base[None, :], out=diffs)
            qq_centers, qq_weights = _diff_histogram(np.abs(diffs, out=diffs).ravel(), n)
            qq = _scale_qq(kernels, xs, qq_centers, qq_weights)
        else:
            # qq diffs are 0.5*(base_i - base_j), independent of x (halving is
            # exact, so differences of halved draws are the same numbers)
            half = 0.5 * base
            qq = _kernel_means(kernels, half, half, work, sq)[:, None]
        values[:, r] = pp[:, None] - 2.0 * pq + qq
    return [
        SweepCurve(k, xs.copy(), values[ki].mean(axis=0), values[ki].std(axis=0))
        for ki, k in enumerate(kernels)
    ]


def write_curves_csv(path, scenario: MmdScenario, curves: list[SweepCurve]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["scenario", "kernel", "sigma", "x", "mean", "std"])
        for c in curves:
            for x, m, s in zip(c.xs, c.mean, c.std):
                w.writerow([scenario.name, c.kernel.family, c.kernel.sigma, x, m, s])
