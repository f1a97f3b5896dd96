"""Shared numerical machinery: power-tail closures, slope fits and the
Kolmogorov-Smirnov distance.

Past a prefix, the series summed here have terms analytic in y = v^-gamma
and z = n / v, double power series sum T_ik y^i z^k (``exponential_series``)
whose monomials ``semi_infinite_sum`` sums exactly over v >= a, as Hurwitz
zeta values (weighted once per T and a by ``zeta_weights``).  No BLAS or
LAPACK call enters: Cauchy products are elementwise multiply-adds and the
last sums exact (``math.fsum``), so results do not depend on the BLAS
kernel or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dist import ParameterDomainError

#: Powers of y (rows) and of z (columns) kept of a power-tail double series.
_TAIL_ROWS, _TAIL_COLS = 48, 72
#: First index a closure may start from; see ``scaled_hurwitz_zeta``.
MIN_START = 4_097
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)  # B_2, B_4, ..., B_12


def binomial_series(gamma: float, t: float) -> np.ndarray:
    """Coefficients (gamma)_j t^j / j! of (1 - t z)^-gamma, j = 0 ... 72."""
    j = np.arange(1.0, _TAIL_COLS + 1)
    return np.cumprod(np.concatenate(([1.0], t * (gamma + j - 1.0) / j)))


def exponential_series(forms: Sequence[tuple[float, np.ndarray]]) -> np.ndarray:
    """T[i - 1, k - 1], the coefficient of y^i z^k (1 <= i <= 48, 1 <= k <= 72)
    of sum_r w_r exp(y R_r(z)), for forms (w_r, R_r) with R_r given by its
    coefficients of z^0 ... z^72.  Row m is sum_r w_r R_r^m / m!, each power
    a truncated Cauchy product of the last: elementwise products with the
    shifted copies of R_r, summed.  Row 0 and column 0 must vanish (the forms
    cancel at y = 0 and at z = 0) and are dropped.
    """
    weights, power = (np.array(x) for x in zip(*forms))  # power is R_r^1 / 1!
    lag = np.subtract.outer(np.arange(_TAIL_COLS + 1), np.arange(_TAIL_COLS + 1))
    toeplitz = np.ascontiguousarray(np.tril(power[:, lag]))  # [r, k, j] = R_r[k - j]
    rows = np.empty((_TAIL_ROWS, _TAIL_COLS + 1))
    for m in range(1, _TAIL_ROWS + 1):
        rows[m - 1] = np.sum(weights[:, None] * power, axis=0)
        power = np.sum(toeplitz * power[:, None, :], axis=2) / (m + 1)
    if math.fsum(weights) or rows[:, 0].any():
        raise ValueError("exponential forms must cancel at y = 0 and at z = 0")
    return rows[:, 1:]


def scaled_hurwitz_zeta(s: np.ndarray, a: float) -> np.ndarray:
    """a^q zeta(q, a) = sum_{v >= a} (a / v)^q, q = 1 + s, for s > 0, a >= 4097:
    a / s + 1/2 + sum_{j=1}^{6} B_2j / (2j)! (q)_(2j-1) a^(1 - 2j) by Euler-Maclaurin,
    (q)_m rising.  The error is below the first term left out, B_14 / 14!
    (q)_13 a^-13: 2e-28 of the value at q = 250, a = 4097.  Given s, not q,
    a / s stays exact to rounding where q is near 1."""
    total = a / s + 0.5
    q = rising = s + 1.0  # rising is (q)_(2j-1)
    for j, b in enumerate(_BERNOULLI, start=1):
        total = total + b / math.factorial(2 * j) * rising * a ** (1 - 2 * j)
        rising = rising * (q + 2 * j - 1) * (q + 2 * j)
    return total


def _zeta_block(gamma: float, a: int) -> np.ndarray:
    """a^-(gamma i) a^q zeta(q, a), q = gamma i + k: sum_{v >= a} y^i z^k / (n / a)^k."""
    i, k = np.ogrid[1:_TAIL_ROWS + 1, 1:_TAIL_COLS + 1]
    return np.power(float(a), -gamma * i) * scaled_hurwitz_zeta(gamma * i + (k - 1.0), float(a))


def zeta_weights(coeffs: np.ndarray, gamma: float, start: int) -> np.ndarray:
    """w_k = sum_i T_ik a^-(gamma i) a^q zeta(q, a), q = gamma i + k, for
    a = start >= 4097 and T from ``exponential_series``: the closure from a
    at any shift n is sum_k w_k (n / a)^k (``semi_infinite_sum``)."""
    if not (gamma > 0.0 and start >= MIN_START):
        raise ValueError(f"closure at gamma {gamma} from {start}: need gamma > 0 and start >= {MIN_START}")
    return np.sum(coeffs * _zeta_block(gamma, start), axis=0)


def semi_infinite_sum(weights: np.ndarray, start: int, n: int) -> float:
    """sum_{v >= a} sum_{i,k >= 1} T_ik y^i z^k for a = start, y = v^-gamma,
    z = n / v < 1/2, given T's ``zeta_weights`` from a: each monomial summed as
    (n / a)^k a^-(gamma i) a^q zeta(q, a), q = gamma i + k.  Cut at 48 x 72, a
    term at (y, z) loses at most
    W sum_{m >= m0} (y M(rho))^m / m! (z / rho)^73 + W sum_{m >= 49} (y M(z))^m / m!
    for any rho in (z, 1), where W = sum_r |w_r|, m0 is the first row that
    does not vanish, and M(rho) = 2 (1 - rho)^-gamma - 1 bounds the
    coefficients of every exponent of both growth series on |z| <= rho.  Up
    to gamma = 3 that is below 1e-17 of a square-integral closure (4e-12 at
    gamma = 10) and 2e-11 of a Hellinger one; past it the Hellinger bound
    grows, but that closure is below a (2 / a)^(2 gamma) / (2 gamma - 1) of
    its unit.
    """
    if not 2 * n < start:
        raise ValueError(f"closure from {start} at shift {n}: need 2n < start")
    return math.fsum((weights * np.power(n / start, np.arange(1.0, _TAIL_COLS + 1))).tolist())


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of y against log(n) on a geometric grid; one whose
    slope, intercept, residual rms or slope se is not a finite float is refused."""

    kind: str
    slope: float
    intercept: float
    residual_rms: float
    slope_se: float
    n_min: int
    n_max: int

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.slope, self.intercept, self.residual_rms, self.slope_se))):
            raise ParameterDomainError(f"{self.kind} fit leaves the float range")

    def scaled(self, factor: float) -> "SlopeFit":
        """The fit of ``factor * y``; least squares is linear in the data."""
        f = float(factor)
        return replace(self, slope=self.slope * f, intercept=self.intercept * f,
                       residual_rms=self.residual_rms * abs(f), slope_se=self.slope_se * abs(f))


def fit_log_slope(ns: Sequence[int], ys: Sequence[float], kind: str) -> SlopeFit:
    """Fit y = slope * log(n) + intercept by ordinary least squares.

    In the closed form over x = log n and y centred at their means,
    slope = sum dx dy / sum dx^2 and intercept = y_bar - slope x_bar, each
    sum added exactly; ``ns`` must hold at least two distinct values.
    ``slope_se`` is the usual residual-based standard error; for the
    deterministic series fitted here it measures drift of the O(1) term,
    not sampling noise.
    """
    x = [math.log(n) for n in ns]
    y = [float(v) for v in ys]
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need at least two (n, y) points with matching shapes")
    x_bar, y_bar = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx, dy = [v - x_bar for v in x], [v - y_bar for v in y]
    sxx = math.fsum(v * v for v in dx)
    if sxx == 0.0:
        raise ValueError("need at least two distinct n")
    slope = math.fsum(u * v for u, v in zip(dx, dy)) / sxx
    intercept = y_bar - slope * x_bar
    try:
        rss = math.fsum((v - slope * u) ** 2 for u, v in zip(dx, dy))
    except OverflowError:  # a square past the float range; the fit refuses it
        rss = math.inf
    return SlopeFit(
        kind=kind,
        slope=slope,
        intercept=intercept,
        residual_rms=math.sqrt(rss / len(x)),
        slope_se=math.sqrt(rss / max(len(x) - 2, 1) / sxx),
        n_min=int(min(ns)),
        n_max=int(max(ns)),
    )


def geometric_grid(n_min: int, n_max: int) -> list[int]:
    """Powers of two covering [n_min, n_max], inclusive at both ends."""
    if n_min < 1 or n_max < n_min:
        raise ParameterDomainError("need 1 <= n_min <= n_max")
    out = []
    n = 1
    while n <= n_max:
        if n >= n_min:
            out.append(n)
        n *= 2
    return out


def normal_cdf(x: np.ndarray | float, mean: float = 0.0, var: float = 1.0) -> np.ndarray | float:
    """CDF of N(mean, var); vectorized over x."""
    if var <= 0:
        raise ValueError("var must be positive")
    z = (np.asarray(x, dtype=float) - mean) / math.sqrt(2.0 * var)
    out = 0.5 * (1.0 + _erf_vec(z))
    return float(out) if np.isscalar(x) else out


_erf_vec = np.vectorize(math.erf, otypes=[float])


def ks_statistic(sample: np.ndarray, cdf_vals: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance.

    ``cdf_vals`` are the hypothesised CDF values at the *sorted* sample.
    """
    m = len(sample)
    if m == 0 or len(cdf_vals) != m:
        raise ValueError("sample and cdf values must be nonempty and aligned")
    grid = np.arange(1, m + 1, dtype=float) / m
    d_plus = float(np.max(grid - cdf_vals))
    d_minus = float(np.max(cdf_vals - (grid - 1.0 / m)))
    return max(d_plus, d_minus)
