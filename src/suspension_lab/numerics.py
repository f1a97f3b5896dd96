"""Shared numerical machinery: improper integrals, series tails, slope fits,
and the asymptotic Kolmogorov distribution.

The series summed here decay polynomially (k^-3/2 or faster), so plain
truncation is hopeless at the accuracies we need.  Instead every infinite
tail goes through ``semi_infinite_sum``: an exact partial sum handled by the
caller, plus an Euler-Maclaurin closure of the remainder whose error is
dominated by the third-derivative term and is far below 1e-12 for the
starting indices used in this package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dist import ParameterDomainError

#: Step of the central difference stencils in ``semi_infinite_sum``.
_STENCIL_H = 8.0


@functools.cache
def _unit_gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """128-node Gauss-Legendre nodes and weights mapped from [-1, 1] onto
    (0, 1], computed on first use rather than at import."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(128)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def improper_integral(f: Callable[[np.ndarray], np.ndarray], a: float) -> float:
    """Integral of ``f`` over [a, inf) for smooth f with |f(t)| = O(t^-3/2).

    Substituting t = a / w^2 maps the domain onto (0, 1] and turns a
    t^-3/2 decay into a bounded analytic integrand, which 128-node
    Gauss-Legendre integrates to near machine precision.
    """
    w_nodes, w_weights = _unit_gauss_legendre()
    t = a / w_nodes**2
    vals = f(t) * (2.0 * a / w_nodes**3)
    return float(np.dot(vals, w_weights))


def semi_infinite_sum(f: Callable[[np.ndarray], np.ndarray], start: int) -> float:
    """sum_{k=start}^inf f(k) for smooth f decaying at least like k^-3/2.

    Euler-Maclaurin through the third-derivative term; derivatives come from
    central stencils (f is slowly varying on the scale of ``_STENCIL_H``).
    ``start`` must exceed 2 * _STENCIL_H and sit inside the smooth regime of f.
    """
    h = _STENCIL_H
    a = float(start)
    if a <= 2.0 * h:
        raise ValueError(f"start {start} too small for stencil width {h}")
    integral = improper_integral(f, a)
    v = f(np.array([a - 2 * h, a - h, a, a + h, a + 2 * h]))
    d1 = (v[3] - v[1]) / (2.0 * h)
    d3 = (v[4] - 2.0 * v[3] + 2.0 * v[1] - v[0]) / (2.0 * h**3)
    return integral + v[2] / 2.0 - d1 / 12.0 + d3 / 720.0


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of y against log(n) on a geometric grid."""

    kind: str
    slope: float
    intercept: float
    residual_rms: float
    slope_se: float
    n_min: int
    n_max: int

    def scaled(self, factor: float) -> "SlopeFit":
        """The fit of ``factor * y``; least squares is linear in the data.
        A finite field that the factor takes past the float range is refused."""
        f = float(factor)
        fields = {"slope": self.slope * f, "intercept": self.intercept * f,
                  "residual_rms": self.residual_rms * abs(f), "slope_se": self.slope_se * abs(f)}
        if any(math.isinf(v) and math.isfinite(getattr(self, k)) for k, v in fields.items()):
            raise ParameterDomainError(f"{self.kind} fit overflows when scaled by {f}")
        return replace(self, **fields)


def fit_log_slope(ns: Sequence[int], ys: Sequence[float], kind: str) -> SlopeFit:
    """Fit y = slope * log(n) + intercept by ordinary least squares.

    ``slope_se`` is the usual residual-based standard error; for the
    deterministic series fitted here it measures drift of the O(1) term,
    not sampling noise.
    """
    x = np.log(np.asarray(ns, dtype=float))
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("need at least two (n, y) points with matching shapes")
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(x.size - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    slope_se = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if sxx > 0 else math.inf
    return SlopeFit(
        kind=kind,
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        slope_se=slope_se,
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


def kolmogorov_sf(x: float) -> float:
    """Survival function of the asymptotic Kolmogorov statistic sup|B(t)|."""
    if x < 1e-8:
        return 1.0
    total = 0.0
    for r in range(1, 200):
        term = math.exp(-2.0 * r * r * x * x)
        total += term if r % 2 else -term
        if term < 1e-18:
            break
    return min(1.0, max(0.0, 2.0 * total))


def kolmogorov_critical(alpha: float) -> float:
    """Value K with P(sup|B| > K) = alpha, by bisection."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    lo, hi = 0.01, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
