"""Analytic classification of the suspension built over an intensity profile.

Two deterministic series drive everything:

* ``rn_square_integral``: the second moment defect of the inverse density
  under the n-step shift, sum_k (e^{3 eps_k - 2 eps_{k-n}} - e^{eps_k})
  times the constant intensity level.  Its growth in log n feeds the
  conservativity certificate (weighted Borel-Cantelli recurrence).
* ``hellinger_growth``: the squared L2 distance between the shifted and
  unshifted square-root densities.  Its growth feeds the dissipativity
  certificate (summable overlap series).

Both have the form sum_x terms(eps_v, d_x) over the same difference
d_x = eps_{x+n} - eps_x, with v the shift's upper end x + n (square
integral) or its lower end x (Hellinger).  One evaluator serves both and
every family with a table, a power tail or both (a power family is the
empty table): an exact prefix whose d_x are ``epsilon_at`` differences up
to the end of the table and stable power differences past it, plus, for a
power tail, a closure of the remainder whose terms are exponentials in
y = v^-gamma and z = n / v, summed exactly as a double power series (see
``numerics``).  Truncating instead would cancel catastrophically.  Zero
and step families have one closed form.

Every prefix slices one eps grid per family (``_eps_grid``), from the
family's ``first`` index up to the largest request so far (eps is 0 below
``first``), whose cells are ``epsilon_at``'s, and turns its differences
into terms in place, chunk by chunk, in one buffer that a single ``np.sum``
adds.  Every step is an elementwise ufunc, whose results depend neither on
a slice's offset nor on its length, so each unit has the bits of a grid
built for it alone.  The closure's zeta-weighted column sums are cached
per series, gamma, sign and prefix end.

Slope fits against log n replace the exact asymptotics; a verdict is only
issued when the decisive inequality clears three residual standard errors.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .dist import ParameterDomainError
from .intensity import (
    EpsilonFamily,
    ExplicitFamily,
    IntensityProfile,
    MAX_WINDOW,
    PowerFamily,
    ProfileError,
    StepFamily,
    Trivalent,
    ZeroFamily,
    condition_verdict,
    epsilon_at,
    intensities,
    limit_gap,
)
from .numerics import (SlopeFit, binomial_series, exponential_series, fit_log_slope, geometric_grid,
                       semi_infinite_sum, zeta_weights)

#: Least-squares windows (powers of two, inclusive).  The square-integral
#: series is fitted from 16; the Hellinger series carries a boundary block
#: whose O(1) drift at small n biases the slope well past the certificate
#: margins, so its window starts at 1024.
RN_FIT_RANGE = (16, 131_072)
HELLINGER_FIT_RANGE = (1_024, 131_072)

_PREFIX_MIN = 4_096
_PREFIX_MARGIN = 64
_TINY = np.finfo(float).tiny


class PreconditionError(RuntimeError):
    """The profile does not satisfy the conditions this operation assumes."""


class GapNotZeroError(PreconditionError):
    """Operation requires the asymptotic intensity gap to vanish symbolically."""


class MonotonicityError(RuntimeError):
    """Scale scan produced a non-monotone verdict pattern."""


class Verdict(Enum):
    CONSERVATIVE = "conservative"
    TOTALLY_DISSIPATIVE = "totally_dissipative"
    INCONCLUSIVE = "inconclusive"
    NOT_NONSINGULAR = "not_nonsingular"


@dataclass(frozen=True)
class ClassificationReport:
    verdict: Verdict
    certificate: Optional[dict]
    profile: IntensityProfile
    notes: tuple[str, ...] = ()


def nonsingularity_deficit(profile: IntensityProfile, N: int) -> float:
    """Partial sum over |n| <= N of twice the squared Hellinger distance
    between neighbouring atoms: 2 * (1 - exp(-(sqrt a_n - sqrt a_{n+1})^2 / 2)).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    a = intensities(profile, np.arange(-N, N + 2, dtype=float))
    d = np.diff(np.sqrt(a, out=a))
    np.multiply(np.multiply(d, -0.5, out=a[1:]), d, out=d)  # -0.5 * d * d, its first product in spent cells
    return float(np.sum(np.multiply(np.expm1(d, out=d), -2.0, out=d)))


# ---------------------------------------------------------------------------
# the two unit series (intensity level factored out)
# ---------------------------------------------------------------------------


def _power_eps_diff(gamma: float, eps_t: np.ndarray, t: np.ndarray, shift: float) -> np.ndarray:
    """eps(t) - eps(t - shift) for the pure power form, computed stably as
    -eps_t expm1(-gamma log1p(-shift / t)) into ``t``, which it overwrites.

    Valid where both t and t - shift are in the power regime (> 1).  Where
    gamma log(t / (t - shift)) passes expm1's range (about 709.78) the cell
    is not finite, and the caller keeps the plain difference; so it does
    where eps_t is subnormal or 0, whose lost bits the product would scale
    up to the size of eps_{t - shift} (a steep tail at t = shift + 2).
    """
    np.divide(-shift, t, out=t)
    np.log1p(t, out=t)
    np.multiply(t, -gamma, out=t)
    with np.errstate(over="ignore", invalid="ignore"):
        np.expm1(t, out=t)
        np.multiply(t, eps_t, out=t)
    return np.negative(t, out=t)


def _span(fam: PowerFamily | ExplicitFamily, series: str) -> tuple[int, int, Optional[PowerFamily]]:
    """(first, last, power tail) of a family with a table, a power tail or both.

    eps vanishes below ``first``; past ``last`` it is the power tail's own
    formula, or zero when the tail (returned as None) is.  A power family
    is the empty table: first 2, last 1.  The series grids run from
    first - n to last + n, so a span above ``MAX_WINDOW`` is refused.
    """
    if isinstance(fam, PowerFamily):
        return 2, 1, fam
    tmin, tmax = fam.index_range()
    if isinstance(fam.tail, StepFamily):
        raise ProfileError(f"{series} for explicit profiles requires a zero or power tail")
    tail = fam.tail if isinstance(fam.tail, PowerFamily) else None
    first, last = min(2, tmin), (tmax if tail is None else max(tmax, 1))
    if last - first > MAX_WINDOW:
        raise ParameterDomainError(f"{series} over table indices {first}..{last} spans more than {MAX_WINDOW}")
    return first, last, tail


#: Cells per pass of the in-place kernels: a chunk and its temporaries stay in cache.
_CHUNK = 16_384


class _EpsGrid:
    """eps_t of one family for t = first ... first + size - 1, grown upward to
    the largest request so far, ``_CHUNK`` new cells per ``epsilon_at`` call.
    Below ``first`` eps is 0, and the grid holds no cell there.  Each cell is
    computed once, elementwise, so its bits do not depend on when the grid
    grew to it."""

    def __init__(self, fam: PowerFamily | ExplicitFamily, first: int):
        self.fam, self.first = fam, first
        self.eps = np.empty(0)

    def upto(self, hi: int) -> np.ndarray:
        """eps_t for t = first ... hi, a view of the grid."""
        first, end, done = self.first, hi + 1, self.first + self.eps.size
        if end > done:
            eps = np.empty(end - first)
            eps[:done - first] = self.eps
            for s in range(done, end, _CHUNK):
                e = min(s + _CHUNK, end)
                eps[s - first:e - first] = epsilon_at(self.fam, np.arange(s, e, dtype=float))
            eps.flags.writeable = False  # units share the grid's views
            self.eps = eps
        return self.eps[:end - first]


@lru_cache(maxsize=4)
def _eps_grid(fam: PowerFamily | ExplicitFamily, first: int) -> _EpsGrid:
    """The one eps grid of a family, from its ``_span``'s first index."""
    return _EpsGrid(fam, first)


class _Series(NamedTuple):
    """sum_x terms(eps_v, d_x), v being the shift's upper end k = x + n
    (``upper``) or its lower end x.  ``kernel(d, e^{eps_v})`` turns an array
    of d_x into those terms in place, by the same elementwise steps; a step
    family's scalars take ``terms``.  Over a power tail a term is
    sum_r w_r e^{y R_r(z)} for the forms ``exponentials(eps_v / y, eps_other / y)``."""

    what: str
    terms: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kernel: Callable[[np.ndarray, np.ndarray], None]
    upper: bool
    exponentials: Callable[[np.ndarray, np.ndarray], tuple[tuple[float, np.ndarray], ...]]


def _rn_kernel(d: np.ndarray, exp_v: np.ndarray) -> None:
    np.multiply(d, 2.0, out=d)
    np.expm1(d, out=d)
    np.multiply(d, exp_v, out=d)


def _hellinger_kernel(d: np.ndarray, exp_v: np.ndarray) -> None:
    np.multiply(d, 0.5, out=d)
    np.expm1(d, out=d)
    np.square(d, out=d)  # an array's ** 2; a numpy scalar's ** 2 is pow, hence ``terms`` for steps
    np.multiply(d, exp_v, out=d)


#: sum_x e^{eps_{x+n}} expm1(2 d_x), that is e^{3 eps_k - 2 eps_{k-n}} - e^{eps_k} for k = x + n
_RN = _Series("square-integral series", lambda eps_v, d: np.exp(eps_v) * np.expm1(2.0 * d), _rn_kernel, True,
              lambda here, other: ((1.0, 3.0 * here - 2.0 * other), (-1.0, here)))
#: sum_x e^{eps_x} expm1(d_x / 2)^2, that is (e^{eps_{x+n}/2} - e^{eps_x/2})^2 without its cancellation
_HELLINGER = _Series("hellinger series", lambda eps_v, d: np.exp(eps_v) * np.expm1(0.5 * d) ** 2,
                     _hellinger_kernel, False,
                     lambda here, other: ((1.0, other), (-2.0, 0.5 * (here + other)), (1.0, here)))


def _prefix_terms(fam: PowerFamily | ExplicitFamily, n: int, hi: int, first: int, last: int,
                  tail: Optional[PowerFamily], series: _Series) -> np.ndarray:
    """terms(eps_v, d_x) for x = first - n ... hi, d_x = eps_{x+n} - eps_x,
    given the family's ``_span``, in one buffer.

    The grid holds eps from ``first`` up.  For the n indices x < first,
    eps_x = 0, so d_x is the grid's eps_{x+n} (a - 0.0 is a) and a lower end
    v = x gives the kernel e^0 = 1.  From ``first`` to the end of the table
    d_x is a difference of grid cells; past it both indices lie in the power
    tail, so d_x is the stable ``_power_eps_diff`` of the grid's eps_{x+n},
    save where that overflows or eps_{x+n} is not a normal float.
    Both steps and the kernel run in place, chunk by chunk.
    """
    eps = _eps_grid(fam, first).upto(hi + n)  # eps[i] = eps_{first + i} = eps_{x+n} at terms[i]
    m = eps.size
    terms = np.empty(m)
    terms[:n] = eps[:n]
    np.subtract(eps[n:], eps[:m - n], out=terms[n:])
    exp_v = np.empty(min(m, _CHUNK))
    b = last + 1 - first + n  # terms[b:] lies past the table
    below = 0 if series.upper else n  # eps_v at terms[i] is eps[i - below], or 0 where i < below
    for s in range(0, m, _CHUNK):
        e = min(s + _CHUNK, m)
        if tail is not None and e > b:
            p = max(s, b)
            t = np.arange(first + p, first + e, dtype=float)
            d = _power_eps_diff(tail.gamma, eps[p:e], t, float(n))
            stable = np.isfinite(d)
            stable &= np.abs(eps[p:e]) >= _TINY
            np.copyto(terms[p:e], d, where=stable)
        ones = min(max(below - s, 0), e - s)
        exp_v[:ones] = 1.0
        np.exp(eps[s + ones - below:e - below], out=exp_v[ones:e - s])
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN term: _at_level and SlopeFit refuse it
            series.kernel(terms[s:e], exp_v[:e - s])
    return terms


@lru_cache(maxsize=256)
def _tail_coefficients(series: _Series, gamma: float, sign: int) -> np.ndarray:
    """The terms over the tail eps_v = sign y, y = v^-gamma, as sum T_ik y^i z^k,
    z = n / v; at v -+ n, the shift's other end, eps = sign y (1 -+ z)^-gamma."""
    other = sign * binomial_series(gamma, 1.0 if series.upper else -1.0)
    here = np.where(np.arange(other.size) == 0, float(sign), 0.0)
    return exponential_series(series.exponentials(here, other))


@lru_cache(maxsize=256)
def _closure_weights(series: _Series, gamma: float, sign: int, start: int) -> np.ndarray:
    """The closure's zeta-weighted column sums from ``start``, shared by every
    shift with that prefix end (all n <= 2016 start at 4097)."""
    return zeta_weights(_tail_coefficients(series, gamma, sign), gamma, start)


@lru_cache(maxsize=131_072)
def _unit(fam: EpsilonFamily, n: int, series: _Series) -> float:
    """The series at shift n: exact over v <= K and, for a power tail whose
    (K + 1)^-gamma is a nonzero float, the double-series closure over v > K."""
    if isinstance(fam, ZeroFamily):
        return 0.0
    if isinstance(fam, StepFamily):
        # d_x = right - left for the n indices x in [1 - n, 0], and 0 elsewhere
        return n * float(series.terms(fam.right if series.upper else fam.left, fam.right - fam.left))
    first, last, tail = _span(fam, series.what)
    lag = n if series.upper else 0
    K = max(2 * n + _PREFIX_MARGIN, _PREFIX_MIN, last + lag + _PREFIX_MARGIN)
    terms = _prefix_terms(fam, n, last + 1 if tail is None else K - lag, first, last, tail, series)
    total = float(np.sum(terms))
    if tail is None or float(K + 1) ** -tail.gamma == 0.0:
        return total
    return total + semi_infinite_sum(_closure_weights(series, tail.gamma, tail.sign, K + 1), K + 1, n)


def require_condition(profile: IntensityProfile, condition: str, who: str) -> None:
    """Raise unless ``condition_verdict`` says YES; ``who`` names the caller."""
    holds, detail = condition_verdict(profile.epsilon, condition)
    if holds is not Trivalent.YES:
        if condition == "zero_gap":
            raise GapNotZeroError(f"{who} requires a vanishing asymptotic gap; got {detail}")
        raise PreconditionError(f"{who} requires condition {condition}={Trivalent.YES.value}; got {detail}")


def require_series_index(n: int, what: str) -> None:
    """Refuse a last series index outside [1, MAX_WINDOW], the top of both
    fit ranges: the series grids grow like 2n to 4n cells."""
    if not 1 <= n <= MAX_WINDOW:
        raise ParameterDomainError(f"{what} must be in [1, {MAX_WINDOW}], got {n}")


def _at_level(profile: IntensityProfile, unit: float, what: str) -> float:
    """level * unit, refused when the product leaves the float range."""
    value = profile.level * float(unit)
    if not math.isfinite(value):
        raise ParameterDomainError(f"{what} overflows at level {profile.level}")
    return value


def rn_square_integral(profile: IntensityProfile, n: int) -> float:
    """Level * sum_k (e^{3 eps_k - 2 eps_{k-n}} - e^{eps_k}).

    Refuses profiles whose asymptotic gap is nonzero: the derivation of the
    displayed form cancels the linear increment sum, which requires the gap
    to vanish.  The infinite sum is evaluated as an exact prefix plus, for
    a power tail, its Hurwitz-zeta closure.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    require_condition(profile, "zero_gap", "rn_square_integral")
    return _at_level(profile, _unit(profile.epsilon, n, _RN), "rn_square_integral")


def hellinger_growth(profile: IntensityProfile, n: int) -> float:
    """Level * sum_x (e^{eps_{x+n}/2} - e^{eps_x/2})^2 over the lattice."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _at_level(profile, _unit(profile.epsilon, n, _HELLINGER), "hellinger_growth")


# ---------------------------------------------------------------------------
# slope fits and certificates
# ---------------------------------------------------------------------------


def rn_slope_fit(profile: IntensityProfile) -> SlopeFit:
    require_condition(profile, "zero_gap", "rn_slope_fit")
    ns = geometric_grid(*RN_FIT_RANGE)
    unit = fit_log_slope(ns, [_unit(profile.epsilon, n, _RN) for n in ns], kind="rn_square_integral")
    return unit.scaled(profile.level)


def hellinger_slope_fit(profile: IntensityProfile) -> SlopeFit:
    ns = geometric_grid(*HELLINGER_FIT_RANGE)
    unit = fit_log_slope(ns, [_unit(profile.epsilon, n, _HELLINGER) for n in ns], kind="hellinger_growth")
    return unit.scaled(profile.level)


@dataclass(frozen=True)
class SeriesVerdict:
    partial: float
    N: int
    convergent: Trivalent
    fit: SlopeFit


def dissipativity_series(profile: IntensityProfile, N: int = 200) -> SeriesVerdict:
    """Partial sum of sum_n exp(-hellinger_growth(n)/2) and its convergence verdict.

    The terms behave like n^(-slope/2); the series converges (certifying a
    totally dissipative suspension) precisely when slope/2 > 1, and the
    verdict is issued only with a three-sigma margin on the fitted slope.
    """
    require_condition(profile, "nonsingularity", "dissipativity_series")
    require_series_index(N, "N")
    partial = math.fsum(
        math.exp(-0.5 * hellinger_growth(profile, n)) for n in range(1, N + 1)
    )
    fit = hellinger_slope_fit(profile)
    if (fit.slope - 3.0 * fit.slope_se) / 2.0 > 1.0:
        verdict = Trivalent.YES
    elif (fit.slope + 3.0 * fit.slope_se) / 2.0 < 1.0:
        verdict = Trivalent.NO
    else:
        verdict = Trivalent.UNDETERMINED
    return SeriesVerdict(partial=partial, N=N, convergent=verdict, fit=fit)


def conservativity_certificate(profile: IntensityProfile, N: int = 200) -> ClassificationReport:
    """Weighted-series recurrence certificate.

    With c the fitted log-slope of the square-integral series, weights
    b_n = n^-beta give a divergent sum (beta <= 1) while
    sum b_n^2 e^{I(n)} behaves like sum n^(c - 2 beta), convergent as soon
    as 2 beta - c > 1.  Admissible betas form ((1+c)/2, 1]; we take the
    midpoint (3+c)/4.  Requires c < 1 with a three-sigma margin.
    """
    require_condition(profile, "zero_gap", "conservativity_certificate")
    require_condition(profile, "nonsingularity", "conservativity_certificate")
    require_series_index(N, "N")
    fit = rn_slope_fit(profile)
    c = fit.slope
    if c + 3.0 * fit.slope_se < 1.0:
        beta = min((3.0 + c) / 4.0, 1.0)
        try:
            series = math.fsum(
                n ** (-2.0 * beta) * math.exp(rn_square_integral(profile, n)) for n in range(1, N + 1)
            )
        except OverflowError as exc:
            raise ParameterDomainError(f"weighted series overflows at level {profile.level}") from exc
        certificate = {
            "kind": "recurrence_weights",
            "beta": beta,
            "rn_slope_fit": asdict(fit),
            "weighted_series_partial": series,
            "weighted_series_N": N,
            "exponent_margin": 2.0 * beta - c,
        }
        return ClassificationReport(Verdict.CONSERVATIVE, certificate, profile)
    note = f"rn slope {c:.4f} + 3se {3 * fit.slope_se:.4f} not below 1"
    return ClassificationReport(
        Verdict.INCONCLUSIVE,
        {"kind": "none", "rn_slope_fit": asdict(fit)},
        profile,
        notes=(note,),
    )


def classify(profile: IntensityProfile, series_N: int = 200) -> ClassificationReport:
    """Verdict for the suspension over this profile.

    Certificates are attempted in fixed order, cheap exact tests first:
    nonzero asymptotic gap, summable overlap series (dissipative), weighted
    recurrence series (conservative).  Anything else is an honest
    "inconclusive".  Nonsingularity and the gap are ``condition_verdict``'s,
    by family, so a gap whose float value rounds to 0 still certifies.
    """
    require_series_index(series_N, "series_N")
    if condition_verdict(profile.epsilon, "nonsingularity")[0] is not Trivalent.YES:
        return ClassificationReport(Verdict.NOT_NONSINGULAR, None, profile,
                                    notes=("nonsingularity condition not established",))

    if condition_verdict(profile.epsilon, "zero_gap")[0] is Trivalent.NO:
        return ClassificationReport(
            Verdict.TOTALLY_DISSIPATIVE,
            {"kind": "nonzero_limit_gap", "gap": limit_gap(profile)},
            profile,
        )

    series = dissipativity_series(profile, N=series_N)
    if series.convergent is Trivalent.YES:
        return ClassificationReport(
            Verdict.TOTALLY_DISSIPATIVE,
            {"kind": "decay_series", **asdict(series)},
            profile,
        )

    report = conservativity_certificate(profile, N=series_N)
    if report.verdict is Verdict.CONSERVATIVE:
        return report

    return ClassificationReport(
        Verdict.INCONCLUSIVE,
        {
            "kind": "none",
            "hellinger_slope_fit": asdict(series.fit),
            "rn_slope_fit": report.certificate["rn_slope_fit"],
        },
        profile,
        (f"dissipativity series verdict: {series.convergent.value}", *report.notes),
    )


@dataclass(frozen=True)
class BifurcationBracket:
    t_lower: float
    t_upper: float
    lower_report: ClassificationReport
    upper_report: ClassificationReport


#: Smallest bracket rtol: well above the float spacing of hi / lo near 1.
_MIN_RTOL = 1e-12
#: Scales probed in octaves before the bisection, inclusive.
_PROBE_RANGE = (2.0**-20, 2.0**20)

_VERDICT_ORDER = {
    Verdict.CONSERVATIVE: 0,
    Verdict.INCONCLUSIVE: 1,
    Verdict.TOTALLY_DISSIPATIVE: 2,
}


def bifurcation_bracket(profile: IntensityProfile, rtol: float = 1e-3) -> BifurcationBracket:
    """Certificate-limited bracket for the conservative/dissipative transition
    under intensity scaling.

    t_lower is the supremum of factors t of the profile's scale (as in
    scan's ``t_grid``) whose ``profile.scaled(t)`` is conservative, t_upper
    the infimum totally dissipative.  The verdict pattern along the scan
    must be monotone (conservative below dissipative); any inversion raises
    MonotonicityError.  Nonsingularity is a fact of the family, the same at
    every scale, so a singular family is refused before any probe.
    ``rtol`` must be finite and at least 1e-12: the bisection stops once
    hi / lo <= 1 + rtol, which adjacent floats never reach for rtol <= 0.
    """
    if not (math.isfinite(rtol) and rtol >= _MIN_RTOL):
        raise ParameterDomainError(f"rtol must be finite and >= {_MIN_RTOL}, got {rtol}")
    if condition_verdict(profile.epsilon, "nonsingularity")[0] is not Trivalent.YES:
        raise ProfileError("bracket requires a nonsingular profile at every scale")

    def verdict_at(t: float) -> Verdict:
        # short evidence series during the scan; verdicts only use the fits
        return classify(profile.scaled(t), series_N=20).verdict

    # Coarse scan over octaves establishes the pattern and the two seams.
    probes = []
    t = _PROBE_RANGE[0]
    while t <= _PROBE_RANGE[1]:
        probes.append(t)
        t *= 2.0
    verdicts = [verdict_at(t) for t in probes]
    order = [_VERDICT_ORDER[v] for v in verdicts]
    if any(b < a for a, b in zip(order, order[1:])):
        raise MonotonicityError(f"verdict pattern not monotone along scales: "
                                f"{[v.value for v in verdicts]}")
    if Verdict.CONSERVATIVE not in verdicts or Verdict.TOTALLY_DISSIPATIVE not in verdicts:
        raise ProfileError("probe range does not straddle the transition")

    def bisect(lo: float, hi: float, left_of_seam) -> float:
        while hi / lo > 1.0 + rtol:
            mid = math.sqrt(lo * hi)
            if left_of_seam(verdict_at(mid)):
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    last_cons = max(i for i, v in enumerate(verdicts) if v is Verdict.CONSERVATIVE)
    first_diss = min(i for i, v in enumerate(verdicts) if v is Verdict.TOTALLY_DISSIPATIVE)
    t_lower = bisect(probes[last_cons], probes[last_cons + 1],
                     lambda v: v is Verdict.CONSERVATIVE)
    t_upper = bisect(probes[first_diss - 1], probes[first_diss],
                     lambda v: v is not Verdict.TOTALLY_DISSIPATIVE)
    lower_report = classify(profile.scaled(t_lower / (1.0 + 2.0 * rtol)))
    upper_report = classify(profile.scaled(t_upper * (1.0 + 2.0 * rtol)))
    return BifurcationBracket(t_lower, t_upper, lower_report, upper_report)


@dataclass(frozen=True)
class ContinuousBaseReport:
    gap: float
    sup_mass: float
    series_partial: float
    N: int
    dissipative: Trivalent


def continuous_base_bound(densities: Sequence[Sequence[float]], N: int) -> ContinuousBaseReport:
    """Dissipativity certificate for a shift over a continuum of levels.

    ``densities`` are density vectors on a uniform partition of [0,1],
    indexed along a finite window of levels; the first vector is the
    declared constant left tail, the last the right tail.  With
    gap = ||right||_1 - ||left||_1 and D the sup of the level masses, the
    overlap series is dominated by the geometric series
    sum_n exp(-n gap^2 / (216 D^2)), so any nonzero gap certifies total
    dissipativity.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    rows = [np.asarray(d, dtype=float) for d in densities]
    if len(rows) < 2:
        raise ValueError("need at least the two tail density vectors")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("density vectors must share one partition")
    if any(not np.all(r > 0.0) for r in rows):
        raise ValueError("density entries must be strictly positive")
    masses = [float(np.mean(r)) for r in rows]
    gap = masses[-1] - masses[0]
    sup_mass = max(masses)
    if gap == 0.0:
        return ContinuousBaseReport(gap, sup_mass, float(N), N, Trivalent.UNDETERMINED)
    rate = gap * gap / (216.0 * sup_mass * sup_mass)
    series = math.fsum(math.exp(-rate * n) for n in range(1, N + 1))
    return ContinuousBaseReport(gap, sup_mass, series, N, Trivalent.YES)
