"""Distributional kernels: Poisson pmf, the Skellam family, and Hellinger
distances between Poisson laws.

Everything multiplicative is accumulated in log space; the impossible
outcome (log of zero mass) is the explicit sentinel ``LOG_ZERO`` rather than
a silent under- or overflow.  The Skellam pmf and its exact tail read one
row, built by a backward recurrence in k (Miller's algorithm) and
normalised to unit mass; the analytic tail bound carries the prefactor
exp(-(a+b)) that the characteristic function
exp(-(a+b) + a e^{it} + b e^{-it}) forces.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

LOG_ZERO = float("-inf")

# The exact tail takes a Python step per pmf term, about |a - b| + 12 sd + L.
TAIL_MAX_RATE = 10_000.0
# Past the rates, the tail and its bound fall with L and are 0 in floats at
# this L for rates up to TAIL_MAX_RATE, so a larger L is evaluated here.
_L_FAR = 2**1000

# Tail threshold search: L up to THRESHOLD_L_MAX.
THRESHOLD_L_MAX = 50


class ParameterDomainError(ValueError):
    """A distribution parameter is outside its admissible domain."""


@dataclass(frozen=True)
class SkellamLaw:
    """Law of X - Y for independent Poisson X (rate a) and Y (rate b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a >= 0.0 and self.b >= 0.0):
            raise ParameterDomainError(f"parameters must be nonnegative, got ({self.a}, {self.b})")


class TailEstimate(NamedTuple):
    exact: float
    bound: float


def poisson_log_pmf(rate: float, k: int) -> float:
    """log of the Poisson pmf: -rate + k*log(rate) - log(k!).

    A zero rate is the degenerate atom at 0: the log-pmf of any k > 0 is
    the LOG_ZERO sentinel.
    """
    if rate < 0.0:
        raise ParameterDomainError(f"rate must be nonnegative, got {rate}")
    if k < 0:
        return LOG_ZERO
    if rate == 0.0:
        return 0.0 if k == 0 else LOG_ZERO
    return -rate + k * math.log(rate) - math.lgamma(k + 1)


def poisson_pmf(rate: float, k: int) -> float:
    lp = poisson_log_pmf(rate, k)
    return 0.0 if lp == LOG_ZERO else math.exp(lp)


def skellam_cf(law: SkellamLaw, t: float) -> complex:
    """Characteristic function exp(-(a+b) + a e^{it} + b e^{-it})."""
    a, b = law.a, law.b
    return cmath.exp(-(a + b) + a * cmath.exp(1j * t) + b * cmath.exp(-1j * t))


def skellam_moments(law: SkellamLaw) -> tuple[float, float]:
    """(mean, variance) = (a - b, a + b)."""
    return law.a - law.b, law.a + law.b


def skellam_support_cutoff(law: SkellamLaw) -> int:
    """Index beyond which the pmf is numerically negligible on both sides."""
    mean, var = skellam_moments(law)
    return int(abs(mean) + 12.0 * math.sqrt(var + 1.0) + 30.0)


def _log_side(a: float, b: float, T: int) -> list[tuple[float, float]]:
    """log p(k) / p(0), k = 0..T (k = 0 alone if a = 0), of the law (a, b) as
    sums s + c: Miller's backward recurrence a p(k - 1) = k p(k) + b p(k + 1)
    from p(T + 1) = 0 (Gautschi, *SIAM Review* 9, 1967) gives r = p(k) /
    p(k - 1), and Neumaier's compensated steps sum the logs, so rounding does
    not grow with T.  log r is taken whole; log a - log d repeats log a's rounding."""
    logs, r = [0.0] * (T if a > 0.0 else 0), 0.0
    for k in range(len(logs), 0, -1):
        d = k + b * r
        r = a / d
        logs[k - 1] = math.log(r) if r > 0.0 else math.log(a) - math.log(d)
    side = [(0.0, 0.0)]
    for x in logs:
        s, c = side[-1]
        t = s + x
        side.append((t, c + ((s - t) + x if abs(s) >= abs(x) else (x - t) + s)))
    return side


def _skellam_sides(law: SkellamLaw, T: int) -> tuple[list[float], list[float]]:
    """The pmf row over [-T, T] up to one factor, as its sides pos[k] ~ p(k)
    and neg[k] ~ p(-k), k = 0..T: ``_log_side`` of the law and of its
    reflection (b, a), shifted by their common maximum before exp.  A side
    whose rate is 0 is k = 0 alone."""
    sides = _log_side(law.a, law.b, T), _log_side(law.b, law.a, T)
    s_m, c_m = max(max(side) for side in sides)
    pos, neg = ([math.exp((s - s_m) + (c - c_m)) for s, c in side] for side in sides)
    return pos, neg


def skellam_pmf_row(law: SkellamLaw, T: int) -> list[float]:
    """The pmf at k = -T..T, normalised over that window, which holds the
    whole mass in floats once T >= ``skellam_support_cutoff``."""
    pos, neg = _skellam_sides(law, T)
    total = math.fsum(pos + neg[1:])
    row = [0.0] * (T + 1 - len(neg)) + neg[:0:-1] + pos + [0.0] * (T + 1 - len(pos))
    return [p / total for p in row]


def skellam_pmf(law: SkellamLaw, k: int) -> float:
    """The pmf at k: the entry of ``skellam_pmf_row`` with T = |k| +
    ``skellam_support_cutoff``."""
    T = abs(k) + skellam_support_cutoff(law)
    return skellam_pmf_row(law, T)[T + k]


def skellam_tail(law: SkellamLaw, L: int) -> TailEstimate:
    """Two-sided tail mass sum_{|k| >= L} pmf(k) and ``skellam_tail_bound``.

    The exact tail is the share of |k| >= L in the pmf row over [-T, T],
    T = L + ``skellam_support_cutoff`` (``_skellam_sides``); it is 0, with no
    row, where both Chernoff bounds P(X - Y >= L) <= P(X >= L) <=
    e^-a (e a / L)^L (L > a) underflow.
    """
    bound = skellam_tail_bound(law, L)  # refuses L < 1
    if not max(law.a, law.b) <= TAIL_MAX_RATE:
        raise ParameterDomainError(f"rates ({law.a}, {law.b}) exceed the tail cap {TAIL_MAX_RATE}")
    L = min(L, _L_FAR)
    if L > max(law.a, law.b) and not any(math.exp(L + L * (math.log(r) - math.log(L)) - r)
                                         for r in (law.a, law.b) if r):
        return TailEstimate(exact=0.0, bound=bound)
    pos, neg = _skellam_sides(law, L + skellam_support_cutoff(law))
    return TailEstimate(exact=math.fsum(pos[L:] + neg[L:]) / math.fsum(pos + neg[1:]), bound=bound)


def skellam_tail_bound(law: SkellamLaw, L: int) -> float:
    """Analytic tail bound exp(-(a+b)+ab) * (a^L e^a + b^L e^b) / L!, capped
    at 1 (it bounds a probability), which dominates the exact tail for every
    L >= 1: each pmf value is bounded by the leading Bessel prefactor times
    e^{ab}, and the two one-sided sums then telescope into the displayed
    form.  Both terms are compared in log space, so a bound above 1 is
    returned as 1 before exp can overflow."""
    if L < 1:
        raise ParameterDomainError(f"L must be a positive integer, got {L}")
    L = min(L, _L_FAR)
    base = -(law.a + law.b) + law.a * law.b - math.lgamma(L + 1)
    logs = [base + r + L * math.log(r) for r in (law.a, law.b) if r > 0.0]
    if max(logs, default=-math.inf) >= 0.0:
        return 1.0
    return min(1.0, math.fsum(math.exp(x) for x in logs))


def skellam_tail_threshold(limit: float) -> int:
    """Smallest L <= THRESHOLD_L_MAX such that tail(l) <= l^-8 for all
    l >= L and all Skellam parameters in (0, limit]^2.

    Certified through the analytic bound at the corner (limit, limit).  The
    bound is e^{ab} (a^L e^-b + b^L e^-a) / L!; for fixed b it is convex in
    a (a^L e^{ab} and e^{a(b-1)} are), and likewise in b for fixed a, so its
    maximum over the box lies at a vertex.  There the corner's value
    exceeds the bound limit^L / L! at (limit, 0) and (0, limit) by the factor
    2 e^{limit^2 - limit} >= 2 e^{-1/4} > 1, and the bound 0 at (0, 0).
    Validity for every l > L follows because bound(l) * l^8 decreases once
    ((l+1)/l)^8 * limit / (l+1) < 1, which is checked before accepting L.
    """
    if limit <= 0.0:
        raise ParameterDomainError("limit must be positive")
    l_max, corner = THRESHOLD_L_MAX, SkellamLaw(limit, limit)
    for L in range(1, l_max + 1):
        if ((L + 1) / L) ** 8 * limit / (L + 1) >= 1.0:
            continue
        if skellam_tail_bound(corner, L) <= L**-8:
            return L
    raise ParameterDomainError(f"no threshold found up to l_max={l_max} for limit={limit}")


def hellinger_sq_poisson(a: float, b: float) -> float:
    """Squared Hellinger distance between Poisson laws: 1 - exp(-(sqrt a - sqrt b)^2 / 2)."""
    if a < 0.0 or b < 0.0:
        raise ParameterDomainError(f"rates must be nonnegative, got ({a}, {b})")
    d = math.sqrt(a) - math.sqrt(b)
    return -math.expm1(-0.5 * d * d)
