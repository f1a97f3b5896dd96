"""Intensity profiles a_n = scale * base * exp(eps_n) on the integers.

The profile's epsilon family determines everything the analytic layer
needs: whether the induced product system is nonsingular, whether the
increment series is absolutely summable, whether the slow-decay regime
that drives the weighted-sum limit theorems holds, and the two asymptotic
intensity levels whose gap certifies dissipativity.

Convergence of the infinite condition series is never decided numerically:
built-in families carry exact symbolic classifications, and explicit
tables must declare a tail family or receive "undetermined".  Every caller
that needs a verdict uses ``condition_verdict``, which looks only at the
family.  Numeric partial-sum traces are audit evidence: ``check_condition``
adds them on top of the same verdict, for reports that print them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Union

import numpy as np


class ProfileError(ValueError):
    """An intensity profile is malformed or outside the supported families."""


#: log of the largest float: intensities must stay below it.
_LOG_MAX = float(np.log(np.finfo(float).max))
#: Most indices in a Hopf window or in the span of an explicit table's series.
MAX_WINDOW = 1 << 17


@dataclass(frozen=True)
class ZeroFamily:
    """eps_n = 0 everywhere (constant intensity)."""


@dataclass(frozen=True)
class PowerFamily:
    """eps_n = sign * n^-gamma for n > 1, and eps_n = 0 for n <= 1."""

    gamma: float
    sign: int = -1

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ProfileError(f"gamma must be positive, got {self.gamma}")
        if self.sign not in (-1, 1):
            raise ProfileError(f"sign must be -1 or +1, got {self.sign}")


@dataclass(frozen=True)
class StepFamily:
    """eps_n = left for n <= 0 and eps_n = right for n >= 1."""

    left: float
    right: float


@dataclass(frozen=True)
class ExplicitFamily:
    """A finite table of eps values with a declared tail family outside it.

    Without a declared tail, evaluation treats eps as 0 outside the table
    but every condition verdict is "undetermined": no finite table decides
    an infinite series.
    """

    table: tuple[tuple[int, float], ...]
    tail: Optional[Union[ZeroFamily, PowerFamily, StepFamily]] = None

    def __post_init__(self) -> None:
        if len(self.table) == 0:
            raise ProfileError("explicit table must be nonempty")
        seen = set()
        for n, _ in self.table:
            if n in seen:
                raise ProfileError(f"duplicate table index {n}")
            seen.add(n)
        if isinstance(self.tail, ExplicitFamily):
            raise ProfileError("explicit tail families cannot nest")
        object.__setattr__(self, "table", tuple(sorted(self.table)))

    @staticmethod
    def from_mapping(table: Mapping[int, float], tail=None) -> "ExplicitFamily":
        return ExplicitFamily(tuple(sorted((int(n), float(e)) for n, e in table.items())), tail)

    def index_range(self) -> tuple[int, int]:
        ns = [n for n, _ in self.table]
        return min(ns), max(ns)


EpsilonFamily = Union[ZeroFamily, PowerFamily, StepFamily, ExplicitFamily]

#: The central worked example: square-root decay pulling the intensity down.
DEFAULT_EPSILON = PowerFamily(gamma=0.5, sign=-1)


def epsilon_at(family: EpsilonFamily, ns) -> np.ndarray:
    """Vectorized eps_n over an integer array, computed in place in one fresh
    float array (pass floats to spare a copy); ``ns`` is never written."""
    ns = np.asarray(ns, dtype=float)
    if isinstance(family, ZeroFamily):
        return np.zeros_like(ns)
    if isinstance(family, PowerFamily):
        eps = np.maximum(ns, 2.0, out=np.empty_like(ns))  # an array also where ns is 0-d
        np.power(eps, -family.gamma, out=eps)
        np.multiply(eps, family.sign, out=eps)
        eps[ns <= 1] = 0.0
        return eps
    if isinstance(family, StepFamily):
        return np.where(ns >= 1, family.right, family.left)
    if isinstance(family, ExplicitFamily):
        eps = epsilon_at(family.tail, ns) if family.tail is not None else np.zeros_like(ns)
        keys = np.array([n for n, _ in family.table], dtype=float)
        vals = np.array([e for _, e in family.table])
        idx = np.minimum(np.searchsorted(keys, ns), len(keys) - 1)
        np.copyto(eps, vals[idx], where=keys[idx] == ns)
        return eps
    raise ProfileError(f"unknown epsilon family {family!r}")


@dataclass(frozen=True)
class IntensityProfile:
    """a_n = scale * base * exp(eps_n); base is the level, scale the sweep knob.
    The level (nonzero), exp(sup eps) and their product must be finite floats."""

    base: float
    epsilon: EpsilonFamily = field(default_factory=ZeroFamily)
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.base > 0.0:
            raise ProfileError(f"base must be positive, got {self.base}")
        if not self.scale > 0.0:
            raise ProfileError(f"scale must be positive, got {self.scale}")
        if self.level == 0.0:
            raise ProfileError(f"level of base {self.base} and scale {self.scale} underflows to 0")
        log_peak = max(0.0, math.log(self.base) + math.log(self.scale)) + max(0.0, sup_epsilon(self.epsilon))
        if not log_peak < _LOG_MAX:
            raise ProfileError(f"peak intensity of base {self.base}, scale {self.scale} and sup eps "
                               f"{sup_epsilon(self.epsilon)} overflows the float range")

    @property
    def level(self) -> float:
        """Effective constant factor scale * base."""
        return self.scale * self.base

    def scaled(self, t: float) -> "IntensityProfile":
        """The profile at t times its scale, so its intensities are t a_n."""
        return IntensityProfile(self.base, self.epsilon, self.scale * t)


def eval_intensity(profile: IntensityProfile, n: int) -> float:
    """a_n for a single index."""
    return float(intensities(profile, np.array([n]))[0])


def intensities(profile: IntensityProfile, ns) -> np.ndarray:
    """Vectorized a_n over an integer array, in the array ``epsilon_at`` returns."""
    a = epsilon_at(profile.epsilon, ns)
    np.exp(a, out=a)
    return np.multiply(a, profile.level, out=a)


class Trivalent(Enum):
    YES = "yes"
    NO = "no"
    UNDETERMINED = "undetermined"


#: Condition identifiers understood by ``condition_verdict``.
CONDITION_IDS = (
    "nonsingularity",   # sum (sqrt a_{n-1} - sqrt a_n)^2 < inf
    "l1_increments",    # sum |a_{n-1} - a_n| < inf
    "clt_regime",       # eps_n -> 0, sum eps_n^2 = inf, sum eps_n^4 < inf
    "zero_gap",         # the two asymptotic intensity levels coincide
)

_EVIDENCE_NS = (100, 1_000, 10_000, 100_000)


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    holds: Trivalent
    partial_sums: tuple[tuple[int, float], ...]
    detail: str


def _tail_family(family: EpsilonFamily) -> Optional[EpsilonFamily]:
    """The family that governs behaviour at infinity, if declared."""
    if isinstance(family, ExplicitFamily):
        return family.tail
    return family


def condition_verdict(family: EpsilonFamily, condition: str) -> tuple[Trivalent, str]:
    """Symbolic verdict and its reason for one of CONDITION_IDS, by family."""
    if condition not in CONDITION_IDS:
        raise ProfileError(f"unknown condition {condition!r}; expected one of {CONDITION_IDS}")
    tail = _tail_family(family)
    if tail is None:
        return Trivalent.UNDETERMINED, "explicit table with no declared tail"

    if condition == "nonsingularity":
        # zero/step: finitely many nonzero increments; power: increments
        # decay like n^-(gamma+1), so squares are summable for every gamma>0
        return Trivalent.YES, _describe(tail, "square-increment series converges")

    if condition == "l1_increments":
        # same increment decay, still summable in absolute value
        return Trivalent.YES, _describe(tail, "absolute-increment series converges")

    if condition == "clt_regime":
        if isinstance(tail, ZeroFamily):
            return Trivalent.NO, "eps identically 0: squared series is finite"
        if isinstance(tail, StepFamily):
            return Trivalent.NO, "step eps does not vanish at +infinity (or has finite square sum)"
        g = tail.gamma
        if 0.25 < g <= 0.5:
            return Trivalent.YES, f"power gamma={g}: sum n^-2g diverges and sum n^-4g converges"
        if g > 0.5:
            return Trivalent.NO, f"power gamma={g}: sum n^-2g converges"
        return Trivalent.NO, f"power gamma={g}: sum n^-4g diverges"

    lo, hi = _epsilon_limits(family)  # zero_gap
    if lo == hi:
        return Trivalent.YES, "both asymptotic eps limits coincide"
    return Trivalent.NO, f"asymptotic eps limits differ: {lo} vs {hi}"


def _describe(tail: EpsilonFamily, conclusion: str) -> str:
    name = type(tail).__name__
    return f"{name}: {conclusion}"


def _epsilon_limits(family: EpsilonFamily) -> Optional[tuple[float, float]]:
    """(eps at -infinity, eps at +infinity) for built-in families."""
    tail = _tail_family(family)
    if tail is None:
        return None
    if isinstance(tail, (ZeroFamily, PowerFamily)):
        return (0.0, 0.0)
    return (tail.left, tail.right)


def _evidence(profile: IntensityProfile, condition: str) -> tuple[tuple[int, float], ...]:
    """The condition's partial sum at each N of ``_EVIDENCE_NS``, from the
    cells it reads alone: eps over 2 ... N, a_{-N} and a_N, or a over
    -N ... N and one array of its differences, squared or made absolute in
    place."""
    out = []
    for N in _EVIDENCE_NS:
        if condition == "clt_regime":
            eps = epsilon_at(profile.epsilon, np.arange(2, N + 1, dtype=float))
            val = float(np.sum(np.square(eps, out=eps)))
        elif condition == "zero_gap":
            a = intensities(profile, np.array([-N, N], dtype=float))
            val = float(a[1] - a[0])
        elif condition == "nonsingularity":
            a = intensities(profile, np.arange(-N, N + 1, dtype=float))
            d = np.diff(np.sqrt(a, out=a))
            val = float(np.sum(np.square(d, out=d)))
        else:  # l1_increments; condition_verdict has refused any other condition
            d = np.diff(intensities(profile, np.arange(-N, N + 1, dtype=float)))
            val = float(np.sum(np.abs(d, out=d)))
        out.append((N, val))
    return tuple(out)


def check_condition(profile: IntensityProfile, condition: str) -> ConditionVerdict:
    """``condition_verdict`` plus the numeric partial sums of the condition
    series at N = 100 ... 100000, as audit evidence for reports."""
    holds, detail = condition_verdict(profile.epsilon, condition)
    return ConditionVerdict(condition, holds, _evidence(profile, condition), detail)


def limit_gap(profile: IntensityProfile) -> Optional[float]:
    """a_{+inf} - a_{-inf}, or None when the limits are not symbolically known.

    Both one-sided limits exist whenever a tail is declared: the
    absolute-increment series then converges.
    """
    lims = _epsilon_limits(profile.epsilon)
    if lims is None:
        return None
    lo, hi = lims
    return profile.level * (math.exp(hi) - math.exp(lo))


@dataclass(frozen=True)
class LimitSets:
    """Closed intervals of limit points of (a_n) at each end of the lattice."""

    minus: tuple[float, float]
    plus: tuple[float, float]
    disjoint: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "disjoint", self.minus[1] < self.plus[0] or self.plus[1] < self.minus[0])


def limit_sets(profile: IntensityProfile) -> Optional[LimitSets]:
    """Limit-point sets of (a_n) for n -> -inf and n -> +inf (singletons here)."""
    lims = _epsilon_limits(profile.epsilon)
    if lims is None:
        return None
    lo, hi = lims
    aminus = profile.level * math.exp(lo)
    aplus = profile.level * math.exp(hi)
    return LimitSets(minus=(aminus, aminus), plus=(aplus, aplus))


def sup_epsilon(family: EpsilonFamily) -> float:
    """Supremum of eps_n over the whole lattice (exact, by family)."""
    if isinstance(family, ZeroFamily):
        return 0.0
    if isinstance(family, PowerFamily):
        # eps vanishes for n <= 1; the n > 1 branch peaks at n = 2
        return max(0.0, family.sign * 2.0**-family.gamma)
    if isinstance(family, StepFamily):
        return max(family.left, family.right)
    table_max = max(e for _, e in family.table)
    tail_max = sup_epsilon(family.tail) if family.tail is not None else 0.0
    return max(table_max, tail_max)


def shift_difference_support(profile: IntensityProfile, n: int) -> Optional[tuple[int, Optional[int]]]:
    """Index range where a_k != a_{k-n}, i.e. where eps_k != eps_{k-n}.

    Returns None for an empty set, and (lo, None) when the set is
    unbounded above (power tails decay but never vanish).
    """
    if n == 0:
        return None
    fam = profile.epsilon
    if isinstance(fam, ZeroFamily):
        return None
    if isinstance(fam, PowerFamily):
        return (2, None)
    if isinstance(fam, StepFamily):
        if fam.left == fam.right:
            return None
        return (1, n)
    tmin, tmax = fam.index_range()
    tail = fam.tail
    if tail is None or isinstance(tail, ZeroFamily):
        return (tmin, tmax + n)
    if isinstance(tail, PowerFamily):
        return (min(2, tmin), None)
    lo = min(1, tmin)
    return (lo, max(n, tmax + n))
