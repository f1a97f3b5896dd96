"""Series units against a frozen copy of the evaluator they replaced.

``criteria._unit`` evaluates each unit by slicing one eps grid per family
and running its kernels in place.  Every step is an elementwise ufunc and
the prefix is summed by the same ``np.sum`` over an array of the same
length, so each unit must equal, bit for bit, the evaluator that built a
fresh grid per unit, kept below as ``frozen_unit``.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from suspension_lab import criteria
from suspension_lab.criteria import _HELLINGER, _RN, _span, _tail_coefficients, _unit
from suspension_lab.intensity import (ExplicitFamily, IntensityProfile, PowerFamily, StepFamily, ZeroFamily,
                                      epsilon_at)
from suspension_lab.numerics import _zeta_block

#: The terms of each series as the frozen evaluator computed them, by ``upper``.
FROZEN_TERMS = {True: lambda eps_v, d: np.exp(eps_v) * np.expm1(2.0 * d),
                False: lambda eps_v, d: np.exp(eps_v) * np.expm1(0.5 * d) ** 2}


def frozen_shift_diff(fam, n, hi, first, last, tail, lag, plain_where_unstable=False):
    """eps_{x+lag} and d_x = eps_{x+n} - eps_x for x = first - n ... hi, from a fresh grid;
    past the table d_x is the stable power difference, or, with ``plain_where_unstable``,
    the plain one wherever the stable one is not finite or eps_{x+n} is not a normal float."""
    lo = first - n
    t = np.arange(lo, hi + n + 1, dtype=float)
    eps = np.zeros_like(t)
    a, b = first - lo, last + 1 - lo
    if b > a:
        eps[a:b] = epsilon_at(fam, t[a:b])
    if tail is not None:
        eps[b:] = tail.sign * np.power(t[b:], -tail.gamma)
    m = hi - lo + 1
    d = eps[n:n + m] - eps[:m]
    if tail is not None:
        u = t[n + b:n + m]
        stable = -tail.sign * np.power(u, -tail.gamma) * np.expm1(-tail.gamma * np.log1p(-float(n) / u))
        if plain_where_unstable:
            stable = np.where(np.isfinite(stable) & (np.abs(eps[n + b:n + m]) >= np.finfo(float).tiny),
                              stable, d[b:])
        d[b:] = stable
    return eps[lag:lag + m], d


def frozen_unit(fam, n, series):
    terms = FROZEN_TERMS[series.upper]
    if isinstance(fam, ZeroFamily):
        return 0.0
    if isinstance(fam, StepFamily):
        return n * float(terms(fam.right if series.upper else fam.left, fam.right - fam.left))
    first, last, tail = _span(fam, series.what)
    lag = n if series.upper else 0
    K = max(2 * n + 64, 4096, last + lag + 64)
    with np.errstate(over="ignore", invalid="ignore"):  # the unstable cells, which take the plain difference
        eps_v, d = frozen_shift_diff(fam, n, last + 1 if tail is None else K - lag, first, last, tail, lag,
                                     plain_where_unstable=True)
    total = float(np.sum(terms(eps_v, d)))
    if tail is None:
        return total
    start = K + 1
    weights = np.sum(_tail_coefficients(series, tail.gamma, tail.sign) * _zeta_block(tail.gamma, start), axis=0)
    return total + math.fsum((weights * np.power(n / start, np.arange(1.0, 73))).tolist())


def clear_caches():
    for fn in vars(criteria).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


NS = (1, 2, 64, 200, 2016, 2017, 2**14, 2**17)
GAMMAS = (0.01, 0.26, 0.5, 0.75, 1.0, 3.0, 100.0, 2e4)
SERIES = (_RN, _HELLINGER)
TWO_ENTRIES = ExplicitFamily(((0, 0.4), (1, -0.2)), PowerFamily(0.4, -1))
#: The explicit and step families of the golden configs and the table forms the CLI tests use.
OTHER_FAMILIES = [
    TWO_ENTRIES,
    ExplicitFamily(((0, 0.4), (1, -0.2))),
    ExplicitFamily(((3, 0.0), (4, -0.3), (6, 0.0), (300, 0.0), (301, 0.0)), PowerFamily(0.5, -1)),
    ExplicitFamily(((-40, 0.3), (5, -0.1), (9000, 0.2)), PowerFamily(0.75, 1)),
    ExplicitFamily(((-5, 0.1), (2, -0.7)), ZeroFamily()),
    StepFamily(0.0, 0.5),
    StepFamily(0.0, 0.693),
    StepFamily(-0.3, 0.2),
    ZeroFamily(),
]


def mismatches(families, ns):
    """(family, n, series) whose unit is not bit-identical to the frozen one,
    the units taken in the order given with the caches cleared first."""
    clear_caches()
    return [(fam, n, series.what) for fam in families for n in ns for series in SERIES
            if _unit(fam, n, series) != frozen_unit(fam, n, series)]


class TestFrozenEvaluator:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_power_families(self, gamma):
        assert mismatches([PowerFamily(gamma, sign) for sign in (-1, 1)], NS) == []

    def test_explicit_step_and_zero_families(self):
        assert mismatches(OTHER_FAMILIES, NS) == []

    @pytest.mark.parametrize("fam", [PowerFamily(0.5, -1), PowerFamily(3.0, 1), TWO_ENTRIES],
                             ids=["power_0.5", "power_3", "two_entries"])
    def test_descending_shifts(self, fam):
        # the grid is built at the largest shift first and then only sliced
        assert mismatches([fam], sorted(NS, reverse=True)) == []

    def test_interleaved_families(self):
        # more families than the grid cache holds, each visited twice, so
        # grids are dropped and rebuilt at smaller sizes
        families = [PowerFamily(g, -1) for g in GAMMAS] + [TWO_ENTRIES]
        clear_caches()
        got = [(fam, n, s.what) for n in (2017, 64, 2**14) for fam in families for s in SERIES
               if _unit(fam, n, s) != frozen_unit(fam, n, s)]
        assert got == []

    def test_without_avx512_loops(self):
        # numpy picks its SIMD loops per CPU; the identity must hold on each
        from numpy._core._multiarray_umath import __cpu_features__
        if not __cpu_features__.get("X86_V4"):
            pytest.skip("no AVX-512 loops to turn off")
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
                               "-k", "TestFrozenEvaluator and not avx512"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert " passed" in proc.stdout and "failed" not in proc.stdout


class TestHighGamma:
    """Past gamma log(t / (t - n)) of about 709.78, expm1 overflows and the
    unit keeps the plain difference of the grid's cells."""

    @pytest.mark.parametrize("gamma", [64.0, 100.0, 1000.0])
    def test_units_finite(self, gamma):
        clear_caches()
        for sign in (-1, 1):
            for n in (16, 1024, 2**17):
                for series in SERIES:
                    assert math.isfinite(_unit(PowerFamily(gamma, sign), n, series)), (sign, n, series.what)

    def test_overflowing_cells_take_the_plain_difference(self):
        # gamma 100, n 2^17: at x = 2, t = n + 2, 100 log(65537) is about 1109;
        # eps_t = t^-100 is 0 there, so the cells whose expm1 stays finite
        # (x up to about 1200, where eps_x is still nonzero) keep it as well
        fam, n = PowerFamily(100.0, -1), 2**17
        first, last, tail = _span(fam, _HELLINGER.what)
        clear_caches()
        terms = criteria._prefix_terms(fam, n, 2 * n + 64, first, last, tail, _HELLINGER)
        with np.errstate(over="ignore", invalid="ignore"):
            _, d = frozen_shift_diff(fam, n, 2 * n + 64, first, last, tail, 0)
        bad = ~np.isfinite(d)
        assert bad[n] and bad.sum() < 200  # only cells near the prefix start overflow
        eps = epsilon_at(fam, np.arange(first - n, 3 * n + 65, dtype=float))
        plain = eps[n:n + d.size] - eps[:d.size]
        underflowed = np.abs(eps[n:n + d.size]) < np.finfo(float).tiny
        assert np.any(underflowed & ~bad & (plain != 0.0))
        want = FROZEN_TERMS[False](eps[:d.size], np.where(bad | underflowed, plain, d))
        assert np.array_equal(terms, want)

    @pytest.mark.parametrize("n", [1650, 1708, 2048, 2418])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_underflowed_cells_take_the_plain_difference(self, n, sign):
        # gamma 100 at t = n + 2: eps_t = t^-100 is subnormal (n = 1650) or 0,
        # and its product with expm1 lost the x = 2 term, half the series
        # (1.5558e-61 at n = 2048), or up to a quarter of it near n = 1700
        gamma = 100
        clear_caches()
        got = criteria.hellinger_growth(IntensityProfile(1.0, PowerFamily(float(gamma), sign)), n)
        with mpmath.workdps(50):
            def eps(t):
                return sign * mpmath.mpf(t) ** -gamma if t > 1 else mpmath.mpf(0)
            # terms past x = 400 are below 400^-199 of the sum
            want = mpmath.fsum((mpmath.exp(eps(x + n) / 2) - mpmath.exp(eps(x) / 2)) ** 2
                               for x in range(2 - n, 400))
        assert abs(got - float(want)) <= 1e-12 * float(want)


def frozen_grid(fam, first, last, tail, hi):
    """eps_t for t = first ... hi as the grid once built it: ``epsilon_at``
    over the table, and the tail's own sign t^-gamma past it (zeros without one)."""
    eps = np.zeros(hi + 1 - first)
    past = last + 1
    eps[:past - first] = epsilon_at(fam, np.arange(first, past, dtype=float))
    if tail is not None:
        eps[past - first:] = np.power(np.arange(past, hi + 1, dtype=float), -tail.gamma) * tail.sign
    return eps


NEGATIVE_TABLE = ((-40, 0.3), (-2, -0.1), (0, 0.0), (5, 0.2))
#: Power tails steep and shallow, in both signs, and tables with a power, zero or no tail.
GRID_FAMILIES = {
    **{f"power_{g}" + ("" if sign < 0 else "_plus"): PowerFamily(g, sign)
       for g in (0.01, 0.3, 0.5, 0.75, 3.0, 64.0, 100.0, 1e5) for sign in (-1, 1)},
    "two_entries": TWO_ENTRIES,
    "negative_power": ExplicitFamily(NEGATIVE_TABLE, PowerFamily(0.75, 1)),
    "negative_zero": ExplicitFamily(NEGATIVE_TABLE, ZeroFamily()),
    "negative_none": ExplicitFamily(NEGATIVE_TABLE),
    "lone_100_power": ExplicitFamily(((100, 0.3),), PowerFamily(0.5, -1)),
    "lone_100_zero": ExplicitFamily(((100, 0.3),), ZeroFamily()),
    "lone_100_none": ExplicitFamily(((100, 0.3),)),
}


def cold_peak(fn, n) -> int:
    """tracemalloc peak of one series call at shift n with every criteria cache cleared."""
    profile = IntensityProfile(1.0, PowerFamily(0.5, -1))
    fn(profile, 4)  # numpy's lazily built state is not the call's
    clear_caches()
    tracemalloc.start()
    try:
        fn(profile, n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_cold_hellinger_at_the_cap(self):
        # the grid (~3n cells), the prefix's terms (~3n) and chunk temporaries;
        # 17.0 MiB when each unit built its own t, eps and d grids
        assert cold_peak(criteria.hellinger_growth, 2**17) <= 13 * 2**20

    @pytest.mark.parametrize("fn, mib", [(criteria.hellinger_growth, 6.9), (criteria.rn_square_integral, 4.9)],
                             ids=["hellinger", "rn"])
    def test_cold_unit_grid_from_first(self, fn, mib):
        # 6.41 / 4.41 MiB: the grid over first ... 3n + 64 / 2n + 64 and the terms, as long,
        # and chunk temporaries; 1 MiB more when the grid held a zero for each of the n cells below first
        assert cold_peak(fn, 2**17) <= mib * 2**20

    @pytest.mark.parametrize("fam", GRID_FAMILIES.values(), ids=GRID_FAMILIES.keys())
    def test_grid_holds_no_cell_below_first(self, fam):
        first, last, tail = _span(fam, _HELLINGER.what)
        # grown in five steps, up to the largest request a Hellinger fit makes,
        # the grid holds the bytes of the formula it replaced, -0.0 cells included
        clear_caches()
        grid = criteria._eps_grid(fam, first)
        for hi in (last + 1, 300, 4_200, 70_000, 3 * 2**17 + 64):
            view = grid.upto(hi)
            assert grid.eps.size == view.size == hi + 1 - first
            assert view.tobytes() == frozen_grid(fam, first, last, tail, hi).tobytes(), hi
        # a Hellinger unit at n = 2^12 sums x = first - n ... 2n + 64 (or to the
        # table's end + 1 without a tail) and reads eps_{x+n}
        n = 2**12
        clear_caches()
        _unit(fam, n, _HELLINGER)
        grid = criteria._eps_grid(fam, first)
        hi = 3 * n + 64 if tail is not None else last + 1 + n
        assert grid.eps.size == hi - first + 1
        assert np.array_equal(grid.eps, epsilon_at(fam, np.arange(first, hi + 1, dtype=float)))

    def test_cold_small_unit(self):
        # a grid sized by the request, not by the largest shift a fit may ask for
        assert cold_peak(criteria.rn_square_integral, 64) <= 0.5 * 2**20
