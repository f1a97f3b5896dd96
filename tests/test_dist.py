"""Distribution-kernel tests against independent oracles.

Oracles used here deliberately avoid the code paths they check:
arbitrary-precision evaluation (mpmath) for the Poisson pmf, for the Skellam
pmf through its Bessel form e^{-(a+b)} (a/b)^{k/2} I_k(2 sqrt(ab)) and for
the Skellam tail as a sum of incomplete gamma functions, direct
Poisson-convolution sums for the Skellam pmf, Fourier sums for the
characteristic function, and definitional sums for the Hellinger distance.
"""

import functools
import math
import re
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from suspension_lab.dist import (
    LOG_ZERO,
    TAIL_MAX_RATE,
    THRESHOLD_L_MAX,
    ParameterDomainError,
    SkellamLaw,
    hellinger_sq_poisson,
    poisson_log_pmf,
    poisson_pmf,
    skellam_cf,
    skellam_moments,
    skellam_pmf,
    skellam_pmf_row,
    skellam_support_cutoff,
    skellam_tail,
    skellam_tail_bound,
    skellam_tail_threshold,
)

GRID = (0.1, 0.5, 1.0, 2.0, 5.0)


def conv_oracle(a: float, b: float, k: int, jmax: int = 250) -> float:
    """P(X - Y = k) by direct truncated convolution of the two Poisson pmfs."""
    total = 0.0
    for j in range(jmax):
        if k + j < 0:
            continue
        total += poisson_pmf(a, k + j) * poisson_pmf(b, j)
    return total


def _tail_by_convolution(a: float, b: float, L: int) -> float:
    """sum_{|k| >= L} P(X - Y = k), from the direct convolution of the two
    Poisson pmfs (each from its log-pmf, over mean + 12 sd + 30)."""
    def pmf(rate):
        k = np.arange(int(rate + 12.0 * math.sqrt(rate + 1.0) + 30.0))
        if rate == 0.0:
            return (k == 0).astype(float)
        return np.exp(-rate + k * math.log(rate) - gammaln(k + 1))

    pa, pb = pmf(a), pmf(b)
    diff = np.convolve(pa, pb[::-1])  # diff[i] = P(X - Y = i - (len(pb) - 1))
    ks = np.arange(len(diff)) - (len(pb) - 1)
    return math.fsum(diff[np.abs(ks) >= L].tolist())


class TestPoissonLogPmf:
    def test_mass_closes(self):
        assert math.fsum(poisson_pmf(2.5, k) for k in range(120)) == pytest.approx(1.0, abs=1e-13)

    def test_rate_one_at_zero(self):
        assert poisson_log_pmf(1.0, 0) == -1.0

    def test_rate_two_at_two(self):
        assert poisson_log_pmf(2.0, 2) == pytest.approx(math.log(2.0) - 2.0, abs=1e-15)

    def test_small_rate_against_mpmath(self):
        # arbitrary-precision factorial oracle
        with mpmath.workdps(60):
            expected = float(mpmath.log(mpmath.exp(-mpmath.mpf("0.1"))
                                        * mpmath.mpf("0.1") ** 7 / mpmath.factorial(7)))
        assert poisson_log_pmf(0.1, 7) == pytest.approx(expected, abs=1e-13)

    def test_degenerate_atom_sentinel(self):
        assert poisson_log_pmf(0.0, 0) == 0.0
        assert poisson_log_pmf(0.0, 3) == LOG_ZERO

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterDomainError):
            poisson_log_pmf(-0.5, 1)

    def test_normalisation(self):
        for rate in GRID:
            s = math.fsum(math.exp(poisson_log_pmf(rate, k)) for k in range(200))
            assert s == pytest.approx(1.0, abs=1e-13)


def _skellam_oracle(a: float, b: float, k: int) -> float:
    """P(X - Y = k) at 50 digits: e^{-(a+b)} (a/b)^{k/2} I_k(2 sqrt(ab)), or
    the (reflected) Poisson pmf where a rate is 0."""
    with mpmath.workdps(50):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        if a == 0.0 or b == 0.0:
            rate, m = (a_, k) if b == 0.0 else (b_, -k)
            return float(mpmath.exp(-rate) * rate**m / mpmath.factorial(m)) if m >= 0 else 0.0
        return float(mpmath.exp(-(a_ + b_)) * (a_ / b_) ** (mpmath.mpf(k) / 2)
                     * mpmath.besseli(k, 2 * mpmath.sqrt(a_ * b_)))


class TestBessel:
    """I_k(z) through the Skellam row: the pmf of the law (z/2, z/2) at k is
    e^{-z} I_k(z), checked against mpmath's ``besseli``."""

    def test_order_zero_at_zero(self):
        assert skellam_pmf(SkellamLaw(0.0, 0.0), 0) == 1.0

    def test_positive_order_at_zero(self):
        assert skellam_pmf(SkellamLaw(0.0, 0.0), 3) == 0.0

    def test_series_against_mpmath(self):
        with mpmath.workdps(60):
            expected = float(mpmath.exp(-2) * mpmath.besseli(0, 2))
        assert skellam_pmf(SkellamLaw(1.0, 1.0), 0) == pytest.approx(expected, abs=1e-13)

    @given(k=st.integers(-20, 20), z=st.floats(0.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_order_symmetry(self, k, z):
        law = SkellamLaw(z / 2, z / 2)
        assert skellam_pmf(law, k) == skellam_pmf(law, -k)

    @pytest.mark.parametrize("k", [0, 1, 5, 17])
    @pytest.mark.parametrize("z", [0.3, 2.0, 9.5])
    def test_against_mpmath_grid(self, k, z):
        with mpmath.workdps(60):
            expected = float(mpmath.exp(-z) * mpmath.besseli(k, z))
        assert skellam_pmf(SkellamLaw(z / 2, z / 2), k) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k, z", [(0, 800.0), (3, 800.0), (1, 5000.0), (40, 18000.0)])
    def test_large_argument_against_mpmath(self, k, z):
        # past z = 713, I_k(z) alone overflows a double; e^{-z} I_k(z) does not
        expected = float(mpmath.exp(-z) * mpmath.besseli(k, z))
        assert skellam_pmf(SkellamLaw(z / 2, z / 2), k) == pytest.approx(expected, rel=1e-13)


class TestSkellamPmf:
    def test_degenerate_b_is_poisson(self):
        law = SkellamLaw(1.0, 0.0)
        for m in range(6):
            assert skellam_pmf(law, m) == pytest.approx(math.exp(-1.0) / math.factorial(m), rel=1e-14)
        assert skellam_pmf(law, -1) == 0.0

    def test_degenerate_a_is_reflected_poisson(self):
        law = SkellamLaw(0.0, 2.0)
        assert skellam_pmf(law, -3) == pytest.approx(poisson_pmf(2.0, 3), rel=1e-14)
        assert skellam_pmf(law, 1) == 0.0

    @given(a=st.floats(0.05, 5.0), k=st.integers(-25, 25))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_when_equal(self, a, k):
        law = SkellamLaw(a, a)
        assert skellam_pmf(law, k) == skellam_pmf(law, -k)

    def test_center_value_against_convolution(self):
        got = skellam_pmf(SkellamLaw(1.0, 1.0), 0)
        want = math.fsum(poisson_pmf(1.0, j) ** 2 for j in range(61))
        assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("a", GRID)
    @pytest.mark.parametrize("b", GRID)
    def test_grid_against_convolution(self, a, b):
        law = SkellamLaw(a, b)
        for k in range(-30, 31):
            assert skellam_pmf(law, k) == pytest.approx(conv_oracle(a, b, k), abs=1e-12)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ParameterDomainError):
            SkellamLaw(-0.1, 1.0)

    def test_normalisation(self):
        # one-ulp overshoot above 1 is float summation noise, not excess mass
        for a in GRID:
            for b in GRID:
                law = SkellamLaw(a, b)
                s = math.fsum(skellam_pmf_row(law, skellam_support_cutoff(law)))
                assert 1.0 - 1e-12 <= s <= 1.0 + 1e-15

    @pytest.mark.parametrize("a, b, k", [
        (1.0, 0.6, -3), (1.0, 0.6, 0), (1.0, 0.6, 4),
        (0.5, 0.5, 25), (1e-3, 1e-3, 5), (1e-3, 2.0, -1),
        (3.0, 0.0, 2), (3.0, 0.0, -1), (0.0, 2.0, -3), (0.0, 2.0, 1), (0.0, 0.0, 0),
        (1e4, 0.0, 10_000), (0.0, 1e4, -9_900),
        (10.0, 10.0, 0), (10.0, 3.0, 20), (200.0, 150.0, 40), (200.0, 200.0, -60),
        (1e3, 1e2, 900), (1e4, 1e4, 0), (1e4, 1e4, 300), (1e4, 3e3, -50),
        (1e5, 9e4, 100), (9e4, 1e5, -100), (1e5, 1e5, 0), (1e5, 1e5, -700),
    ])
    def test_against_mpmath(self, a, b, k):
        # up to the sampler's rate cap 1e5, with no refusal; a zero oracle is met exactly
        got, want = skellam_pmf(SkellamLaw(a, b), k), _skellam_oracle(a, b, k)
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("a, b", [(0.1, 5.0), (1.0, 1.0), (2.0, 0.0), (0.0, 0.5), (150.0, 1.0), (400.0, 400.0)])
    def test_row_matches_pointwise(self, a, b):
        law = SkellamLaw(a, b)
        C = skellam_support_cutoff(law)
        row = skellam_pmf_row(law, C)
        assert len(row) == 2 * C + 1
        for k, p in zip(range(-C, C + 1), row):
            assert p == pytest.approx(skellam_pmf(law, k), rel=0, abs=1e-15)


class TestSkellamCf:
    def test_at_zero(self):
        assert skellam_cf(SkellamLaw(1.0, 1.0), 0.0) == pytest.approx(1.0)

    def test_at_pi(self):
        assert skellam_cf(SkellamLaw(1.0, 1.0), math.pi) == pytest.approx(math.exp(-4.0), abs=1e-14)

    def test_against_fourier_sum(self):
        law = SkellamLaw(0.5, 2.0)
        t = 1.0
        want = sum(skellam_pmf(law, k) * complex(math.cos(k * t), math.sin(k * t))
                   for k in range(-60, 61))
        assert abs(skellam_cf(law, t) - want) < 1e-10

    @given(a=st.floats(0.0, 5.0), b=st.floats(0.0, 5.0), t=st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_modulus_bounded(self, a, b, t):
        phi = skellam_cf(SkellamLaw(a, b), t)
        assert abs(phi) <= 1.0 + 1e-12
        assert skellam_cf(SkellamLaw(a, b), 0.0) == pytest.approx(1.0)

    def test_reconstruction_grid(self):
        law = SkellamLaw(1.0, 2.0)
        C = skellam_support_cutoff(law)
        pmf = dict(zip(range(-C, C + 1), skellam_pmf_row(law, C)))
        for j in range(32):
            t = 0.1 * j
            want = sum(p * complex(math.cos(k * t), math.sin(k * t)) for k, p in pmf.items())
            assert abs(skellam_cf(law, t) - want) < 1e-10


class TestCenteredCfAlgebra:
    """The centered cf of a scaled Skellam difference collapses to
    exp(-4 a sin^2(t e / 2) + a (e^e - 1)(e^{-i t e} - 1 + i t e)) when the
    two rates are (a, a e^e); this identity drives the normalized-sum limit."""

    @pytest.mark.parametrize("e", [-0.5, -0.05, 0.3])
    @pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
    def test_identity(self, e, t):
        import cmath

        a = 1.3
        law = SkellamLaw(a, a * math.exp(e))
        mean = a - a * math.exp(e)
        te = t * e
        # X = e * (difference); centered cf at t
        lhs = skellam_cf(law, te) * cmath.exp(-1j * te * mean)
        rhs = cmath.exp(-4.0 * a * math.sin(te / 2.0) ** 2
                        + a * (math.exp(e) - 1.0) * (cmath.exp(-1j * te) - 1.0 + 1j * te))
        assert abs(lhs - rhs) < 1e-12


class TestSkellamMoments:
    def test_symmetric(self):
        assert skellam_moments(SkellamLaw(1.0, 1.0)) == (0.0, 2.0)

    def test_poisson_case(self):
        assert skellam_moments(SkellamLaw(3.0, 0.0)) == (3.0, 3.0)

    def test_against_pmf_sums(self):
        law = SkellamLaw(0.2, 0.7)
        mean, var = skellam_moments(law)
        assert (mean, var) == (pytest.approx(-0.5), pytest.approx(0.9))
        C = skellam_support_cutoff(law)
        pmf = list(zip(range(-C, C + 1), skellam_pmf_row(law, C)))
        m1 = math.fsum(k * p for k, p in pmf)
        m2 = math.fsum(k * k * p for k, p in pmf)
        assert m1 == pytest.approx(mean, abs=1e-10)
        assert m2 - m1 * m1 == pytest.approx(var, abs=1e-10)


class TestSkellamTail:
    def test_first_tail_is_complement(self):
        law = SkellamLaw(1.0, 1.0)
        est = skellam_tail(law, 1)
        assert est.exact == pytest.approx(1.0 - skellam_pmf(law, 0), abs=1e-13)

    def test_monotone_in_l(self):
        law = SkellamLaw(2.0, 0.5)
        tails = [skellam_tail(law, L).exact for L in range(1, 31)]
        assert all(b <= a for a, b in zip(tails, tails[1:]))

    def test_monotone_in_l_across_grid(self):
        # suffix sums of the pmf reproduce the tails and are nested by L
        for a in GRID:
            for b in GRID:
                law = SkellamLaw(a, b)
                C = skellam_support_cutoff(law)
                pmf = np.array(skellam_pmf_row(law, C))
                dist_from_zero = np.abs(np.arange(-C, C + 1))
                tails = np.array([pmf[dist_from_zero >= L].sum() for L in range(1, 31)])
                assert np.all(np.diff(tails) <= 0)
                probe = skellam_tail(law, 7).exact
                assert probe == pytest.approx(float(tails[6]), abs=1e-15)

    def test_small_symmetric_tail(self):
        est = skellam_tail(SkellamLaw(0.5, 0.5), 10)
        assert est.exact < 1e-8
        assert est.exact <= est.bound

    @pytest.mark.parametrize("a", GRID)
    @pytest.mark.parametrize("b", GRID)
    def test_exact_below_bound_grid(self, a, b):
        law = SkellamLaw(a, b)
        for L in range(1, 31):
            est = skellam_tail(law, L)
            assert est.exact <= est.bound

    def test_invalid_l(self):
        with pytest.raises(ParameterDomainError):
            skellam_tail(SkellamLaw(1.0, 1.0), 0)

    @pytest.mark.parametrize("a, b, L", [
        (150.0, 1.0, 3),     # mean 149: terms below 1e-18 at k = 3.. lie before the mean
        (150.0, 1.0, 140),
        (1.0, 150.0, 3),
        (60.0, 0.0, 2),
        (380.0, 380.0, 2),   # the unscaled Bessel series factor overflows past z = 713
        (400.0, 400.0, 3),
        (400.0, 400.0, 60),
    ])
    def test_tail_against_convolution(self, a, b, L):
        oracle = _tail_by_convolution(a, b, L)
        est = skellam_tail(SkellamLaw(a, b), L)
        assert est.exact == pytest.approx(oracle, rel=1e-10)
        assert est.exact <= est.bound

    def test_rates_beyond_the_walk_refused(self):
        with pytest.raises(ParameterDomainError):
            skellam_tail(SkellamLaw(2 * TAIL_MAX_RATE, 0.0), 3)

    def test_bound_capped_at_one(self):
        # at a = b = 27, L = 20 each uncapped term is about e^725 and
        # overflows a double; the bound is on a probability, so it caps at 1
        est = skellam_tail(SkellamLaw(27.0, 27.0), 20)
        assert est.bound == 1.0
        assert 0.0 < est.exact <= est.bound
        for a, b, L in ((3.0, 2.0, 1), (50.0, 0.0, 5), (1e3, 1e3, 1)):
            assert skellam_tail_bound(SkellamLaw(a, b), L) == 1.0

    def test_threshold_is_certified(self):
        L = skellam_tail_threshold(1.0)
        # beyond the threshold the grid-sup exact tail stays below l^-8
        for l in (L, L + 1, L + 5):
            sup_exact = max(skellam_tail(SkellamLaw(a, b), l).exact
                            for a in (0.25, 0.5, 0.75, 1.0) for b in (0.25, 0.5, 0.75, 1.0))
            assert sup_exact <= l**-8
        # and one step earlier the corner tail does not satisfy the bound route
        assert skellam_tail(SkellamLaw(1.0, 1.0), L - 1).bound > (L - 1) ** -8


class TestTailThreshold:
    # L from the bound's maximum over a 0.25-step grid of the box: the corner alone gives it
    @pytest.mark.parametrize("limit, L", [
        (0.01, 2), (0.1, 4), (0.25, 6), (0.5, 9), (1.0, 13), (math.exp(0.5), 17), (1.5, 16),
        (2.0, 20), (3.0, 27), (4.0, 34), (4.7, 40), (5.0, 43), (5.5, 47),
    ])
    def test_same_threshold_as_grid_search(self, limit, L):
        assert skellam_tail_threshold(limit) == L

    @pytest.mark.parametrize("limit", [5.9, 6.0, 20.0, 1e3])
    def test_no_threshold_refused(self, limit):
        # at 5.9 some L passes the decrease condition but not the bound; at
        # 1e3 none passes the condition: one message for both
        message = f"no threshold found up to l_max={THRESHOLD_L_MAX} for limit={limit}"
        with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
            skellam_tail_threshold(limit)

    @given(limit=st.floats(0.01, 6.0), u=st.floats(0.0, 1.0, exclude_min=True),
           v=st.floats(0.0, 1.0, exclude_min=True), L=st.integers(1, THRESHOLD_L_MAX))
    @settings(max_examples=300, deadline=None)
    def test_bound_largest_at_the_corner(self, limit, u, v, L):
        # the slack covers rounding next to the corner, where the two are equal
        corner = skellam_tail_bound(SkellamLaw(limit, limit), L)
        assert skellam_tail_bound(SkellamLaw(u * limit, v * limit), L) <= corner * (1.0 + 1e-12)

    def test_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(ParameterDomainError):
            skellam_tail_threshold(20.0)
        assert time.perf_counter() - t0 < 0.05


@functools.lru_cache(maxsize=None)
def _one_sided_tail(a: float, b: float, L: int) -> mpmath.mpf:
    """P(X - Y >= L) = sum_j P(Y = j) gammainc(L + j, 0, a, regularized=True)
    for X ~ Poisson(a), Y ~ Poisson(b), at 40 digits.

    j runs over Y's whole significant range, 0 to b + 20 sd + 50: the
    dominant j of a deep tail lie well below Y's mean.  P(X >= m) is the
    regularized incomplete gamma at the top m = L + J only and is carried
    down by P(X >= m) = P(X >= m + 1) + P(X = m), a sum of positive terms.
    """
    if a == 0.0:
        return mpmath.mpf(0)
    with mpmath.workdps(40):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        J = int(b + 20.0 * math.sqrt(b) + 50.0) if b else 0
        x_tail = mpmath.gammainc(L + J, 0, a_, regularized=True)  # P(X >= L + J)
        px = mpmath.exp(-a_ + (L + J - 1) * mpmath.log(a_) - mpmath.loggamma(L + J))  # P(X = L + J - 1)
        py = mpmath.exp(-b_ + J * mpmath.log(b_) - mpmath.loggamma(J + 1)) if b else mpmath.mpf(1)
        total = py * x_tail
        for j in range(J, 0, -1):
            x_tail += px  # P(X >= L + j - 1)
            px *= (L + j - 1) / a_
            py *= j / b_
            total += py * x_tail
        return +total


def _tail_oracle(a: float, b: float, L: int) -> float:
    """sum_{|k| >= L} P(X - Y = k): the one-sided tail plus its mirror."""
    return float(_one_sided_tail(a, b, L) + _one_sided_tail(b, a, L))


ORACLE_RATES = (0.0, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3)


def _oracle_cases():
    """Two of the seven L kinds {1, 2, 4, C/2, C, C + 10, C + 40} per (a, b),
    chosen symmetrically in (a, b), so the mirrored law reuses both cached
    one-sided tails, and every kind is met across the grid."""
    for i, a in enumerate(ORACLE_RATES):
        for j, b in enumerate(ORACLE_RATES):
            C = skellam_support_cutoff(SkellamLaw(a, b))
            kinds = (1, 2, 4, C // 2, C, C + 10, C + 40)
            for kind in sorted({(i + j + 6) % 7, (i + j + 2) % 7}):
                yield pytest.param(a, b, kinds[kind], id=f"{a}-{b}-L{kinds[kind]}")


class TestSkellamTailOracle:
    @pytest.mark.parametrize("a, b, L", list(_oracle_cases()))
    def test_against_incomplete_gamma_oracle(self, a, b, L):
        exact = skellam_tail(SkellamLaw(a, b), L).exact
        oracle = _tail_oracle(a, b, L)
        assert abs(exact - oracle) <= 1e-13 * oracle or abs(exact - oracle) <= 1e-300

    def test_oracle_matches_gammainc_term_by_term(self):
        # the carried-down P(X >= L + j) against one gammainc call per j
        def one_sided(x, y, L):
            J = int(y + 20.0 * math.sqrt(y) + 50.0)
            return mpmath.fsum(mpmath.exp(-y) * mpmath.mpf(y) ** j / mpmath.factorial(j)
                               * mpmath.gammainc(L + j, 0, x, regularized=True) for j in range(J + 1))

        for a, b, L in ((1.0, 0.6, 4), (10.0, 2.0, 15), (0.1, 3.0, 2)):
            with mpmath.workdps(40):
                direct = float(one_sided(a, b, L) + one_sided(b, a, L))
            assert _tail_oracle(a, b, L) == pytest.approx(direct, rel=1e-15)

    def test_deep_tail_at_the_rate_cap(self):
        # 2 * fsum(exp(-b + j log b - loggamma(j + 1)) * gammainc(1727 + j, 0, a,
        # regularized=True) for j in range(12051)) at mpmath.workdps(30), with
        # a = b = mpf(10000): the two one-sided tails are equal
        exact = skellam_tail(SkellamLaw(1e4, 1e4), 1727).exact
        assert exact == pytest.approx(2.9404764584215205e-34, rel=1e-13)

    @pytest.mark.parametrize("a, b", [(1e4, 3000.0), (9000.0, 9000.0)])
    def test_wide_rows_are_fast(self, a, b):
        t0 = time.perf_counter()
        skellam_tail(SkellamLaw(a, b), 1)
        assert time.perf_counter() - t0 < 1.0

    def test_past_the_float_range_no_row(self):
        # the Chernoff bounds underflow long before a row of 1e9 terms could be built
        assert skellam_tail(SkellamLaw(1e4, 1e4), 10**9).exact == 0.0
        assert skellam_tail(SkellamLaw(0.0, 0.0), 10**9).exact == 0.0
        assert skellam_tail(SkellamLaw(1e-3, 1e-3), 82).exact == 0.0  # the oracle: 4.2e-369

    def test_subnormal_rate(self):
        # a / (k + b r) underflows to 0 past k = 1: its log comes from the difference of logs
        est = skellam_tail(SkellamLaw(1e-322, 1.0), 3)
        assert est.exact == pytest.approx(_tail_oracle(0.0, 1.0, 3), rel=1e-13)


class TestHellinger:
    def test_identical_laws(self):
        assert hellinger_sq_poisson(1.7, 1.7) == 0.0

    def test_one_four(self):
        assert hellinger_sq_poisson(1.0, 4.0) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-15)

    def definitional(self, a: float, b: float, kmax: int = 200) -> float:
        return 0.5 * math.fsum(
            (math.sqrt(poisson_pmf(a, k)) - math.sqrt(poisson_pmf(b, k))) ** 2
            for k in range(kmax)
        )

    def test_against_definitional_sum(self):
        assert hellinger_sq_poisson(0.3, 2.7) == pytest.approx(self.definitional(0.3, 2.7), abs=1e-10)

    @pytest.mark.parametrize("a", GRID)
    @pytest.mark.parametrize("b", GRID)
    def test_definitional_grid(self, a, b):
        assert hellinger_sq_poisson(a, b) == pytest.approx(self.definitional(a, b), abs=1e-10)

    @given(a=st.floats(0.0, 10.0), b=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_zero_iff_equal(self, a, b):
        h = hellinger_sq_poisson(a, b)
        assert h == hellinger_sq_poisson(b, a)
        assert 0.0 <= h <= 1.0
        if a == b:
            assert h == 0.0
        elif abs(math.sqrt(a) - math.sqrt(b)) > 1e-8:
            assert h > 0.0
