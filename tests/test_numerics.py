"""Direct tests of the shared numerical machinery."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats as scipy_stats

from suspension_lab.criteria import _HELLINGER, _RN, _power_eps_diff, _tail_coefficients, _unit
from suspension_lab.dist import ParameterDomainError
from suspension_lab.intensity import PowerFamily
from suspension_lab.numerics import (
    MIN_START,
    SlopeFit,
    binomial_series,
    exponential_series,
    fit_log_slope,
    geometric_grid,
    ks_statistic,
    normal_cdf,
    scaled_hurwitz_zeta,
    semi_infinite_sum,
    zeta_weights,
)
from suspension_lab.simulate import _KS_CRITICAL_1PCT


def relative_error(got: float, want) -> float:
    return float(abs((mpmath.mpf(got) - want) / want))


class TestScaledHurwitzZeta:
    # a^q zeta(q, a) for q = 1 + s, from the closure's smallest q = 1 + gamma
    # up to where mpmath's own zeta stays exact at these a
    @pytest.mark.parametrize("s", [1e-3, 0.01, 0.05, 0.3, 1.0, 2.0, 9.0])
    @pytest.mark.parametrize("a", [MIN_START, 10_000, 300_000])
    def test_against_mpmath(self, s, a):
        got = float(scaled_hurwitz_zeta(np.array([s]), float(a))[0])
        with mpmath.workdps(40):
            q = 1 + mpmath.mpf(s)
            want = mpmath.mpf(a) ** q * mpmath.zeta(q, a)
        assert relative_error(got, want) <= 1e-15

    @pytest.mark.parametrize("q", [40, 200])
    def test_large_exponents_against_a_direct_sum(self, q):
        # mpmath's zeta loses digits here (1.8e-11 at q = 51, a = 4097, 40
        # digits), so the oracle sums (a / v)^q directly until the rest, taken
        # as the integral from the midpoint, is below 1e-20 of the value
        a = MIN_START
        got = float(scaled_hurwitz_zeta(np.array([q - 1.0]), float(a))[0])
        with mpmath.workdps(40):
            stop = int(a * math.exp(50.0 / (q - 1)))
            head = mpmath.fsum((mpmath.mpf(a) / v) ** q for v in range(a, stop))
            rest = a * (a / (stop - mpmath.mpf(0.5))) ** (q - 1) / (q - 1)
            assert rest < mpmath.mpf(10) ** -20 * head
        assert relative_error(got, head + rest) <= 1e-15


class TestExponentialSeries:
    def test_single_exponential(self):
        # exp(y z) - 1 has the coefficient 1 / i! at y^i z^i and no other
        z = np.zeros(73)
        z[1] = 1.0
        got = exponential_series([(1.0, z), (-1.0, np.zeros(73))])
        for i, c in enumerate(np.diag(got), start=1):
            assert c == pytest.approx(1.0 / math.factorial(i), rel=1e-15, abs=0.0)
        np.fill_diagonal(got, 0.0)
        assert not got.any()

    def test_forms_must_cancel(self):
        one = np.zeros(73)
        one[0] = 1.0
        with pytest.raises(ValueError):
            exponential_series([(1.0, one)])  # row 0 is 1
        with pytest.raises(ValueError):
            exponential_series([(1.0, one), (-1.0, 2.0 * one)])  # column 0 is e^y - e^{2y}

    @pytest.mark.parametrize("gamma", [0.01, 0.5, 3.0])
    @pytest.mark.parametrize("t", [-1.0, 1.0])
    def test_binomial_series(self, gamma, t):
        for j, c in enumerate(binomial_series(gamma, t)):
            want = mpmath.rf(mpmath.mpf(gamma), j) * t**j / mpmath.factorial(j)
            assert relative_error(c, want) <= 1e-13


class TestSemiInfiniteSum:
    """The closure of a double series sum T_ik y^i z^k over v >= a.

    A zeta tail is the single monomial y z at n = 1.  For the growth series
    the closure must satisfy closure(a) - closure(b) = sum_{a <= v < b} of
    the terms, which checks the coefficients, the zeta values and the
    truncation together; z reaches 1/2 at n = 2^17.  The 48 x 72 cut,
    bounded in ``semi_infinite_sum``'s docstring, keeps the identity within
    3e-14 of the closure for gamma <= 3 (checked to 1e-13).  Past gamma = 3
    it does not hold relative to the closure: at gamma = 10 and n = 2^17
    the Hellinger identity is 3e-4 off.  What holds there is smallness
    against the unit: the Hellinger boundary term (e^{eps_2 / 2} - 1)^2 is
    about 4^-gamma / 4 and the closure below a (2 / a)^(2 gamma) of it,
    while the square-integral cut stays small against its own closure.  So
    past gamma = 3 the identity is checked against 1e-13 of the unit.
    """

    @pytest.mark.parametrize("s", [1.001, 1.01, 1.05, 1.1, 1.3, 1.5, 2.0, 3.0])
    def test_zeta_tails(self, s):
        coeffs = np.zeros_like(_tail_coefficients(_RN, 0.5, -1))
        coeffs[0, 0] = 1.0
        got = semi_infinite_sum(zeta_weights(coeffs, s - 1.0, MIN_START), MIN_START, 1)
        with mpmath.workdps(40):
            want = mpmath.zeta(1 + mpmath.mpf(s - 1.0), MIN_START)
        assert relative_error(got, want) <= 1e-15

    @staticmethod
    def identity_cases(gamma: float, ns):
        """(series, sign, n, closure from a, its error against the fsum of the
        terms over a <= v < a + 200000), a being the first index it serves."""
        for series in (_RN, _HELLINGER):
            lag = 1 if series.upper else 0
            for sign in (-1, 1):
                coeffs = _tail_coefficients(series, gamma, sign)
                for n in ns:
                    a = max(2 * n + 65, MIN_START)
                    v = np.arange(a, a + 200_000, dtype=float)
                    k = v + (1 - lag) * n
                    terms = series.terms(sign * np.power(v, -gamma),
                                         _power_eps_diff(gamma, sign * np.power(k, -gamma), k, float(n)))
                    closure = semi_infinite_sum(zeta_weights(coeffs, gamma, a), a, n)
                    got = closure - semi_infinite_sum(zeta_weights(coeffs, gamma, a + 200_000), a + 200_000, n)
                    yield series, sign, n, closure, abs(got - math.fsum(terms.tolist()))

    @pytest.mark.parametrize("gamma", [0.01, 0.05, 0.26, 0.3, 0.5, 0.55, 0.75, 1.0, 2.0, 3.0])
    def test_closure_identity(self, gamma):
        for series, sign, n, closure, error in self.identity_cases(gamma, (1, 16, 1024, 2**17)):
            assert error <= 1e-13 * abs(closure), (series.what, sign, n)

    @pytest.mark.parametrize("gamma", [5.0, 10.0])
    def test_cut_negligible_against_the_unit_past_gamma_3(self, gamma):
        for series, sign, n, _, error in self.identity_cases(gamma, (16, 2**17)):
            assert error <= 1e-13 * abs(_unit(PowerFamily(gamma, sign), n, series)), (series.what, sign, n)

    def test_rejects_tiny_start(self):
        coeffs = _tail_coefficients(_RN, 0.5, -1)
        with pytest.raises(ValueError):
            zeta_weights(coeffs, 0.5, 8)
        with pytest.raises(ValueError):
            semi_infinite_sum(zeta_weights(coeffs, 0.5, MIN_START), MIN_START, MIN_START // 2 + 1)

    def test_rejects_decay_without_a_tail_sum(self):
        # at gamma = 0 the monomial y z = 1 / v has no finite sum
        with pytest.raises(ValueError):
            zeta_weights(_tail_coefficients(_RN, 0.5, -1), 0.0, MIN_START)


class TestFitLogSlope:
    def test_exact_recovery(self):
        ns = geometric_grid(16, 4096)
        ys = [3.5 * math.log(n) - 2.0 for n in ns]
        fit = fit_log_slope(ns, ys, kind="demo")
        assert fit.slope == pytest.approx(3.5, abs=1e-12)
        assert fit.intercept == pytest.approx(-2.0, abs=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
        assert fit.slope_se == pytest.approx(0.0, abs=1e-12)

    def test_scaled_fit(self):
        ns = geometric_grid(16, 1024)
        ys = [2.0 * math.log(n) + 1.0 + 0.01 * (-1) ** i for i, n in enumerate(ns)]
        fit = fit_log_slope(ns, ys, kind="demo")
        double = fit.scaled(2.0)
        assert isinstance(double, SlopeFit)
        assert double.slope == pytest.approx(2.0 * fit.slope)
        assert double.residual_rms == pytest.approx(2.0 * fit.residual_rms)
        assert double.slope_se == pytest.approx(2.0 * fit.slope_se)

    @pytest.mark.parametrize("field", ["slope", "intercept", "residual_rms", "slope_se"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_refused(self, field, value):
        fields = {"slope": 1.0, "intercept": 0.0, "residual_rms": 0.0, "slope_se": 0.0, field: value}
        with pytest.raises(ParameterDomainError, match="^demo fit leaves the float range$"):
            SlopeFit(kind="demo", n_min=16, n_max=1024, **fields)

    def test_scaled_past_the_float_range_refused(self):
        fit = fit_log_slope(geometric_grid(16, 1024), [10.0 * math.log(n) for n in geometric_grid(16, 1024)],
                            kind="demo")
        assert fit.slope == pytest.approx(10.0)
        with pytest.raises(ParameterDomainError, match="^demo fit leaves the float range$"):
            fit.scaled(1e308)

    def test_overflowing_residuals_refused(self):
        # each residual is finite, but its square passes the float range
        with pytest.raises(ParameterDomainError, match="^demo fit leaves the float range$"):
            fit_log_slope([16, 32, 64], [0.0, 1e200, 0.0], kind="demo")

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_log_slope([16], [1.0], kind="demo")

    def test_refuses_zero_spread(self):
        with pytest.raises(ValueError):
            fit_log_slope([16, 16, 16], [1.0, 2.0, 3.0], kind="demo")

    def test_against_exact_least_squares(self):
        # the normal equations solved in exact rationals over the same float
        # log n; noisy data put some slopes and intercepts near 0, where
        # lstsq was off by 1e-12 relative
        for seed in range(100):
            gen = np.random.Generator(np.random.PCG64(seed))
            ns = sorted(set(gen.integers(1, 200_000, size=12).tolist()))
            ys = (gen.normal(0.0, 1.0, len(ns)) + 0.7 * np.log(ns)).tolist()
            fit = fit_log_slope(ns, ys, kind="demo")
            x = [Fraction(math.log(n)) for n in ns]
            y = [Fraction(v) for v in ys]
            k = len(x)
            x_bar, y_bar = sum(x) / k, sum(y) / k
            sxx = sum((v - x_bar) ** 2 for v in x)
            slope = sum((u - x_bar) * v for u, v in zip(x, y)) / sxx
            intercept = y_bar - slope * x_bar
            rss = sum((v - slope * u - intercept) ** 2 for u, v in zip(x, y))
            assert fit.slope == pytest.approx(float(slope), rel=1e-13, abs=0.0), seed
            assert fit.intercept == pytest.approx(float(intercept), rel=1e-13, abs=0.0), seed
            assert fit.residual_rms == pytest.approx(math.sqrt(rss / k), rel=1e-13, abs=0.0), seed
            assert fit.slope_se == pytest.approx(math.sqrt(rss / (k - 2) / sxx), rel=1e-13, abs=0.0), seed
            assert (fit.n_min, fit.n_max) == (ns[0], ns[-1])


class TestGeometricGrid:
    def test_default_window(self):
        grid = geometric_grid(16, 131_072)
        assert grid == [2**e for e in range(4, 18)]

    def test_single_point(self):
        assert geometric_grid(1, 1) == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_grid(0, 10)
        with pytest.raises(ValueError):
            geometric_grid(10, 5)


def test_kolmogorov_critical_constant():
    # the clt report's 1% critical value of the asymptotic Kolmogorov law
    assert _KS_CRITICAL_1PCT == pytest.approx(float(scipy_stats.kstwobign.isf(0.01)), rel=1e-15, abs=0.0)


class TestNormalCdfAndKs:
    def test_normal_cdf_against_scipy(self):
        xs = np.linspace(-6, 6, 101)
        got = normal_cdf(xs, mean=0.5, var=2.0)
        want = scipy_stats.norm.cdf(xs, loc=0.5, scale=math.sqrt(2.0))
        assert np.max(np.abs(got - want)) < 1e-14

    def test_ks_statistic_against_scipy(self):
        rng = np.random.Generator(np.random.PCG64(17))
        sample = np.sort(rng.normal(0.0, 1.0, 500))
        got = ks_statistic(sample, normal_cdf(sample, 0.0, 1.0))
        want = scipy_stats.kstest(sample, "norm").statistic
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_var_validation(self):
        with pytest.raises(ValueError):
            normal_cdf(0.0, var=0.0)
