"""Direct tests of the shared numerical machinery."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats as scipy_stats

from suspension_lab.numerics import (
    _GAUSS_NODES,
    SlopeFit,
    _unit_gauss_legendre,
    fit_log_slope,
    geometric_grid,
    improper_integral,
    ks_statistic,
    normal_cdf,
    semi_infinite_sum,
)
from suspension_lab.simulate import _KS_CRITICAL_1PCT


class TestImproperIntegral:
    def test_three_halves_power(self):
        # integral of t^-3/2 from a to infinity is 2 / sqrt(a)
        for a in (100.0, 4096.0, 1e7):
            got = improper_integral(lambda t: t**-1.5, a, 1.5)
            assert got == pytest.approx(2.0 / math.sqrt(a), rel=1e-14)

    def test_inverse_square(self):
        got = improper_integral(lambda t: t**-2.0, 50.0, 2.0)
        assert got == pytest.approx(1.0 / 50.0, rel=1e-14)

    def test_mixed_decay(self):
        # integral of t^-3/2 (1 + 1/t) from a: 2 a^-1/2 + (2/3) a^-3/2
        a = 1000.0
        got = improper_integral(lambda t: t**-1.5 * (1.0 + 1.0 / t), a, 1.5)
        assert got == pytest.approx(2.0 * a**-0.5 + (2.0 / 3.0) * a**-1.5, rel=1e-14)


class TestGaussLegendre:
    @staticmethod
    def oracle(n: int) -> tuple[list, list]:
        """The n-node rule on (0, 1], ascending, at 40 digits: Newton's
        method on mpmath's P_n from the cosine starts, to a step below 1e-38."""
        with mpmath.workdps(40):
            nodes, weights = [], []
            for i in range(1, n + 1):
                z = mpmath.cos(mpmath.pi * (i - mpmath.mpf(0.25)) / (n + mpmath.mpf(0.5)))
                for _ in range(50):
                    dp = n * (z * mpmath.legendre(n, z) - mpmath.legendre(n - 1, z)) / (z * z - 1)
                    step = mpmath.legendre(n, z) / dp
                    z -= step
                    if abs(step) < mpmath.mpf(10) ** -38:
                        break
                dp = n * (z * mpmath.legendre(n, z) - mpmath.legendre(n - 1, z)) / (z * z - 1)
                nodes.append((1 - z) / 2)
                weights.append(1 / ((1 - z * z) * dp * dp))
        return nodes, weights

    def test_against_mpmath(self):
        nodes, weights = _unit_gauss_legendre()
        want_nodes, want_weights = self.oracle(_GAUSS_NODES)
        assert len(nodes) == len(weights) == _GAUSS_NODES
        for got, want in zip(nodes, want_nodes):
            assert abs(got - float(want)) <= 1e-15
        # an eigenvalue-solve rule (numpy's leggauss) is off by 1.4e-11 at the end nodes
        for got, want in zip(weights, want_weights):
            assert float(abs((got - want) / want)) <= 1e-12

    def test_integrates_polynomials_exactly(self):
        # an n-node rule is exact up to degree 2n - 1
        nodes, weights = _unit_gauss_legendre()
        for k in range(2 * _GAUSS_NODES):
            got = math.fsum((weights * nodes**k).tolist())
            assert abs(got - 1.0 / (k + 1)) <= 1e-14, k


class TestSemiInfiniteSum:
    # below s = 3/2 a fixed t = a / w^2 map left a singular integrand: 33%
    # off at s = 1.05, 11% at 1.1 and 9.8e-4 at 1.3
    @pytest.mark.parametrize("s", [1.05, 1.1, 1.3, 1.5, 2.0, 3.0])
    def test_zeta_tails(self, s):
        start = 4096
        with mpmath.workdps(40):
            want = float(mpmath.zeta(s) - mpmath.nsum(lambda k: k**-s, [1, start - 1]))
        got = semi_infinite_sum(lambda t: np.power(t, -s), start, s)
        assert got == pytest.approx(want, rel=1e-13)

    def test_finite_where_the_map_is_capped(self):
        # m = 1 / (s - 1) = 1000 would take the weights past the float range
        got = semi_infinite_sum(lambda t: np.power(t, -1.001), 4096, 1.001)
        assert math.isfinite(got) and got > 0.0

    def test_rejects_tiny_start(self):
        with pytest.raises(ValueError):
            semi_infinite_sum(lambda t: np.power(t, -2.0), 8, 2.0)

    def test_rejects_decay_without_a_tail_sum(self):
        with pytest.raises(ValueError):
            semi_infinite_sum(lambda t: np.power(t, -1.0), 4096, 1.0)


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
