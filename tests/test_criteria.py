"""Certificate-layer tests.

The series evaluator is checked against wide-window brute-force oracles
for both series: literal term-by-term summation over |k| <= 1e7 or 1e6 (no
expm1 restructuring, a genuinely different arithmetic route) plus an
independent quadrature estimate of the remaining tail (scipy.integrate.quad
from the midpoint in 50-digit arithmetic, which differs from the production
Hurwitz-zeta closure).
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from suspension_lab import cli, intensity
from suspension_lab.criteria import (
    GapNotZeroError,
    HELLINGER_FIT_RANGE,
    RN_FIT_RANGE,
    Verdict,
    bifurcation_bracket,
    classify,
    conservativity_certificate,
    continuous_base_bound,
    dissipativity_series,
    hellinger_growth,
    hellinger_slope_fit,
    nonsingularity_deficit,
    rn_slope_fit,
    rn_square_integral,
)
from suspension_lab.dist import ParameterDomainError, hellinger_sq_poisson
from suspension_lab.intensity import (
    ExplicitFamily,
    IntensityProfile,
    MAX_WINDOW,
    PowerFamily,
    ProfileError,
    StepFamily,
    Trivalent,
    ZeroFamily,
    check_condition,
    intensities,
    limit_gap,
)
from suspension_lab.numerics import geometric_grid
from suspension_lab.sampling import RNGSpec
from suspension_lab.simulate import clt_experiment, hopf_diagnostic

HALF = PowerFamily(gamma=0.5, sign=-1)


def eps_power(t, gamma: float = 0.5, sign: int = -1):
    t = np.asarray(t, dtype=float)
    return np.where(t > 1, sign * np.power(np.maximum(t, 2.0), -gamma), 0.0)


def quadrature_tail(value, width: int, gamma: float, at_zero: float) -> float:
    """Integral of a term f(t) over [width + 1/2, inf), the midpoint of the
    first term left out of the literal sum.

    f cancels catastrophically in doubles, so ``value(u, t)`` evaluates it
    in 50-digit arithmetic; the substitution u = t^(-gamma), under which
    eps(t) = sign * u, maps the slow t^(-1 - gamma) decay onto a bounded
    integrand on a finite interval, whose value at u = 0 is ``at_zero``,
    and adaptive quadrature handles it directly.
    """
    def g(u):
        if u <= 0.0:
            return at_zero
        with mpmath.workdps(50):
            u = mpmath.mpf(u)
            t = u ** (-1 / mpmath.mpf(gamma))
            return float(value(u, t) * t / (gamma * u))  # dt = t / (gamma u) du

    tail, err = integrate.quad(g, 0.0, (width + 0.5) ** -gamma, epsabs=1e-14, epsrel=1e-13, limit=400)
    assert err < 1e-12 * max(1.0, abs(tail))
    return tail


def rn_brute_force(n: int, width: int = 10**7, gamma: float = 0.5, sign: int = -1) -> float:
    """Literal sum of e^{3 eps_k - 2 eps_{k-n}} - e^{eps_k} over 2..width,
    plus an independent quadrature tail."""
    total = 0.0
    for lo in range(2, width + 1, 1_000_000):
        hi = min(lo + 1_000_000, width + 1)
        k = np.arange(lo, hi, dtype=float)
        eps_k, eps_kn = eps_power(k, gamma, sign), eps_power(k - n, gamma, sign)
        total += float(np.sum(np.exp(3.0 * eps_k - 2.0 * eps_kn) - np.exp(eps_k)))

    def value(u, t):
        return mpmath.exp(3 * sign * u - 2 * sign * (t - n) ** -mpmath.mpf(gamma)) - mpmath.exp(sign * u)

    return total + quadrature_tail(value, width, gamma, -2.0 * n * sign)


def hellinger_brute_force(n: int, width: int = 10**7, gamma: float = 0.5, sign: int = -1) -> float:
    """Literal evaluation of the boundary block plus the shifted block, plus
    an independent quadrature tail."""
    j = np.arange(1, n + 2, dtype=float)
    block1 = float(np.sum((np.exp(eps_power(j, gamma, sign) / 2.0) - 1.0) ** 2))
    block2 = 0.0
    for lo in range(2, width + 1, 1_000_000):
        hi = min(lo + 1_000_000, width + 1)
        k = np.arange(lo, hi, dtype=float)
        block2 += float(np.sum((np.exp(eps_power(k + n, gamma, sign) / 2.0)
                                - np.exp(eps_power(k, gamma, sign) / 2.0)) ** 2))

    def value(u, t):
        return (mpmath.exp(sign * (t + n) ** -mpmath.mpf(gamma) / 2) - mpmath.exp(sign * u / 2)) ** 2

    return block1 + block2 + quadrature_tail(value, width, gamma, 0.0)


#: Power tails decaying slower than k^-3/2 in the square-integral series, and
#: shifts on both sides of the exact prefix's 4096 cells.
SLOW_DECAY = [*((gamma, -1, n) for gamma in (0.26, 0.3, 0.4) for n in (16, 1024)), (0.3, 1, 16),
              *((gamma, sign, n) for gamma in (0.55, 0.6, 0.75) for sign in (-1, 1) for n in (16, 1024))]


class TestNonsingularityDeficit:
    def test_zero_family(self):
        p = IntensityProfile(1.0)
        for N in (1, 10, 1000):
            assert nonsingularity_deficit(p, N) == 0.0

    def test_monotone_and_bounded(self):
        p = IntensityProfile(1.0, HALF)
        vals = [nonsingularity_deficit(p, N) for N in (10, 100, 1_000, 10_000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0  # convergent series: tiny total mass

    def test_term_by_term_oracle(self):
        p = IntensityProfile(0.7, HALF, scale=1.3)
        N = 500
        ns = np.arange(-N, N + 1)
        a = intensities(p, ns)
        a_next = intensities(p, ns + 1)
        want = math.fsum(2.0 * hellinger_sq_poisson(x, y) for x, y in zip(a, a_next))
        assert nonsingularity_deficit(p, N) == pytest.approx(want, abs=1e-12)


class TestRnSquareIntegral:
    def test_zero_family(self):
        p = IntensityProfile(1.0)
        for n in (1, 5, 50):
            assert rn_square_integral(p, n) == 0.0

    def test_refuses_nonzero_gap(self):
        p = IntensityProfile(1.0, StepFamily(0.0, 0.5))
        with pytest.raises(GapNotZeroError):
            rn_square_integral(p, 3)

    def test_slope_fit_refuses_nonzero_gap(self):
        # the fit is of the same series, whose derivation needs the gap to vanish
        p = IntensityProfile(1.0, StepFamily(0.0, 0.5))
        with pytest.raises(GapNotZeroError, match="^rn_slope_fit requires a vanishing asymptotic gap"):
            rn_slope_fit(p)

    def test_brute_force_oracle_n10(self):
        p = IntensityProfile(0.1, HALF)
        want = 0.1 * rn_brute_force(10)
        assert rn_square_integral(p, 10) == pytest.approx(want, abs=1e-8)

    def test_brute_force_oracle_n37(self):
        p = IntensityProfile(1.0, HALF)
        want = rn_brute_force(37)
        assert rn_square_integral(p, 37) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("gamma, sign, n", SLOW_DECAY)
    def test_slow_decay_against_brute_force(self, gamma, sign, n):
        p = IntensityProfile(1.0, PowerFamily(gamma, sign))
        want = rn_brute_force(n, 10**6, gamma, sign)
        assert rn_square_integral(p, n) == pytest.approx(want, rel=1e-12)

    def test_nonnegative_nondecreasing(self):
        p = IntensityProfile(1.0, HALF)
        vals = [rn_square_integral(p, n) for n in geometric_grid(16, 2**14)]
        assert all(v >= 0.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_level_linearity(self):
        p1 = IntensityProfile(1.0, HALF)
        p2 = IntensityProfile(0.5, HALF, scale=7.0)
        assert rn_square_integral(p2, 64) == pytest.approx(3.5 * rn_square_integral(p1, 64), rel=1e-14)

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0])
    def test_slope_band(self, a):
        fit = rn_slope_fit(IntensityProfile(a, HALF))
        assert 5.7 * a <= fit.slope <= 6.3 * a
        assert fit.n_min == RN_FIT_RANGE[0] and fit.n_max == RN_FIT_RANGE[1]

    def test_local_slopes_converge_to_asymptotes(self):
        # two-point slopes far beyond the fit window close in on the
        # asymptotic growth constants (6 and 1/2 per unit level)
        p = IntensityProfile(1.0, HALF)

        def local(fn, e):
            return (fn(p, 2**e) - fn(p, 2 ** (e - 1))) / math.log(2.0)

        assert abs(local(rn_square_integral, 20) - 6.0) < abs(local(rn_square_integral, 14) - 6.0)
        assert abs(local(rn_square_integral, 20) - 6.0) < 0.03
        assert abs(local(hellinger_growth, 20) - 0.5) < abs(local(hellinger_growth, 14) - 0.5)
        assert abs(local(hellinger_growth, 20) - 0.5) < 0.003


class TestHellingerGrowth:
    def test_zero_family(self):
        assert hellinger_growth(IntensityProfile(1.0), 7) == 0.0

    def test_step_linear_exact(self):
        left, right = 0.1, -0.4
        p = IntensityProfile(2.0, StepFamily(left, right))
        for n in (1, 4, 33):
            want = 2.0 * n * (math.exp(right / 2.0) - math.exp(left / 2.0)) ** 2
            assert hellinger_growth(p, n) == pytest.approx(want, rel=1e-14)

    def test_brute_force_oracle_n10(self):
        p = IntensityProfile(1.0, HALF)
        want = hellinger_brute_force(10)
        assert hellinger_growth(p, 10) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("gamma, sign, n", SLOW_DECAY)
    def test_slow_decay_against_brute_force(self, gamma, sign, n):
        p = IntensityProfile(1.0, PowerFamily(gamma, sign))
        want = hellinger_brute_force(n, 10**6, gamma, sign)
        assert hellinger_growth(p, n) == pytest.approx(want, rel=1e-12)

    def test_nonnegative_nondecreasing(self):
        p = IntensityProfile(1.0, HALF)
        vals = [hellinger_growth(p, n) for n in geometric_grid(16, 2**14)]
        assert all(v >= 0.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0])
    def test_slope_band(self, a):
        fit = hellinger_slope_fit(IntensityProfile(a, HALF))
        assert 0.475 * a <= fit.slope <= 0.525 * a
        assert fit.n_min == HELLINGER_FIT_RANGE[0]


class TestExplicitFamilySeries:
    def test_table_replicating_power_reduces_to_power(self):
        # a table holding exactly the power values plus the power tail must
        # give the same series as the pure power family
        from suspension_lab.intensity import ExplicitFamily

        table = {n: -(n**-0.5) for n in range(2, 12)}
        fam = ExplicitFamily.from_mapping(table, tail=HALF)
        p_exp = IntensityProfile(1.0, fam)
        p_pow = IntensityProfile(1.0, HALF)
        for n in (1, 3, 17):
            assert rn_square_integral(p_exp, n) == pytest.approx(
                rn_square_integral(p_pow, n), rel=1e-10)
            assert hellinger_growth(p_exp, n) == pytest.approx(
                hellinger_growth(p_pow, n), rel=1e-10)

    def test_zero_tail_against_direct_sum(self):
        from suspension_lab.intensity import ExplicitFamily, ZeroFamily, epsilon_at

        fam = ExplicitFamily.from_mapping({-3: 0.2, 0: -0.5, 5: 0.1}, tail=ZeroFamily())
        p = IntensityProfile(1.3, fam)
        for n in (1, 2, 9):
            ks = np.arange(-30, 60, dtype=float)
            ek = epsilon_at(fam, ks)
            ekn = epsilon_at(fam, ks - n)
            want_rn = 1.3 * float(np.sum(np.exp(3 * ek - 2 * ekn) - np.exp(ek)))
            assert rn_square_integral(p, n) == pytest.approx(want_rn, abs=1e-12)
            exn = epsilon_at(fam, ks + n)
            want_h = 1.3 * float(np.sum((np.exp(exn / 2) - np.exp(ek / 2)) ** 2))
            assert hellinger_growth(p, n) == pytest.approx(want_h, abs=1e-12)


    @pytest.mark.parametrize("tail", [HALF, ZeroFamily()])
    def test_table_span_is_bounded(self, tail):
        # the series grids run from min(2, first index) to the last index,
        # or to 1 at least under a power tail
        at_bound = IntensityProfile(1.0, ExplicitFamily.from_mapping({2 + MAX_WINDOW: 0.1}, tail))
        assert math.isfinite(rn_square_integral(at_bound, 1))
        far = [3 + MAX_WINDOW] + ([-MAX_WINDOW] if tail is HALF else [])
        for index in far:
            beyond = IntensityProfile(1.0, ExplicitFamily.from_mapping({index: 0.1}, tail))
            with pytest.raises(ParameterDomainError):
                rn_square_integral(beyond, 1)
            with pytest.raises(ParameterDomainError):
                hellinger_growth(beyond, 1)

    def test_power_tail_table_against_power_family(self):
        # the table {0: 0.4, 1: -0.2} over a power tail changes eps only at
        # 0 and 1, so each series is the pure power series plus the terms
        # that touch those indices: k in {0, 1, n, n+1} for the
        # square-integral series, x in {0, 1, -n, 1-n} for the Hellinger one
        tail = PowerFamily(0.4, -1)
        fam = ExplicitFamily.from_mapping({0: 0.4, 1: -0.2}, tail)
        p_exp = IntensityProfile(1.0, fam)
        p_pow = IntensityProfile(1.0, tail)

        def eps(f, k):
            return float(intensity.epsilon_at(f, np.array([k]))[0])

        def rn_term(f, k, n):
            return math.exp(3.0 * eps(f, k) - 2.0 * eps(f, k - n)) - math.exp(eps(f, k))

        def h_term(f, x, n):
            return (math.exp(0.5 * eps(f, x + n)) - math.exp(0.5 * eps(f, x))) ** 2

        ns = sorted(set(range(1, 201)) | set(geometric_grid(*RN_FIT_RANGE))
                    | set(geometric_grid(*HELLINGER_FIT_RANGE)))
        for n in ns:
            ks = {0, 1, n, n + 1}
            want_rn = math.fsum([rn_square_integral(p_pow, n)]
                                + [rn_term(fam, k, n) - rn_term(tail, k, n) for k in ks])
            assert rn_square_integral(p_exp, n) == pytest.approx(want_rn, rel=1e-13, abs=0.0)
            xs = {0, 1, -n, 1 - n}
            want_h = math.fsum([hellinger_growth(p_pow, n)]
                               + [h_term(fam, x, n) - h_term(tail, x, n) for x in xs])
            assert hellinger_growth(p_exp, n) == pytest.approx(want_h, rel=1e-13, abs=0.0)


class TestDissipativitySeries:
    def test_a5_certifies(self):
        v = dissipativity_series(IntensityProfile(5.0, HALF))
        assert v.convergent is Trivalent.YES
        assert (v.fit.slope - 3 * v.fit.slope_se) / 2.0 > 1.0

    def test_a1_silent(self):
        v = dissipativity_series(IntensityProfile(1.0, HALF))
        assert v.convergent is Trivalent.NO  # series diverges; certificate silent

    def test_zero_family_partial_counts(self):
        v = dissipativity_series(IntensityProfile(1.0), N=37)
        assert v.partial == pytest.approx(37.0)
        assert v.convergent is Trivalent.NO


class TestConservativityCertificate:
    def test_a01_conservative(self):
        r = conservativity_certificate(IntensityProfile(0.1, HALF))
        assert r.verdict is Verdict.CONSERVATIVE
        cert = r.certificate
        # the fitted route lands inside the analytic admissible window (0.8, 1]
        assert 0.8 < cert["beta"] <= 1.0
        assert cert["exponent_margin"] > 1.0
        assert math.isfinite(cert["weighted_series_partial"])

    def test_a02_inconclusive(self):
        r = conservativity_certificate(IntensityProfile(0.2, HALF))
        assert r.verdict is Verdict.INCONCLUSIVE
        assert r.certificate["rn_slope_fit"]["slope"] > 1.0

    def test_zero_family(self):
        r = conservativity_certificate(IntensityProfile(1.0))
        assert r.verdict is Verdict.CONSERVATIVE
        assert r.certificate["beta"] == pytest.approx(0.75)
        assert r.certificate["rn_slope_fit"]["slope"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.01, 0.05, 0.1])
    def test_certificate_numbers_valid(self, a):
        r = conservativity_certificate(IntensityProfile(a, HALF))
        assert r.verdict is Verdict.CONSERVATIVE
        beta = r.certificate["beta"]
        c = r.certificate["rn_slope_fit"]["slope"]
        assert beta <= 1.0
        assert 2.0 * beta - c > 1.0


class TestClassify:
    def test_step_dissipative_via_gap(self):
        r = classify(IntensityProfile(1.0, StepFamily(0.0, math.log(2.0))))
        assert r.verdict is Verdict.TOTALLY_DISSIPATIVE
        assert r.certificate["kind"] == "nonzero_limit_gap"
        assert r.certificate["gap"] == pytest.approx(1.0)

    @pytest.mark.parametrize("a,verdict", [
        (0.05, Verdict.CONSERVATIVE),
        (0.1, Verdict.CONSERVATIVE),
        (1.0, Verdict.INCONCLUSIVE),
        (5.0, Verdict.TOTALLY_DISSIPATIVE),
        (8.0, Verdict.TOTALLY_DISSIPATIVE),
    ])
    def test_power_regimes(self, a, verdict):
        assert classify(IntensityProfile(a, HALF)).verdict is verdict

    @pytest.mark.parametrize("a,t", [(0.05, 2.0), (1.0, 0.25), (2.0, 4.0)])
    def test_scale_product_invariance(self, a, t):
        left = classify(IntensityProfile(a, HALF, scale=t)).verdict
        right = classify(IntensityProfile(t * a, HALF)).verdict
        assert left is right

    def test_report_serializes(self):
        r = classify(IntensityProfile(0.05, HALF))
        d = cli._sanitize(r)
        assert d["verdict"] == "conservative"
        assert d["profile"]["epsilon"]["kind"] == "power"


class TestBifurcationBracket:
    def test_unit_base_bracket(self):
        br = bifurcation_bracket(IntensityProfile(1.0, HALF))
        assert 0.15 <= br.t_lower <= br.t_upper <= 4.2
        assert br.lower_report.verdict is Verdict.CONSERVATIVE
        assert br.upper_report.verdict is Verdict.TOTALLY_DISSIPATIVE

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_product_constant(self, a):
        unit = bifurcation_bracket(IntensityProfile(1.0, HALF))
        other = bifurcation_bracket(IntensityProfile(a, HALF))
        assert other.t_lower * a == pytest.approx(unit.t_lower, rel=5e-3)
        assert other.t_upper * a == pytest.approx(unit.t_upper, rel=5e-3)

    def test_no_transition_rejected(self):
        with pytest.raises(ProfileError, match="does not straddle the transition"):
            bifurcation_bracket(IntensityProfile(1.0))


class TestContinuousBaseBound:
    def test_equal_tails_undetermined(self):
        rep = continuous_base_bound([np.ones(8), np.ones(8)], N=50)
        assert rep.gap == 0.0
        assert rep.dissipative is Trivalent.UNDETERMINED
        assert rep.series_partial == pytest.approx(50.0)

    def test_two_to_one_dissipative(self):
        rep = continuous_base_bound([np.ones(8), 2.0 * np.ones(8)], N=100)
        assert rep.gap == pytest.approx(1.0)
        assert rep.sup_mass == pytest.approx(2.0)
        assert rep.dissipative is Trivalent.YES
        ratio = math.exp(-1.0 / (216.0 * 4.0))
        assert rep.series_partial <= ratio / (1.0 - ratio) + 1e-9

    def test_interpolating_window_matches_step(self):
        steps = [np.full(8, 1.0 + j / 20.0) for j in range(21)]
        rep = continuous_base_bound(steps, N=100)
        step_rep = continuous_base_bound([np.ones(8), 2.0 * np.ones(8)], N=100)
        assert rep.gap == pytest.approx(step_rep.gap)
        assert rep.dissipative is step_rep.dissipative
        assert rep.sup_mass == pytest.approx(step_rep.sup_mass)

    def test_positive_entries_enforced(self):
        with pytest.raises(ValueError):
            continuous_base_bound([np.ones(4), np.array([1.0, 0.0, 1.0, 1.0])], N=10)


class TestStepOverlapDecay:
    """Exponential decay of the shifted-overlap product across a step profile."""

    @pytest.mark.parametrize("n", [30, 60, 120])
    def test_windowed_product_bound(self, n):
        p = IntensityProfile(1.0, StepFamily(0.0, math.log(2.0)))
        ks = [k for k in range(1, n + 1) if n / 3 < k <= 2 * n / 3]
        a_k = intensities(p, np.array(ks))
        a_kn = intensities(p, np.array(ks) - n)
        h2 = [hellinger_sq_poisson(x, y) for x, y in zip(a_kn, a_k)]
        delta2 = min(h2)
        windowed = math.prod(1.0 - v for v in h2)
        assert windowed <= (1.0 - delta2) ** (n / 3) * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [30, 60, 120])
    def test_full_product_well_below_bound(self, n):
        p = IntensityProfile(1.0, StepFamily(0.0, math.log(2.0)))
        ks = np.arange(1, n + 1)  # the only indices where the shifted pair differs
        a_k = intensities(p, ks)
        a_kn = intensities(p, ks - n)
        h2 = [hellinger_sq_poisson(x, y) for x, y in zip(a_kn, a_k)]
        full = math.prod(1.0 - v for v in h2)
        delta2 = min(h2)
        assert full <= (1.0 - delta2) ** (n / 3)


class TestVerdictsBuildNoEvidence:
    """Verdicts come from the family alone: with the partial-sum evidence of
    ``check_condition`` made to fail, every analytic path still runs."""

    @pytest.fixture(autouse=True)
    def refuse_evidence(self, monkeypatch):
        def refuse(profile, condition):
            raise AssertionError(f"evidence built for {condition}")

        monkeypatch.setattr(intensity, "_evidence", refuse)

    def test_refusal_is_in_force(self):
        with pytest.raises(AssertionError, match="evidence built"):
            check_condition(IntensityProfile(1.0, HALF), "nonsingularity")

    @pytest.mark.parametrize("epsilon, verdict", [
        (ZeroFamily(), Verdict.CONSERVATIVE),
        (PowerFamily(0.75, -1), Verdict.CONSERVATIVE),
        (StepFamily(0.0, 0.5), Verdict.TOTALLY_DISSIPATIVE),
        (ExplicitFamily.from_mapping({0: 0.4, 1: -0.2}, PowerFamily(0.4, -1)),
         Verdict.TOTALLY_DISSIPATIVE),
    ], ids=["zero", "power", "step", "explicit"])
    def test_classify(self, epsilon, verdict):
        assert classify(IntensityProfile(1.0, epsilon)).verdict is verdict

    def test_bifurcation_bracket(self):
        br = bifurcation_bracket(IntensityProfile(1.0, HALF))
        assert br.t_lower <= br.t_upper

    def test_limit_gap_and_series(self):
        p = IntensityProfile(1.0, HALF)
        assert limit_gap(p) == 0.0
        assert rn_square_integral(p, 10) > 0.0

    def test_clt_experiment(self):
        s = clt_experiment(IntensityProfile(1.0, HALF), n=100, samples=10, rng=RNGSpec(0))
        assert s.statistics["snapshots"]

    def test_hopf_diagnostic(self):
        s = hopf_diagnostic(IntensityProfile(1.0, HALF), N=4, samples=10, rng=RNGSpec(0))
        assert "markov" in s.statistics  # the zero-gap verdict held
