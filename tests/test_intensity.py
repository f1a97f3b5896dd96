"""Profile evaluation and the symbolic condition system."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suspension_lab.intensity import (
    CONDITION_IDS,
    DEFAULT_EPSILON,
    ExplicitFamily,
    IntensityProfile,
    PowerFamily,
    ProfileError,
    StepFamily,
    Trivalent,
    ZeroFamily,
    check_condition,
    condition_verdict,
    epsilon_at,
    eval_intensity,
    intensities,
    limit_gap,
    limit_sets,
    shift_difference_support,
    sup_epsilon,
)

HALF = PowerFamily(gamma=0.5, sign=-1)


class TestEvaluation:
    def test_zero_family(self):
        assert eval_intensity(IntensityProfile(1.0), 5) == 1.0

    def test_power_family(self):
        p = IntensityProfile(2.0, HALF)
        assert eval_intensity(p, 4) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-15)

    def test_power_vanishes_below_two(self):
        p = IntensityProfile(1.0, HALF)
        assert eval_intensity(p, 1) == 1.0
        assert eval_intensity(p, 0) == 1.0
        assert eval_intensity(p, -7) == 1.0

    def test_scale_is_multiplicative(self):
        p = IntensityProfile(1.0, HALF, scale=3.0)
        assert eval_intensity(p, 9) == pytest.approx(3.0 * math.exp(-1.0 / 3.0), rel=1e-15)

    @given(t=st.floats(0.01, 100.0), n=st.integers(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_scaling_property(self, t, n):
        base = IntensityProfile(1.3, HALF)
        scaled = IntensityProfile(1.3, HALF, scale=t)
        assert eval_intensity(scaled, n) == pytest.approx(t * eval_intensity(base, n), rel=1e-12)

    def test_step_family(self):
        p = IntensityProfile(1.0, StepFamily(0.0, math.log(2.0)))
        assert eval_intensity(p, 0) == 1.0
        assert eval_intensity(p, 1) == pytest.approx(2.0)

    def test_explicit_overlay(self):
        fam = ExplicitFamily.from_mapping({3: 0.5, -1: -0.25}, tail=HALF)
        p = IntensityProfile(1.0, fam)
        assert eval_intensity(p, 3) == pytest.approx(math.exp(0.5))
        assert eval_intensity(p, -1) == pytest.approx(math.exp(-0.25))
        assert eval_intensity(p, 4) == pytest.approx(math.exp(-0.5))

    @pytest.mark.parametrize("base, epsilon, scale", [
        (1e308, ZeroFamily(), 1e308),
        (1.0, StepFamily(0.0, 1e308), 1.0),
        (1e300, PowerFamily(0.5, 1), 1e10),
        (1e308, StepFamily(-5.0, -5.0), 10.0),   # the level itself overflows
        (1.0, ExplicitFamily(((3, 800.0),), DEFAULT_EPSILON), 1.0),
        (1e-300, StepFamily(0.0, 1000.0), 1.0),  # a finite peak, but exp(eps) overflows
    ])
    def test_peak_intensity_must_be_finite(self, base, epsilon, scale):
        with pytest.raises(ProfileError):
            IntensityProfile(base, epsilon, scale)

    def test_largest_finite_peaks_accepted(self):
        IntensityProfile(1.7e308)
        IntensityProfile(1.0, StepFamily(0.0, 700.0))
        IntensityProfile(1e300, StepFamily(-1e308, 0.0))

    def test_explicit_tail_cannot_nest(self):
        with pytest.raises(ProfileError):
            ExplicitFamily(((1, 0.1),), ExplicitFamily(((2, 0.1),)))

    def test_positive_parameters_enforced(self):
        with pytest.raises(ProfileError):
            IntensityProfile(0.0)
        with pytest.raises(ProfileError):
            IntensityProfile(1.0, scale=-1.0)
        with pytest.raises(ProfileError):
            PowerFamily(gamma=0.0)


class TestConditions:
    def test_default_profile_conditions(self):
        p = IntensityProfile(1.0, DEFAULT_EPSILON)
        assert check_condition(p, "nonsingularity").holds is Trivalent.YES
        assert check_condition(p, "clt_regime").holds is Trivalent.YES
        assert check_condition(p, "l1_increments").holds is Trivalent.YES
        assert check_condition(p, "zero_gap").holds is Trivalent.YES

    def test_zero_family_evidence_is_zero(self):
        p = IntensityProfile(2.0)
        v = check_condition(p, "nonsingularity")
        assert v.holds is Trivalent.YES
        assert all(val == 0.0 for _, val in v.partial_sums)

    # p-series truth table: clt_regime holds iff 1/4 < gamma <= 1/2
    @pytest.mark.parametrize("gamma,expected", [
        (0.2, Trivalent.NO),
        (0.26, Trivalent.YES),
        (0.3, Trivalent.YES),
        (0.5, Trivalent.YES),
        (0.6, Trivalent.NO),
        (1.0, Trivalent.NO),
    ])
    def test_clt_regime_truth_table(self, gamma, expected):
        p = IntensityProfile(1.0, PowerFamily(gamma=gamma, sign=-1))
        assert check_condition(p, "clt_regime").holds is expected

    @pytest.mark.parametrize("gamma", [0.2, 0.26, 0.3, 0.5, 0.6, 1.0])
    def test_power_always_nonsingular_and_l1(self, gamma):
        # increments decay like n^-(gamma+1): summable for every gamma > 0
        p = IntensityProfile(1.0, PowerFamily(gamma=gamma, sign=-1))
        assert check_condition(p, "nonsingularity").holds is Trivalent.YES
        assert check_condition(p, "l1_increments").holds is Trivalent.YES

    def test_step_family_conditions(self):
        p = IntensityProfile(1.0, StepFamily(0.0, math.log(2.0)))
        assert check_condition(p, "nonsingularity").holds is Trivalent.YES
        assert check_condition(p, "clt_regime").holds is Trivalent.NO
        assert check_condition(p, "zero_gap").holds is Trivalent.NO

    def test_explicit_without_tail_is_undetermined(self):
        fam = ExplicitFamily.from_mapping({0: 0.1})
        p = IntensityProfile(1.0, fam)
        for cid in CONDITION_IDS:
            assert check_condition(p, cid).holds is Trivalent.UNDETERMINED

    def test_evidence_trace_shape(self):
        p = IntensityProfile(1.0, DEFAULT_EPSILON)
        v = check_condition(p, "clt_regime")
        ns = [n for n, _ in v.partial_sums]
        assert ns == [100, 1_000, 10_000, 100_000]
        vals = [val for _, val in v.partial_sums]
        assert all(b > a for a, b in zip(vals, vals[1:]))  # divergent series grows

    def test_unknown_condition_rejected(self):
        with pytest.raises(ProfileError):
            check_condition(IntensityProfile(1.0), "no_such_condition")
        with pytest.raises(ProfileError):
            condition_verdict(ZeroFamily(), "no_such_condition")
        # a table with no declared tail is undetermined for every known condition only
        tableonly = ExplicitFamily.from_mapping({0: 0.1})
        with pytest.raises(ProfileError):
            condition_verdict(tableonly, "no_such_condition")
        with pytest.raises(ProfileError):
            check_condition(IntensityProfile(1.0, tableonly), "no_such_condition")

    @pytest.mark.parametrize("family", [
        ZeroFamily(), HALF, PowerFamily(1.0, -1), StepFamily(0.0, 0.5),
        ExplicitFamily.from_mapping({0: 0.1}), ExplicitFamily.from_mapping({0: 0.1}, HALF),
    ])
    def test_check_adds_evidence_to_the_verdict(self, family):
        for cid in CONDITION_IDS:
            v = check_condition(IntensityProfile(1.0, family), cid)
            assert (v.holds, v.detail) == condition_verdict(family, cid)


class TestGapAndLimits:
    def test_power_gap_zero(self):
        assert limit_gap(IntensityProfile(1.0, HALF)) == 0.0

    def test_step_gap(self):
        p = IntensityProfile(1.0, StepFamily(0.0, math.log(2.0)))
        assert limit_gap(p) == pytest.approx(1.0)

    def test_gap_scales_linearly(self):
        p1 = IntensityProfile(1.0, StepFamily(0.0, math.log(2.0)), scale=1.0)
        p3 = IntensityProfile(1.0, StepFamily(0.0, math.log(2.0)), scale=3.0)
        assert limit_gap(p3) == pytest.approx(3.0 * limit_gap(p1))

    def test_undetermined_gap(self):
        p = IntensityProfile(1.0, ExplicitFamily.from_mapping({0: 0.1}))
        assert limit_gap(p) is None

    def test_limit_sets_power(self):
        sets = limit_sets(IntensityProfile(1.0, HALF))
        assert sets.minus == (1.0, 1.0)
        assert sets.plus == (1.0, 1.0)
        assert not sets.disjoint

    def test_limit_sets_step_disjoint(self):
        sets = limit_sets(IntensityProfile(1.0, StepFamily(0.0, math.log(2.0))))
        assert sets.minus == (1.0, 1.0)
        assert sets.plus[0] == pytest.approx(2.0)
        assert sets.disjoint

    def test_limit_sets_zero_scaled(self):
        sets = limit_sets(IntensityProfile(3.0, scale=2.0))
        assert sets.minus == (6.0, 6.0)
        assert sets.plus == (6.0, 6.0)

    def test_step_disjoint_iff_gap_nonzero(self):
        for left, right in [(0.0, 0.0), (0.0, 0.7), (-0.3, -0.3), (0.2, -0.2)]:
            p = IntensityProfile(1.0, StepFamily(left, right))
            gap = limit_gap(p)
            assert limit_sets(p).disjoint == (gap != 0.0)


class TestSupport:
    def test_zero_family_empty(self):
        assert shift_difference_support(IntensityProfile(1.0), 4) is None

    def test_power_unbounded(self):
        assert shift_difference_support(IntensityProfile(1.0, HALF), 4) == (2, None)

    def test_step_window(self):
        p = IntensityProfile(1.0, StepFamily(0.0, 1.0))
        assert shift_difference_support(p, 5) == (1, 5)

    def test_equal_step_empty(self):
        p = IntensityProfile(1.0, StepFamily(0.3, 0.3))
        assert shift_difference_support(p, 5) is None

    def test_explicit_with_zero_tail(self):
        fam = ExplicitFamily.from_mapping({-2: 0.1, 4: -0.2}, tail=ZeroFamily())
        assert shift_difference_support(IntensityProfile(1.0, fam), 3) == (-2, 7)

    def test_sup_epsilon(self):
        assert sup_epsilon(ZeroFamily()) == 0.0
        assert sup_epsilon(HALF) == 0.0
        assert sup_epsilon(PowerFamily(0.5, +1)) == pytest.approx(2.0**-0.5)
        assert sup_epsilon(StepFamily(-1.0, 0.25)) == 0.25
        assert sup_epsilon(ExplicitFamily.from_mapping({0: 0.4}, tail=HALF)) == 0.4


class TestVectorization:
    def test_intensities_matches_scalar(self):
        p = IntensityProfile(1.7, HALF, scale=0.5)
        ns = np.arange(-5, 40)
        vec = intensities(p, ns)
        assert vec == pytest.approx([eval_intensity(p, int(n)) for n in ns])

    def test_epsilon_at_explicit_vectorized(self):
        fam = ExplicitFamily(((2, 0.9),), tail=HALF)
        vals = epsilon_at(fam, np.array([1, 2, 3]))
        assert vals[0] == 0.0
        assert vals[1] == 0.9
        assert vals[2] == pytest.approx(-3.0**-0.5)

    def test_explicit_table_normalized_sorted(self):
        fam = ExplicitFamily(((5, 0.1), (-2, 0.3)))
        assert fam.table == ((-2, 0.3), (5, 0.1))
        vals = epsilon_at(fam, np.array([-3, -2, 0, 5, 6]))
        assert list(vals) == [0.0, 0.3, 0.0, 0.1, 0.0]

    def test_duplicate_table_index_rejected(self):
        with pytest.raises(ProfileError):
            ExplicitFamily(((1, 0.1), (1, 0.2)))


def frozen_epsilon_at(family, ns):
    """``epsilon_at`` as written before it worked in place, kept as the oracle."""
    ns = np.asarray(ns, dtype=float)
    if isinstance(family, ZeroFamily):
        return np.zeros_like(ns)
    if isinstance(family, PowerFamily):
        return np.where(ns > 1, family.sign * np.power(np.maximum(ns, 2.0), -family.gamma), 0.0)
    if isinstance(family, StepFamily):
        return np.where(ns >= 1, family.right, family.left)
    base = frozen_epsilon_at(family.tail, ns) if family.tail is not None else np.zeros_like(ns)
    keys = np.array([n for n, _ in family.table], dtype=float)
    vals = np.array([e for _, e in family.table])
    idx = np.minimum(np.searchsorted(keys, ns), len(keys) - 1)
    hit = keys[idx] == ns
    return np.where(hit, vals[idx], base)


TABLE = ((-40, 0.3), (0, -0.0), (1, -0.2), (5, -0.1), (9000, 0.2), (150_000, -1.5))
ORACLE_FAMILIES = [
    *(PowerFamily(gamma, sign) for gamma in (0.01, 0.5, 3.0, 100.0, 2e4) for sign in (-1, 1)),
    StepFamily(-0.3, 0.2), ZeroFamily(),
    *(ExplicitFamily(TABLE, tail) for tail in (None, ZeroFamily(), PowerFamily(0.4, -1), StepFamily(0.0, 0.5))),
]


def index_arrays():
    """Read-only index arrays over -2e5 ... 2e5, n <= 1 included: whole ranges
    in int and float, a strided view, a shuffled copy and 0-d arrays."""
    ints = np.arange(-200_000, 200_001)
    arrays = [ints, ints.astype(float), ints.astype(float)[::7],
              np.random.default_rng(5).permutation(ints)[:50_000], np.arange(-3, 3),
              np.array(1), np.array(5.0), np.array(9000)]
    for ns in arrays:
        ns.flags.writeable = False
    return arrays


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFrozenEvaluation:
    """``epsilon_at`` and ``intensities`` compute in place and must give the
    bits of the expressions they replaced, without writing their input."""

    @pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
    def test_epsilon_at(self, family):
        for ns in index_arrays():
            before = ns.copy()
            assert same_bits(epsilon_at(family, ns), frozen_epsilon_at(family, ns))
            assert same_bits(ns, before)

    @pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=repr)
    def test_intensities(self, family):
        for level in (1.0, 0.85, 3e5):
            profile = IntensityProfile(level, family)
            for ns in index_arrays():
                assert same_bits(intensities(profile, ns), level * np.exp(frozen_epsilon_at(family, ns)))


class TestEvidenceMemory:
    @pytest.mark.parametrize("condition", CONDITION_IDS)
    def test_default_profile(self, condition):
        # 3.4-3.6 MiB for the increment sums (a and its differences over 2e5 + 1 cells),
        # 1.7 MiB for clt_regime; 7.97-8.05 MiB when every condition held about five such arrays
        profile = IntensityProfile(1.0, DEFAULT_EPSILON)
        check_condition(profile, condition)  # numpy's lazily built state is not the call's
        tracemalloc.start()
        try:
            check_condition(profile, condition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20
