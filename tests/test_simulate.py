"""Monte Carlo engine tests: sampler correctness, density cocycle algebra,
experiment preconditions, and bit-for-bit reproducibility."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from suspension_lab import sampling, simulate
from suspension_lab.criteria import PreconditionError
from suspension_lab.dist import ParameterDomainError, poisson_log_pmf
from suspension_lab.intensity import (
    ExplicitFamily,
    IntensityProfile,
    PowerFamily,
    StepFamily,
    ZeroFamily,
    epsilon_at,
    eval_intensity,
)
from suspension_lab.sampling import RNGSpec, invert_uniform_rows, poisson_cdf_tables, prepare_rows
from suspension_lab.simulate import (
    ConfigurationWindow,
    WindowCoverageError,
    clt_experiment,
    hopf_diagnostic,
    increment_tail_decay,
    log_rn_derivative,
    sample_configuration,
    scan_intensity,
    stopping_time_experiment,
    window_for_shift,
)

HALF = PowerFamily(gamma=0.5, sign=-1)
P1 = IntensityProfile(1.0, HALF)


def sample_poisson(rate: float, size: int, gen: np.random.Generator) -> np.ndarray:
    """``size`` draws at one rate: its one-row table, the uniforms as one column."""
    return invert_uniform_rows(poisson_cdf_tables(np.array([rate])), gen.random((size, 1)))[:, 0]


class TestPoissonSampler:
    def test_mean_within_band(self):
        draws = sample_poisson(1.0, 100_000, RNGSpec(seed=7).generator())
        assert abs(draws.mean() - 1.0) < 0.02

    def test_equidispersion(self):
        # Poisson variance equals the mean; allow a 3-sigma band on s^2
        for rate in (0.3, 1.0, 4.0):
            draws = sample_poisson(rate, 100_000, RNGSpec(seed=11).generator())
            s2 = draws.var(ddof=1)
            mu4 = scipy_stats.moment(draws, 4)
            se = math.sqrt((mu4 - s2**2) / len(draws))
            assert abs(s2 - draws.mean()) < 3.0 * se

    def test_chi_square_gof(self):
        rate = 2.5
        m = 100_000
        draws = sample_poisson(rate, m, RNGSpec(seed=3).generator())
        kmax = int(draws.max())
        expected = np.array([m * math.exp(poisson_log_pmf(rate, k)) for k in range(kmax + 2)])
        observed = np.bincount(draws, minlength=kmax + 2).astype(float)
        # merge the sparse right tail so every cell has expectation >= 5
        cut = int(np.argmax(np.cumsum(expected[::-1]) >= 5.0))
        cut = len(expected) - cut
        obs = np.append(observed[:cut], observed[cut:].sum())
        exp = np.append(expected[:cut], m - expected[:cut].sum())
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        assert chi2 < scipy_stats.chi2.ppf(0.999, len(obs) - 1)

    def test_monotone_coupling_in_rate(self):
        u = RNGSpec(seed=5).generator().random((10_000, 1))
        lo = invert_uniform_rows(poisson_cdf_tables(np.array([0.7])), u)
        hi = invert_uniform_rows(poisson_cdf_tables(np.array([1.9])), u)
        assert np.all(hi >= lo)

    def test_row_inversion_matches_scalar(self):
        rates = np.array([0.2, 1.0, 3.7])
        u = RNGSpec(seed=9).generator().random((500, 3))
        rows = invert_uniform_rows(poisson_cdf_tables(rates), u)
        for j, rate in enumerate(rates):
            direct = invert_uniform_rows(poisson_cdf_tables(np.array([rate])), u[:, j:j + 1])
            assert np.array_equal(rows[:, j], direct[:, 0])

    def test_rejects_negative_rates(self):
        with pytest.raises(ParameterDomainError):
            poisson_cdf_tables(np.array([-1.0]))

    def test_rejects_absurd_rates(self):
        with pytest.raises(ParameterDomainError):
            poisson_cdf_tables(np.array([1e9]))

    def test_rejects_oversized_tables(self):
        # 8192 rows of 51890 columns would take 3.2 GiB; refused before allocating
        with pytest.raises(ParameterDomainError, match="cells"):
            poisson_cdf_tables(np.full(8_192, 5e4))

    def test_table_mass_closes(self):
        cdf = poisson_cdf_tables(np.array([0.1, 5.0, 30.0]))
        assert np.all(cdf[:, -1] >= 1.0 - 1e-15)

    def test_table_built_in_place(self):
        # the pmf and its running sums share the returned array: a second
        # array of the table's size would double the build's peak
        rates = np.full(8_192, 1.0)
        tracemalloc.start()
        try:
            cdf = poisson_cdf_tables(rates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * cdf.nbytes
        _assert_cut_of(cdf, _recurrence_tables(rates))

    def test_rng_spec_validation(self):
        with pytest.raises(ParameterDomainError):
            RNGSpec(seed=-1)
        with pytest.raises(ParameterDomainError):
            RNGSpec(seed=2**64)
        with pytest.raises(ParameterDomainError):
            RNGSpec(seed=0, stream=-2)


def _recurrence_pmf(rates: np.ndarray) -> np.ndarray:
    """The pmf recurrence from exp(-rate) over the cutoff's K + 1 columns,
    K = rmax + 12 sqrt(rmax + 1) + 30."""
    rmax = float(rates.max())
    K = int(rmax + 12.0 * math.sqrt(rmax + 1.0) + 30.0)
    pmf = np.empty((len(rates), K + 1))
    pmf[:, 0] = np.exp(-rates)
    for k in range(1, K + 1):
        pmf[:, k] = pmf[:, k - 1] * (rates / k)
    return pmf


def _recurrence_tables(rates: np.ndarray) -> np.ndarray:
    """The cutoff-wide table whose kept columns every row whose exp(-rate)
    is a normal float must keep bit for bit."""
    return np.cumsum(_recurrence_pmf(rates), axis=1)


def _cutoff_tables(rates: np.ndarray) -> np.ndarray:
    """``_recurrence_tables`` with the rows whose exp(-rate) is not a normal
    float built from their mode over the same K + 1 columns."""
    pmf = _recurrence_pmf(rates)
    for r in np.flatnonzero(pmf[:, 0] < np.finfo(float).tiny):
        pmf[r] = sampling._pmf_from_mode(float(rates[r]), pmf.shape[1] - 1)
    return np.cumsum(pmf, axis=1)


def _assert_cut_of(cdf: np.ndarray, ref: np.ndarray) -> None:
    """``cdf`` holds the first W columns of the cutoff-wide ``ref`` bit for
    bit, and every column of ``ref`` past them repeats its column W - 1."""
    W = cdf.shape[1]
    assert 2 <= W <= ref.shape[1]
    assert np.array_equal(cdf, ref[:, :W])
    assert np.array_equal(ref[:, W - 1:], np.broadcast_to(ref[:, W - 1:W], (len(ref), ref.shape[1] - W + 1)))


class TestLargeRates:
    """Rows whose exp(-rate) is not a normal float (rate above ~708.4)."""

    @pytest.mark.parametrize("rate", [709.0, 740.0, 744.0, 800.0])
    def test_mass_closes(self, rate):
        cdf = poisson_cdf_tables(np.array([rate]))[0]
        assert abs(cdf[-1] - 1.0) <= 1e-12

    @pytest.mark.parametrize("rate", [709.0, 800.0, 1e3, 1e4, 1e5])
    def test_table_matches_scipy(self, rate):
        cdf = poisson_cdf_tables(np.array([rate]))[0]
        exact = scipy_stats.poisson.cdf(np.arange(len(cdf)), rate)
        assert np.max(np.abs(cdf - exact)) <= 1e-12

    @pytest.mark.parametrize("rate", [1e3, 1e4, 1e5])
    def test_draws_match_scipy(self, rate):
        m = 20_000
        draws = sample_poisson(rate, m, RNGSpec(seed=17).generator())
        law = scipy_stats.poisson(rate)
        assert abs(draws.mean() - rate) < 4.0 * math.sqrt(rate / m)
        assert abs(draws.var(ddof=1) - rate) < 4.0 * rate * math.sqrt(2.0 / (m - 1))
        ks = np.arange(draws.min(), draws.max() + 1)
        ecdf = np.searchsorted(np.sort(draws), ks, side="right") / m
        # for a discrete law the continuous KS critical value is conservative
        assert np.max(np.abs(ecdf - law.cdf(ks))) < scipy_stats.kstwobign.ppf(0.999) / math.sqrt(m)

    def test_normal_rows_unchanged(self):
        rates = np.array([0.0, 0.4, 3.0, 250.0, 708.0])
        _assert_cut_of(poisson_cdf_tables(rates), _recurrence_tables(rates))

    def test_mixed_rows(self):
        # a large-rate row must not disturb the small-rate rows sharing its width
        rates = np.array([1.0, 900.0, 30.0])
        cdf = poisson_cdf_tables(rates)
        _assert_cut_of(cdf[[0, 2]], _recurrence_tables(rates)[[0, 2]])
        assert abs(cdf[1, -1] - 1.0) <= 1e-12
        # the mode row is normalized over the cutoff, then cut
        _assert_cut_of(cdf, _cutoff_tables(rates))


def _raw_search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Oracle: each column searched in its own raw row, capped at the first
    index of the row's float plateau (its first entry equal to its last)."""
    counts = np.empty(u.shape, dtype=np.int64)
    for r, row in enumerate(cdf):
        top = int(np.flatnonzero(row == row[-1])[0])
        counts[:, r] = np.minimum(np.searchsorted(row, u[:, r], side="right"), top)
    return counts


def _adversarial_uniforms(cdf: np.ndarray, S: int, seed: int) -> np.ndarray:
    """Uniforms in [0, 1), about half replaced by a table entry of their
    column's row or a floating-point neighbour of one, the last entry
    included, so draws land exactly on and beside every comparison and
    above a row's last entry."""
    gen = np.random.default_rng(seed)
    R, K = cdf.shape
    u = gen.random((S, R))
    pick = gen.random((S, R)) < 0.5
    rows = np.broadcast_to(np.arange(R), (S, R))
    cols = np.where(gen.random((S, R)) < 0.2, K - 1, gen.integers(0, K, (S, R)))
    entry = cdf[rows, cols]
    shift = gen.integers(-1, 2, (S, R))
    entry = np.where(shift < 0, np.nextafter(entry, -1.0),
                     np.where(shift > 0, np.nextafter(entry, 2.0), entry))
    u[pick] = entry[pick]
    return np.clip(u, 0.0, np.nextafter(1.0, 0.0))


class TestInversionExactness:
    """Inversion equals the raw-operand oracle element for element, on both
    sides of the switch from comparison passes to guide search, over a whole
    table and over each of its rows alone."""

    @staticmethod
    def _check(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
        counts = invert_uniform_rows(cdf, u)
        assert counts.dtype == np.int64
        assert counts.flags.c_contiguous
        assert np.array_equal(counts, _raw_search(cdf, u))
        # into a caller's buffer: a C-ordered float64 block (the Hopf gemm
        # operand), a Fortran-ordered one and a C-ordered int32 block, every
        # cell overwritten
        for out in (np.full(u.shape, -1.0), np.full(u.shape, -1.0, order="F"),
                    np.full(u.shape, -1, dtype=np.int32)):
            assert invert_uniform_rows(cdf, u, out=out) is out
            assert np.array_equal(out, counts)
        for rows in (1, 2 * len(u) + 1):
            # a set-up made for other row counts (so another G) gives the same counts
            assert np.array_equal(invert_uniform_rows(prepare_rows(cdf, rows), u), counts)
        for r in range(cdf.shape[0]):
            # a count depends on its row and uniform, not on the row's column
            row = invert_uniform_rows(cdf[r:r + 1], u[:, r:r + 1])
            assert row.dtype == np.int64
            assert np.array_equal(row[:, 0], counts[:, r])
        return counts

    @given(scale=st.sampled_from([0.05, 1.0, 8.0, 25.0, 300.0]),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
           S=st.integers(0, 30), width=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    @example(scale=1.0, fractions=[1.0], S=0, width=2, seed=0)
    @example(scale=1.0, fractions=[1.0], S=1, width=2, seed=0)
    @example(scale=300.0, fractions=[0.0, 1.0], S=1, width=400, seed=0)
    def test_matches_raw_search(self, scale, fractions, S, width, seed):
        rates = scale * np.array(fractions)
        full = poisson_cdf_tables(rates)
        for cdf in (full, full[:, :width]):  # the cut table's rows end below 1
            self._check(cdf, _adversarial_uniforms(cdf, S, seed))

    def test_matches_raw_search_across_chunks(self):
        cdf = poisson_cdf_tables(np.linspace(0.0, 6.0, 4_000))
        u = _adversarial_uniforms(cdf, 70, seed=1)  # 280,000 queries in one call
        assert np.array_equal(invert_uniform_rows(cdf, u), _raw_search(cdf, u))
        y = _adversarial_uniforms(cdf[:1], 300_000, seed=2)
        assert np.array_equal(invert_uniform_rows(cdf[:1], y), _raw_search(cdf[:1], y))

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "column"])
    def test_passes_across_sample_chunks(self, layout):
        # 23 sample rows of 7 columns, or 100 of one, in each layout of u and
        # out, with draws climbing past the passes
        cdf = poisson_cdf_tables(np.linspace(0.0, 6.0, 7))
        S = 23
        if layout == "column":
            cdf, S = cdf[5:6], 100
        u = _adversarial_uniforms(cdf, S, seed=3)
        if layout == "F":
            u = np.asfortranarray(u)
        elif layout == "strided":
            wide = np.zeros((2 * S, 3 * cdf.shape[0]))
            wide[::2, 1::3] = u
            u = wide[::2, 1::3]
        want = _raw_search(cdf, u)
        passes = prepare_rows(cdf, S).passes
        assert passes is not None and np.any(want > passes)
        assert np.array_equal(invert_uniform_rows(cdf, u), want)
        for out in (np.empty(u.shape, dtype=np.int32), np.empty(u.shape, order="F")):
            assert np.array_equal(invert_uniform_rows(cdf, u, out=out), want)

    def test_largest_uniform_in_a_far_column(self):
        # u = 1 - 2^-53 on rate-1 rows: the count is the plateau index, 18, in every column
        cdf = poisson_cdf_tables(np.full(8_192, 1.0))
        assert sampling._pass_count(cdf) < 18  # so every draw climbs past the passes
        counts = self._check(cdf, np.full((2, 8_192), np.nextafter(1.0, 0.0)))
        assert np.all(counts == 18)

    def test_out_of_another_shape_refused(self):
        cdf = poisson_cdf_tables(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="shape"):
            invert_uniform_rows(cdf, np.zeros((3, 2)), out=np.empty((2, 3)))

    @pytest.mark.parametrize("direction", [-1.0, 2.0])
    def test_neighbours_of_a_far_row(self, direction):
        # every entry of row 8190 and its float neighbour on one side
        cdf = poisson_cdf_tables(np.full(8_192, 1.0))
        u = RNGSpec(seed=4).generator().random((cdf.shape[1], 8_192))
        u[:, 8_190] = np.minimum(np.nextafter(cdf[8_190], direction), np.nextafter(1.0, 0.0))
        assert np.array_equal(invert_uniform_rows(cdf, u), _raw_search(cdf, u))

    @staticmethod
    def _with_cell_edges(cdf: np.ndarray, S: int, G: int, seed: int) -> np.ndarray:
        """Adversarial uniforms of at least S sample rows with, in every
        column, u = 0, u = 1 - 2^-53 and every cell edge j / G of a G-cell
        guide and both float neighbours of it, each put in at a random
        sample row; there are more sample rows than S where these values
        outnumber S."""
        edges = np.arange(G + 1) / G
        special = np.concatenate([[0.0, 1.0], edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        special = np.clip(special, 0.0, np.nextafter(1.0, 0.0))
        u = _adversarial_uniforms(cdf, max(S, len(special)), seed)
        gen = np.random.default_rng(seed)
        for column in u.T:
            column[gen.choice(len(column), len(special), replace=False)] = special
        return u

    @pytest.mark.parametrize("rates, S", [
        pytest.param([200.0], 1, id="one-sample-row"),  # G = 1: bisection over [0, top]
        pytest.param([200.0, 900.0, 1e5], 1, id="one-sample-row-wide"),
        pytest.param([150.0, 200.0], 255, id="S-255"),
        pytest.param([150.0, 200.0], 256, id="S-256"),
        pytest.param([150.0, 200.0], 257, id="S-257"),
        pytest.param([200.0], 335, id="S-below-width"),  # the width is 336
        pytest.param([200.0], 336, id="S-at-width"),
        pytest.param([200.0], 337, id="S-above-width"),
        pytest.param([200.0], 8 * 336 - 1, id="S-below-guide-cap"),  # G = 4096 = the cap's power of two
        pytest.param([200.0], 8 * 336 + 1, id="S-above-guide-cap"),
        # three rows over 5 * 2^16 // 6 sample rows: 163,839 queries in one call
        pytest.param([30.0, 120.0, 200.0], 54_613, id="chunks"),
        pytest.param([709.0, 5e3, 1e4], 3_000, id="leading-zeros"),  # first entries exactly 0
        pytest.param([1e5], 5_000, id="rate-cap"),
        pytest.param([0.0, 2.0, 40.0, 1e3], 700, id="mixed"),
    ])
    def test_guide_matches_raw_search(self, rates, S):
        # every cell edge of the guide prepared for S sample rows, and its
        # float neighbours, in every row
        full = poisson_cdf_tables(np.array(rates))
        assert sampling._pass_count(full) is None
        for cdf in (full, full[:, :full.shape[1] // 2]):  # the cut table's rows end below 1
            table = prepare_rows(cdf, S)
            u = self._with_cell_edges(cdf, S, table.G, seed=S)
            assert np.array_equal(invert_uniform_rows(table, u), _raw_search(cdf, u))
            self._check(cdf, u)

    @pytest.mark.parametrize("S", [1, 2, 3, 5, 6, 7, 12])
    def test_cells_split_at_exact_edges(self, S):
        # one row holding m / d for every d <= 16 and both float neighbours,
        # inverted at the same values: u G and G cdf must be exact, or a
        # value and its neighbour fall into one cell and are miscounted
        fractions = np.concatenate([np.arange(d + 1) / d for d in range(1, 17)])
        values = np.unique(np.concatenate([fractions, np.nextafter(fractions, -1.0), np.nextafter(fractions, 2.0)]))
        row = np.clip(values, 0.0, 1.0)
        queries = np.clip(values, 0.0, np.nextafter(1.0, 0.0))
        R = -(-len(queries) // S)
        cdf = np.tile(row, (R, 1))
        assert sampling._pass_count(cdf) is None
        u = RNGSpec(seed=S).generator().random(S * R)
        u[:len(queries)] = queries
        self._check(cdf, u.reshape(S, R))

    @pytest.mark.parametrize("rates, S, G", [
        pytest.param([200.0], 0, 1, id="no-sample-rows"),
        pytest.param([200.0], 1, 1, id="one-sample-row"),
        pytest.param([200.0], 3, 4, id="S-3"),
        pytest.param([200.0], 2_000, 2_048, id="clt-block-rows"),
        pytest.param([200.0], 2_048, 2_048, id="S-power-of-two"),
        pytest.param([200.0], 2_049, 4_096, id="S-past-a-power-of-two"),
        # 336 columns: at most 8 x 336 = 2688 cells, so 4096 for any larger S
        pytest.param([200.0], 2_688, 4_096, id="S-at-the-cap"),
        pytest.param([200.0], 512_000, 4_096, id="clt-a0-block"),
        pytest.param([150.0, 200.0], 10**6, 4_096, id="two-rows"),
        pytest.param([1e5], 10**7, 1 << 20, id="rate-cap"),  # 102,655 columns
        # many rows: at most the power of two at or above 2^20 // rows
        pytest.param([5e3] * 256, 10**5, 4_096, id="clt-base-5000"),  # 5616 columns
        pytest.param([200.0] * 2_048, 4_096, 512, id="cells-2048-rows"),
        pytest.param([200.0] * 3_000, 4_096, 512, id="cells-3000-rows"),  # 2^20 // 3000 = 349
        pytest.param([200.0] * 8_192, 4_096, 128, id="stopping-block"),  # 8192 columns at base 200
        pytest.param([200.0] * 8_192, 50, 64, id="S-below-the-cells"),
    ])
    def test_guide_size(self, rates, S, G):
        # the smallest power of two at least min(8 W, S, 2^20 // rows),
        # one code per cell and row: fewer than 2^21 + rows codes
        cdf = poisson_cdf_tables(np.array(rates))
        assert sampling._GUIDE_PER_COLUMN == 8 and sampling._GUIDE_CELLS == 1 << 20
        table = prepare_rows(cdf, S)
        assert table.passes is None and table.G == G
        assert table.lookup.dtype == np.int32 and table.lookup.shape == (len(rates) * (G + 1),)
        assert len(table.lookup) < (1 << 21) + len(rates)

    @pytest.mark.parametrize("G", [1, 2, 64, 1_024, 8_192])
    def test_count_codes(self, monkeypatch, G):
        # each cell's code against its definition: the count at the cell's lower
        # edge, complemented where an entry before the plateau lies in the cell
        full = poisson_cdf_tables(np.array([0.0, 25.0, 200.0, 900.0]))
        # top 3, with an entry above 1 before it
        past_one = np.array([[0.25, 0.5, 1.0 + 2**-52, 1.0 + 2**-51, 1.0 + 2**-51]])
        for cdf in (full, full[:, :full.shape[1] // 3], full + 4e-16 * (full > 0.5), past_one):
            top = np.argmax(cdf == cdf[:, -1:], axis=1)
            codes = sampling._guide_codes(cdf, top, G)
            assert codes.shape == (len(cdf), G + 1) and codes.dtype == np.int32
            with monkeypatch.context() as m:
                m.setattr(sampling, "_CHUNK_CELLS", 1)  # built one row per chunk and joined
                assert np.array_equal(sampling._guide_codes(cdf, top, G), codes)
            lower, upper = np.arange(G) / G, np.arange(1, G + 1) / G
            for r, row in enumerate(cdf):
                entries = row[:top[r]]
                n = np.minimum((entries[None, :] <= lower[:, None]).sum(axis=1), top[r])
                inside = (entries[None, :] > lower[:, None]) & (entries[None, :] <= upper[:, None])
                mixed = inside.any(axis=1)
                assert np.array_equal(codes[r, :G], np.where(mixed, ~n, n))
                assert codes[r, G] == top[r]

    def test_clt_guides_send_few_cells_to_bisection(self):
        # the bench clt tables at base 200: the first and last 256-column a_j
        # blocks, guided for their 2000 sample rows (G = 2048), and the a_0
        # row, guided for 2000 x 256 of them (G = 4096, from its 8 x 336
        # columns); a 512-cell guide has 14-15% negative codes
        profile = IntensityProfile(200.0, HALF)
        a0 = poisson_cdf_tables(np.array([eval_intensity(profile, 0)]))
        a_j = [profile.level * np.exp(epsilon_at(HALF, np.arange(lo, lo + 256))) for lo in (2, 9_745)]
        blocks = [(poisson_cdf_tables(rates), 2_000, 2_048) for rates in a_j] + [(a0, 2_000 * 256, 4_096)]
        for cdf, S, G in blocks:
            table = prepare_rows(cdf, S)
            codes = table.lookup.reshape(len(cdf), table.G + 1)[:, :table.G]
            assert table.G == G and np.mean(codes < 0) <= 0.05

    def test_path_follows_the_table(self):
        # low-count tables take the passes; wide ones the guide search
        assert sampling._pass_count(poisson_cdf_tables(np.full(64, 1.0))) is not None
        assert sampling._pass_count(poisson_cdf_tables(np.full(64, 8.0))) is not None
        assert sampling._pass_count(poisson_cdf_tables(np.linspace(100.0, 200.0, 64))) is None
        assert sampling._pass_count(poisson_cdf_tables(np.array([200.0]))) is None


#: A log grid of rates from 0 to the cap, with the switch to rows from the
#: mode (exp(-rate) subnormal from about 708.4) on both sides.
PLATEAU_RATES = [0.0, *np.geomspace(1e-3, sampling._MAX_RATE, 17).tolist(), 0.94, 1.0, 8.0, 200.0,
                 708.3, 708.5, 1e3, 1e5]


class TestPlateauWidth:
    """Tables end where every row's running sum has stopped moving: the
    counts are those of the cutoff-wide table, from fewer columns."""

    @staticmethod
    def _entries_and_neighbours(ref: np.ndarray) -> np.ndarray:
        """(3 (K + 1) + 1, rows) uniforms: every entry of each row of the
        cutoff-wide table, both float neighbours, and 1 - 2^-53."""
        u = np.concatenate([ref.T, np.nextafter(ref.T, -1.0), np.nextafter(ref.T, 2.0),
                            np.ones((1, len(ref)))])
        return np.clip(u, 0.0, np.nextafter(1.0, 0.0))

    @pytest.mark.parametrize("rate", PLATEAU_RATES)
    def test_counts_of_the_cutoff_table(self, rate):
        ref = _cutoff_tables(np.array([rate]))
        cdf = poisson_cdf_tables(np.array([rate]))
        _assert_cut_of(cdf, ref)
        u = self._entries_and_neighbours(ref)
        counts = invert_uniform_rows(cdf, u)
        assert np.array_equal(counts, invert_uniform_rows(ref, u))
        assert np.array_equal(counts, _raw_search(ref, u))

    def test_counts_of_a_mixed_table(self):
        # rows of every rate up to 1e3 in one table, each inverted at its own
        # cutoff-wide entries and their neighbours
        rates = np.array([rate for rate in PLATEAU_RATES if rate <= 1e3])
        ref = _cutoff_tables(rates)
        cdf = poisson_cdf_tables(rates)
        _assert_cut_of(cdf, ref)
        u = self._entries_and_neighbours(ref)
        assert np.array_equal(invert_uniform_rows(cdf, u), _raw_search(ref, u))

    @pytest.mark.parametrize("rate", PLATEAU_RATES)
    def test_width_rule(self, rate):
        # W - 1 is the first k >= floor(rate) + 1 with p(k; rate) < 2^-60,
        # within the cutoff K + 1
        W = poisson_cdf_tables(np.array([rate])).shape[1]
        first, log_floor = int(rate) + 1, -60.0 * math.log(2.0)
        assert first <= W - 1 <= int(rate + 12.0 * math.sqrt(rate + 1.0) + 30.0)
        assert poisson_log_pmf(rate, W - 1) < log_floor
        assert W - 2 < first or poisson_log_pmf(rate, W - 2) >= log_floor

    @pytest.mark.parametrize("rate", PLATEAU_RATES[1:])
    def test_width_past_the_plateau(self, rate):
        # at the plateau start T, p(T + 1) is below the half ulp 2^-53 of a
        # final sum in [1/2, 2), and the pmf falls by rate / (T + 2) or more
        # per column from there, so it is below 2^-60 after j columns,
        # 2^-53 (rate / (T + 2))^j <= 2^-60
        cdf = poisson_cdf_tables(np.array([rate]))
        T = int(np.argmax(cdf[0] == cdf[0, -1]))
        j = math.floor(7.0 * math.log(2.0) / math.log((T + 2) / rate)) + 1
        assert cdf.shape[1] - 1 <= max(int(rate) + 1, T + 1 + j)

    @pytest.mark.parametrize("t", [0.05, 0.2, 1.0])
    def test_low_rate_tables_end_near_their_plateau(self, t):
        # the scan's tables up to scale 1: at most three columns past the plateau
        # start; the gap grows with the rate (4 at scale 8, 10 at rate 200)
        cdf = poisson_cdf_tables(t * np.exp(epsilon_at(HALF, np.arange(-3_000, 3_000))))
        top = np.argmax(cdf == cdf[:, -1:], axis=1)
        assert cdf.shape[1] <= top.max() + 3

    def test_cells_counted_as_built(self, monkeypatch):
        # rate-1 rows are 21 columns wide, not the cutoff's 48: a cell budget of
        # 100 such rows takes 100 of them and refuses 101
        monkeypatch.setattr(sampling, "MAX_CELLS", 100 * 21)
        assert poisson_cdf_tables(np.full(100, 1.0)).shape == (100, 21)
        with pytest.raises(ParameterDomainError, match="101 x 21 passes"):
            poisson_cdf_tables(np.full(101, 1.0))


class TestSampleConfiguration:
    def test_counts_nonnegative_and_reproducible(self):
        win = (0, 200)
        one = sample_configuration(P1, win, RNGSpec(seed=1))
        two = sample_configuration(P1, win, RNGSpec(seed=1))
        assert np.all(one.counts >= 0)
        assert np.array_equal(one.counts, two.counts)
        assert one.index_range == win

    def test_distinct_streams_differ(self):
        one = sample_configuration(P1, (0, 200), RNGSpec(seed=1, stream=0))
        two = sample_configuration(P1, (0, 200), RNGSpec(seed=1, stream=1))
        assert not np.array_equal(one.counts, two.counts)

    def test_empirical_mean_tracks_intensity(self):
        gen = RNGSpec(seed=2).generator()
        acc = np.zeros(50)
        reps = 4_000
        for _ in range(reps):
            acc += sample_configuration(P1, (2, 52), gen).counts
        rates = np.array([eval_intensity(P1, k) for k in range(2, 52)])
        err = acc / reps - rates
        assert np.max(np.abs(err)) < 4.0 * math.sqrt(rates.max() / reps) + 0.02

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            sample_configuration(P1, (5, 5), RNGSpec(seed=0))


class TestLogRnDerivative:
    def test_zero_family_identically_zero(self):
        p = IntensityProfile(1.0)
        omega = sample_configuration(p, (0, 10), RNGSpec(seed=0))
        for n in (1, 2, 7):
            assert log_rn_derivative(p, omega, n) == 0.0

    def test_shift_zero(self):
        omega = sample_configuration(P1, (0, 10), RNGSpec(seed=0))
        assert log_rn_derivative(P1, omega, 0) == 0.0

    def test_pmf_ratio_oracle(self):
        # finite-support profile: the window is exact, so the sum must equal
        # the log of the product of per-site pmf ratios
        fam = ExplicitFamily.from_mapping({0: 0.4, 1: -0.3, 2: 0.15}, tail=ZeroFamily())
        p = IntensityProfile(1.0, fam)
        n = 3
        lo, hi = window_for_shift(p, n)
        omega = sample_configuration(p, (lo, hi), RNGSpec(seed=4))
        want = math.fsum(
            poisson_log_pmf(eval_intensity(p, k - n), int(c)) - poisson_log_pmf(eval_intensity(p, k), int(c))
            for k, c in zip(range(lo, hi), omega.counts)
        )
        assert log_rn_derivative(p, omega, n) == pytest.approx(want, abs=1e-10)

    def test_power_profile_ratio_oracle(self):
        n = 3
        lo, hi = window_for_shift(P1, n)
        omega = sample_configuration(P1, (lo, hi), RNGSpec(seed=6))
        want = math.fsum(
            poisson_log_pmf(eval_intensity(P1, k - n), int(c)) - poisson_log_pmf(eval_intensity(P1, k), int(c))
            for k, c in zip(range(lo, hi), omega.counts)
        )
        assert log_rn_derivative(P1, omega, n) == pytest.approx(want, abs=1e-10)

    def test_coverage_error(self):
        omega = sample_configuration(P1, (2, 30), RNGSpec(seed=0))
        with pytest.raises(WindowCoverageError):
            log_rn_derivative(P1, omega, 5)

    def test_density_moments_match_analytic(self):
        # E[RN] = 1 exactly (unit-mean factor per site), and
        # E[RN^-2] = exp(sum_k ((a_k/a_{k-n})^2 - 1) a_k) over the window;
        # the full-lattice series from the certificate layer should agree
        # up to the window's tail contribution
        p = IntensityProfile(0.2, HALF)
        n = 2
        lo, hi = window_for_shift(p, n, window_tol=1e-6)
        ks = np.arange(lo, hi)
        a_k = np.array([eval_intensity(p, int(k)) for k in ks])
        a_kn = np.array([eval_intensity(p, int(k) - n) for k in ks])
        # per-site factor of E[RN^-2]: sum_y kappa_a(y) (kappa_a/kappa_b)^2(y)
        # = exp(a^3/b^2 - 3a + 2b); the -3a + 2b part collapses to
        # ((a/b)^2 - 1) a only on the full lattice, where sum (a_k - a_{k-n}) = 0
        window_I = float(np.sum(a_k**3 / a_kn**2 - 3.0 * a_k + 2.0 * a_kn))

        gen = RNGSpec(seed=14).generator()
        m = 60_000
        cdf = poisson_cdf_tables(a_k)
        logrn = np.empty(m)
        theta = np.log(a_kn) - np.log(a_k)
        drift = float(np.sum(a_k - a_kn))
        chunk = 4_096
        done = 0
        while done < m:
            c = min(chunk, m - done)
            counts = invert_uniform_rows(cdf, gen.random((c, len(ks)))).astype(float)
            logrn[done:done + c] = drift + counts @ theta
            done += c

        rn = np.exp(logrn)
        mean = float(np.mean(rn))
        se = float(np.std(rn, ddof=1) / math.sqrt(m))
        assert abs(mean - 1.0) <= 4.0 * se

        inv2 = np.exp(-2.0 * logrn)
        mean2 = float(np.mean(inv2))
        se2 = float(np.std(inv2, ddof=1) / math.sqrt(m))
        assert abs(mean2 - math.exp(window_I)) <= 4.0 * se2
        # the analytic full-lattice series sits within the window tail error
        from suspension_lab.criteria import rn_square_integral
        assert math.exp(rn_square_integral(p, n)) == pytest.approx(math.exp(window_I), rel=0.08)

    def test_cocycle_identity(self):
        n, m = 4, 6
        lo, hi = window_for_shift(P1, n + m)
        hi += n + m
        gen = RNGSpec(seed=8).generator()
        for _ in range(100):
            omega = sample_configuration(P1, (lo, hi), gen)
            lhs = log_rn_derivative(P1, omega, n + m)
            rhs = log_rn_derivative(P1, omega, n) + log_rn_derivative(P1, omega.shifted(n), m)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ConfigurationWindow(0, np.array([1, -1]))


class TestHopfDiagnostic:
    def test_zero_family_partial_sums_count(self):
        p = IntensityProfile(1.0)
        s = hopf_diagnostic(p, N=16, samples=40, rng=RNGSpec(seed=0))
        assert s.statistics["partial_sum_median"] == pytest.approx(s.statistics["checkpoints"])

    def test_dissipative_regime_growth_flattens(self):
        s = hopf_diagnostic(IntensityProfile(8.0, HALF), N=64, samples=1_000, rng=RNGSpec(seed=0))
        assert s.statistics["growth_exponent"] < 0.5
        assert s.statistics["heuristic"] is True

    def test_markov_bound_holds(self):
        s = hopf_diagnostic(IntensityProfile(0.1, HALF), N=64, samples=10_000, rng=RNGSpec(seed=0))
        mk = s.statistics["markov"]
        freq = np.array(mk["event_freq"])
        bound = np.array(mk["bound"])
        assert np.all(freq <= bound)

    def test_reproducible(self):
        a = hopf_diagnostic(P1, N=32, samples=200, rng=RNGSpec(seed=12))
        b = hopf_diagnostic(P1, N=32, samples=200, rng=RNGSpec(seed=12))
        assert a.statistics == b.statistics

    def test_refused_level_builds_nothing(self, monkeypatch):
        # the first level's moment bounds are checked before the eps grid,
        # theta, the counts of a gemm chunk (165 x 6346 doubles) and the
        # uniforms of a draw chunk (19 x 6346) are built
        def grid(*args):
            raise AssertionError("eps grid built before the moment bounds")
        monkeypatch.setattr(simulate, "epsilon_at", grid)
        profile = IntensityProfile(500.0, HALF)
        lo, hi = window_for_shift(profile, 8)
        buffer_bytes = 8 * (hi - lo) * (simulate._HOPF_CHUNK_CELLS // (hi - lo + 8))
        tracemalloc.start()
        try:
            with pytest.raises(ParameterDomainError, match=r"^Hopf moment bounds overflow at level 500\.0$"):
                hopf_diagnostic(profile, N=8, samples=1_000, rng=RNGSpec(seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < buffer_bytes / 2

    def test_uniforms_in_one_draw_chunk(self):
        # W = 2340, N = 64: gemm chunks of 436 x 2340 float64 counts, 7.8 MB,
        # whose uniforms come in draw chunks of 55 rows, 1 MB; a uniform
        # buffer of the gemm chunk's size would take the peak past twice it
        lo, hi = window_for_shift(P1, 64)
        operand_bytes = 8 * (hi - lo) * (simulate._HOPF_CHUNK_CELLS // (hi - lo + 64))
        tracemalloc.start()
        try:
            hopf_diagnostic(P1, N=64, samples=500, rng=RNGSpec(seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * operand_bytes

    @pytest.mark.parametrize("experiment", ["hopf", "scan"])
    def test_statistics_ignore_the_draw_chunks(self, monkeypatch, experiment):
        # gemm chunks of 17 rows (17, 17 and 6 of 40 samples), drawn in one
        # draw chunk each by default and, with draw chunks of at most 7 rows,
        # in chunks of 6, 6 and 5 rows, then 6: the same statistics from
        # the same stream, which every scale replays from its start
        N, samples, rows = 8, 40, 17
        lo, hi = window_for_shift(P1, N)
        W = hi - lo
        monkeypatch.setattr(simulate, "_HOPF_CHUNK_CELLS", rows * (W + N))
        ts = [1.0] if experiment == "hopf" else [0.25, 0.5, 1.0]
        drawn, shapes = [], []

        class RecordingGenerator:
            def __init__(self, gen):
                self.gen = gen

            def random(self, size=None, out=None):
                u = self.gen.random(size, out=out)
                drawn.append(u.ravel().copy())
                shapes.append(u.shape)
                return u

        def run():
            if experiment == "hopf":
                return hopf_diagnostic(P1, N=N, samples=samples, rng=RNGSpec(seed=5)).statistics
            return scan_intensity(P1, ts, N=N, samples=samples, rng=RNGSpec(seed=5)).statistics

        default = run()
        generator = RNGSpec.generator
        monkeypatch.setattr(RNGSpec, "generator", lambda spec: RecordingGenerator(generator(spec)))
        monkeypatch.setattr(simulate, "_DRAW_CHUNK_CELLS", 7 * W)
        assert run() == default
        assert shapes == [(6, W), (6, W), (5, W), (6, W), (6, W), (5, W), (6, W)] * len(ts)
        stream = generator(RNGSpec(seed=5)).random((samples, W)).ravel()
        assert np.array_equal(np.concatenate(drawn), np.tile(stream, len(ts)))


class TestCltExperiment:
    def test_refuses_wrong_regime(self):
        with pytest.raises(PreconditionError):
            clt_experiment(IntensityProfile(1.0, PowerFamily(1.0, -1)), n=100, samples=10, rng=RNGSpec(0))
        with pytest.raises(PreconditionError):
            clt_experiment(IntensityProfile(1.0), n=100, samples=10, rng=RNGSpec(0))

    def test_small_run_statistics(self):
        s = clt_experiment(P1, n=1_000, samples=4_000, rng=RNGSpec(seed=0))
        snap = s.statistics["snapshots"][-1]
        assert snap["n"] == 1_000
        # exact finite-n variance: beta^2 sum eps^2 (a0 + a_j)
        js = np.arange(2, 1_001)
        eps = -1.0 / np.sqrt(js)
        exact = float(np.sum(eps**2 * (1.0 + np.exp(eps))) / np.sum(eps**2))
        assert snap["exact_variance"] == pytest.approx(exact, rel=1e-12)
        assert abs(snap["empirical_variance"] - exact) < 4.0 * exact * math.sqrt(2.0 / 3_999)
        assert snap["drift"] < 0.0

    def test_drift_matches_closed_form(self):
        s = clt_experiment(P1, n=500, samples=16, rng=RNGSpec(seed=0))
        snap = s.statistics["snapshots"][-1]
        js = np.arange(2, 501)
        eps = -1.0 / np.sqrt(js)
        want = float(np.sum(eps * (1.0 - np.exp(eps))) / math.sqrt(np.sum(eps**2)))
        assert snap["drift"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("experiment", ["clt", "decay", "stopping", "stopping_chunks", "hopf", "scan"])
    def test_draw_protocol(self, monkeypatch, experiment):
        # every uniform is inverted exactly once, in the order drawn; an
        # increment draw puts each block's x uniforms, row-major, before its
        # y uniforms in the stream, and draws row chunks in pairs, x then y;
        # clt draws 2 * samples per live j (eps_j != 0), decay 2 * samples
        # per row with n <= mc_max
        drawn, inverted, events, generators = [], [], [], []

        class CountingGenerator:
            def __init__(self, gen):
                self.gen = gen
                self.bit_generator = gen.bit_generator
                self.shapes = []
                generators.append(self.shapes)

            def random(self, size=None, out=None):
                u = self.gen.random(size, out=out)
                drawn.append(u.ravel().copy())
                events.append(u.shape)
                self.shapes.append(u.shape)
                return u

        generator = RNGSpec.generator
        monkeypatch.setattr(RNGSpec, "generator", lambda spec: CountingGenerator(generator(spec)))
        def inverting(cdf, u, out=None, invert=simulate.invert_uniform_rows):
            inverted.append(u.ravel().copy())
            return invert(cdf, u, out=out)
        monkeypatch.setattr(simulate, "invert_uniform_rows", inverting)

        def increment_layout():
            # each drawn chunk's offset in the stream of RNGSpec(seed=5): a
            # block of X = rows * columns cells has its x chunks at b + r0 *
            # columns and the matching y chunks X further, and the next block
            # starts at b + 2X; the chunks tile the stream once
            sizes = [len(u) for u in drawn]
            stream = generator(RNGSpec(seed=5)).random(sum(sizes))
            order = np.argsort(stream)
            starts = [int(order[np.searchsorted(stream, u[0], sorter=order)]) for u in drawn]
            assert all(np.array_equal(stream[o:o + len(u)], u) for o, u in zip(starts, drawn))
            assert len(drawn) % 2 == 0 and sizes[0::2] == sizes[1::2]
            pairs = list(zip(starts[0::2], starts[1::2], sizes[0::2]))
            b = i = 0
            while i < len(pairs):
                X = pairs[i][1] - pairs[i][0]
                assert X > 0, pairs[i]
                at = b
                while at < b + X:
                    assert pairs[i][:2] == (at, at + X), (b, X, pairs[i])
                    at += pairs[i][2]
                    i += 1
                assert at == b + X
                b += 2 * X
            assert b == len(stream)
        samples = 3
        if experiment in ("hopf", "scan"):
            # per scale, a fresh generator of the spec draws samples x W
            # uniforms in chunks of _HOPF_CHUNK_CELLS // (W + N) rows, here
            # shrunk to 7: two full chunks and a partial one; the eps grid is
            # built once per call and each scale's table prepared once
            calls = {"epsilon_at": 0, "prepare_rows": 0}
            def counting(name, fn):
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return wrapper
            monkeypatch.setattr(simulate, "epsilon_at", counting("epsilon_at", simulate.epsilon_at))
            prepare = counting("prepare_rows", sampling.prepare_rows)
            monkeypatch.setattr(simulate, "prepare_rows", prepare)
            monkeypatch.setattr(sampling, "prepare_rows", prepare)
            N, samples, rows = 8, 17, 7
            lo, hi = window_for_shift(P1, N)
            W = hi - lo
            monkeypatch.setattr(simulate, "_HOPF_CHUNK_CELLS", rows * (W + N) + W)
            ts = [1.0] if experiment == "hopf" else [0.25, 0.5, 1.0]
            if experiment == "hopf":
                hopf_diagnostic(P1, N=N, samples=samples, rng=RNGSpec(seed=5))
            else:
                scan_intensity(P1, ts, N=N, samples=samples, rng=RNGSpec(seed=5))
            assert generators == [[(rows, W), (rows, W), (samples - 2 * rows, W)]] * len(ts)
            stream = generator(RNGSpec(seed=5)).random((samples, W)).ravel()
            assert np.array_equal(np.concatenate(drawn), np.tile(stream, len(ts)))
            assert calls == {"epsilon_at": 1, "prepare_rows": len(ts)}
        elif experiment == "clt":
            # dead columns in the blocks j <= 100 (up to the first snapshot) and 101..356
            fam = ExplicitFamily(((3, 0.0), (4, -0.3), (6, 0.0), (300, 0.0), (301, 0.0)), HALF)
            n = 600
            clt_experiment(IntensityProfile(1.0, fam), n=n, samples=samples, rng=RNGSpec(seed=5))
            live = np.count_nonzero(epsilon_at(fam, np.arange(2, n + 1)))
            assert live == n - 5 > simulate._CLT_BLOCK
            assert sum(map(len, drawn)) == 2 * samples * live
            increment_layout()
        elif experiment == "decay":
            increment_tail_decay(P1, RNGSpec(seed=5), samples=samples, ns=(10, 50, 100, 1_000), mc_max=100)
            assert [len(u) for u in drawn] == [samples] * 6
            increment_layout()
        elif experiment == "stopping":
            stopping_time_experiment(P1, r=-2.0, eps=0.1, M=100, N=20_000, samples=20, rng=RNGSpec(seed=5))
            assert len(drawn) > 2  # more than one block
            increment_layout()
        else:
            # blocks of more sample rows than one row chunk holds: a block
            # builds its table, then draws its row chunks in pairs, the x
            # chunk (rows, columns), then the y chunk, one column of as many
            # cells; the first block's 33 rows are 3 chunks of 11
            def table(rates, build=simulate.poisson_cdf_tables):
                events.append("table")
                return build(rates)
            monkeypatch.setattr(simulate, "poisson_cdf_tables", table)
            rows_per_chunk = simulate._DRAW_CHUNK_CELLS // simulate._STOPPING_BLOCK
            stopping_time_experiment(P1, r=-2.0, eps=0.1, M=100, N=20_000, samples=2 * rows_per_chunk + 1,
                                     rng=RNGSpec(seed=5))
            blocks = [[]]
            for event in events:
                if event == "table":
                    blocks.append([])
                else:
                    blocks[-1].append(event)
            blocks = [shapes for shapes in blocks if shapes]  # the a_0 table draws nothing
            assert len(blocks) > 1
            for shapes in blocks:
                x, y = shapes[0::2], shapes[1::2]
                assert all(columns > 1 for _, columns in x) and all(columns == 1 for _, columns in y)
                assert list(map(math.prod, x)) == list(map(math.prod, y))
            assert blocks[0][0::2] == [(11, simulate._STOPPING_BLOCK)] * 3
            increment_layout()
        assert np.array_equal(np.concatenate(drawn), np.concatenate(inverted))

    @pytest.mark.parametrize("base, columns", [(1.0, 256), (200.0, 256), (1.0, 253)])
    def test_block_sums_ignore_the_row_split(self, base, columns):
        # clt's reduction of a draw block: each row's sum has the same bits
        # whatever rows are summed with it
        eps = epsilon_at(HALF, np.arange(2, columns + 2))
        a0 = np.array([base])
        chunks = simulate._increments(RNGSpec(seed=3).generator(), base * np.exp(eps), poisson_cdf_tables(a0), 1_000)
        streamed = np.empty(1_000)
        d = np.empty((1_000, columns), dtype=np.int32)
        for r0, chunk in chunks:
            streamed[r0:r0 + len(chunk)] = np.einsum("sk,k->s", chunk, eps)
            d[r0:r0 + len(chunk)] = chunk
        whole = np.einsum("sk,k->s", d, eps)
        assert np.array_equal(whole, np.einsum("sk,k->s", d.astype(float), eps))
        assert np.array_equal(streamed, whole)
        for step in (1, 7, 500, 999):
            parts = [np.einsum("sk,k->s", d[r0:r0 + step], eps) for r0 in range(0, len(d), step)]
            assert np.array_equal(np.concatenate(parts), whole), step

    def test_reproducible(self):
        a = clt_experiment(P1, n=300, samples=500, rng=RNGSpec(seed=21))
        b = clt_experiment(P1, n=300, samples=500, rng=RNGSpec(seed=21))
        assert a.statistics == b.statistics


class TestIncrementTailDecay:
    def test_monte_carlo_within_three_se(self):
        s = increment_tail_decay(P1, RNGSpec(seed=0), samples=100_000, ns=(10, 100))
        for row in s.statistics["rows"]:
            assert row["mc_within_3se"]

    def test_threshold_guarantee_consistent(self):
        s = increment_tail_decay(P1, RNGSpec(seed=0), samples=100, ns=(10, 100_000))
        L = s.statistics["tail_threshold_L"]
        n_guaranteed = s.statistics["guaranteed_beyond_n"]
        assert n_guaranteed == L ** 4
        for row in s.statistics["rows"]:
            if row["guaranteed"]:
                assert row["beats_eps_fourth"]

    def test_deep_threshold_tail_is_tiny(self):
        # deviation threshold 10 at unit level: the exact tail sits below 1e-8
        s = increment_tail_decay(P1, RNGSpec(seed=0), samples=2, ns=(10_000,), mc_max=0)
        row = s.statistics["rows"][0]
        assert row["threshold"] == pytest.approx(10.0)
        assert 1e-9 < row["exact_tail"] < 1e-8


def row_chunks(rows: int, columns: int) -> list[range]:
    """The rows of each chunk of a (rows, columns) draw block."""
    step = simulate._row_step(rows, columns)
    return [range(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


class TestRowChunks:
    CAP = simulate._DRAW_CHUNK_CELLS

    @pytest.mark.parametrize("rows", [1, 2, 15, 16, 17, 977, 1_000, 2_000])
    @pytest.mark.parametrize("columns", [1, 3, 256, 6_960, 8_080, 8_192, 1 << 17, (1 << 17) + 1, 3 << 17])
    def test_fewest_chunks_within_the_cap(self, rows, columns):
        chunks = row_chunks(rows, columns)
        assert all(len(c) * columns <= self.CAP or len(c) == 1 for c in chunks)
        assert len(chunks) == -(-rows // max(1, self.CAP // columns))
        assert {len(c) for c in chunks[:-1]} <= {len(chunks[0])} and len(chunks[-1]) <= len(chunks[0])
        assert [r for c in chunks for r in c] == list(range(rows))

    def test_bench_chunkings(self):
        # clt blocks of 2000 x 256 and stopping blocks of 1000 x 8192
        assert [len(c) for c in row_chunks(2_000, 256)] == [500] * 4
        assert {len(c) for c in row_chunks(1_000, 8_192)[:-1]} == {16}

    def test_one_set_up_per_table_and_block(self, monkeypatch):
        # a block of 49 x 8192 spans four row chunks (13, 13, 13 and 10 rows):
        # the a_j table and the one-row a_0 table are each prepared once, for
        # the block's 49 sample rows and its 49 x 8192 single-row draws
        calls = []
        def prepare(cdf, samples, prepare_rows=sampling.prepare_rows):
            calls.append((cdf.shape, samples))
            return prepare_rows(cdf, samples)
        monkeypatch.setattr(simulate, "prepare_rows", prepare)
        monkeypatch.setattr(sampling, "prepare_rows", prepare)
        a_j = np.full(8_192, 1.5)
        cdf0 = poisson_cdf_tables(np.array([1.0]))
        chunks = simulate._increments(RNGSpec(seed=3).generator(), a_j, cdf0, 49)
        assert [(r0, len(d)) for r0, d in chunks] == [(0, 13), (13, 13), (26, 13), (39, 10)]
        assert sorted(calls) == sorted([(poisson_cdf_tables(a_j).shape, 49), (cdf0.shape, 49 * 8_192)])

    def test_stream_position(self, monkeypatch):
        # 50 rows of 300 columns in chunks of 7 (the last of 1): the chunks
        # are y - x of one x matrix and then one y matrix, and the generator
        # ends 2 * rows * columns past its start
        rows, columns = 50, 300
        spec = RNGSpec(seed=3, stream=2)
        a_j = np.linspace(0.5, 40.0, columns)
        cdf0 = poisson_cdf_tables(np.array([2.0]))
        gen = spec.generator()
        monkeypatch.setattr(simulate, "_DRAW_CHUNK_CELLS", 7 * columns)
        chunks = [(r0, d.copy()) for r0, d in simulate._increments(gen, a_j, cdf0, rows)]
        assert [r0 for r0, _ in chunks] == list(range(0, rows, 7))
        fresh = spec.generator()
        x = invert_uniform_rows(poisson_cdf_tables(a_j), fresh.random((rows, columns)))
        y = invert_uniform_rows(cdf0, fresh.random((rows * columns, 1))).reshape(rows, columns)
        assert np.array_equal(np.concatenate([d for _, d in chunks]), y - x)
        assert gen.bit_generator.state == spec.generator().bit_generator.advance(2 * rows * columns).state


def _stopping_whole_rows(profile, r, eps, M, N, samples, rng):
    """``stopping_time_experiment``'s statistics from its draws, reduced over
    whole rows: every |X| kept, and the crossing rows' prefix max taken by
    ``np.maximum.accumulate`` over all of each row's columns."""
    gen = rng.generator()
    cdf0 = poisson_cdf_tables(np.array([eval_intensity(profile, 0)]))
    partial, max_abs_x = np.zeros(samples), np.zeros(samples)
    crossing = np.full(samples, -1, dtype=np.int64)
    overshoot, x_at_crossing = np.full(samples, np.nan), np.full(samples, np.nan)
    alive, j = np.arange(samples), M
    while j < N and len(alive):
        js = np.arange(j + 1, min(j + simulate._STOPPING_BLOCK, N) + 1)
        eps_j = epsilon_at(profile.epsilon, js)
        for r0, chunk in simulate._increments(gen, profile.level * np.exp(eps_j), cdf0, len(alive)):
            rows = alive[r0:r0 + len(chunk)]
            X = chunk * eps_j
            sums = partial[rows, None] + np.cumsum(X, axis=1)
            below = sums < r
            first = below.argmax(axis=1)
            h = np.flatnonzero(below[np.arange(len(rows)), first])
            absX = np.abs(X)
            block_max = absX.max(axis=1)
            block_max[h] = np.maximum.accumulate(absX[h], axis=1)[np.arange(len(h)), first[h]]
            max_abs_x[rows] = np.maximum(max_abs_x[rows], block_max)
            crossing[rows[h]] = js[first[h]]
            overshoot[rows[h]] = np.abs(sums[h, first[h]] - r)
            x_at_crossing[rows[h]] = absX[h, first[h]]
            partial[rows] = sums[:, -1]
        alive = alive[crossing[alive] < 0]
        j = js[-1]
    ok = crossing > 0
    clean = ok & (max_abs_x < eps)
    return {
        "success_freq": float(np.mean(ok)),
        "no_crossing": int(np.sum(~ok)),
        "median_crossing_index": int(np.median(crossing[ok])),
        "max_overshoot": float(np.max(overshoot[ok])),
        "overshoot_le_last_step": bool(np.all(overshoot[ok] <= x_at_crossing[ok] + 1e-12)),
        "eps_clean_freq_given_success": float(np.mean(clean[ok])),
        "conditional_overshoot_below_eps": float(np.mean(overshoot[clean] < eps)),
    }


class TestStoppingTime:
    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            stopping_time_experiment(P1, r=-0.5, eps=0.1, M=10, N=100, samples=5, rng=RNGSpec(0))
        with pytest.raises(ParameterDomainError):
            stopping_time_experiment(P1, r=-2.0, eps=-0.1, M=10, N=100, samples=5, rng=RNGSpec(0))
        with pytest.raises(ValueError):
            stopping_time_experiment(P1, r=-2.0, eps=0.1, M=100, N=100, samples=5, rng=RNGSpec(0))

    def test_short_run_crossing_properties(self):
        s = stopping_time_experiment(P1, r=-1.5, eps=0.5, M=100, N=60_000, samples=300, rng=RNGSpec(seed=0))
        st = s.statistics
        assert st["success_freq"] > 0.5
        assert st["overshoot_le_last_step"] is True
        if st["conditional_overshoot_below_eps"] is not None:
            assert st["conditional_overshoot_below_eps"] == 1.0

    def test_peak_memory_bounded(self):
        # blocks of 300 samples x 8192 columns: one whole-block float64 array
        # is 19.7 MB, so the bound leaves room for tables and row chunks, not
        # for several whole-block arrays at once
        tracemalloc.start()
        try:
            stopping_time_experiment(P1, r=-2.0, eps=0.1, M=100, N=20_000, samples=300, rng=RNGSpec(seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_peak_memory_ignores_the_samples(self):
        # one block of 8192 columns: a whole-block int32 array would add
        # 28 MB from 300 to 1200 samples; the row chunks add nothing
        peaks = []
        for samples in (300, 1_200):
            tracemalloc.start()
            try:
                stopping_time_experiment(P1, r=-2.0, eps=0.1, M=100, N=100 + simulate._STOPPING_BLOCK,
                                         samples=samples, rng=RNGSpec(seed=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 4 * 2**20

    def test_statistics_ignore_the_chunk_size(self, monkeypatch):
        # blocks of 8192, 8192 and 3000 columns over 50, 22 and 15 samples
        # alive (13 never cross), drawn and reduced in chunks of up to 7 rows
        # (7 x 7 + 1 in the first block), in one-row chunks, and by default
        run = lambda: stopping_time_experiment(P1, r=-5.0, eps=0.5, M=100, N=100 + 2 * 8_192 + 3_000,
                                               samples=50, rng=RNGSpec(seed=1)).statistics
        default = run()
        for cells in (7 * 8_192 + 1_000, 3_000):
            monkeypatch.setattr(simulate, "_DRAW_CHUNK_CELLS", cells)
            assert run() == default, cells

    @pytest.mark.parametrize("cells", [None, 7 * 8_192 + 1_000, 3_000])
    def test_reductions_match_whole_rows(self, monkeypatch, cells):
        # the reductions as they were, over whole rows: |X| and its running
        # max over all 8192 columns, sums in a second buffer; blocks over 120
        # samples, some clean and some not, in default, 7-row and 1-row chunks
        # (a row max of X alone, not |X|, moves the clean share)
        if cells is not None:
            monkeypatch.setattr(simulate, "_DRAW_CHUNK_CELLS", cells)
        args = dict(r=-2.0, eps=0.15, M=1_000, N=1_000 + 2 * 8_192 + 3_000, samples=120)
        got = stopping_time_experiment(P1, rng=RNGSpec(seed=2), **args).statistics
        want = _stopping_whole_rows(P1, rng=RNGSpec(seed=2), **args)
        assert 0.0 < want["eps_clean_freq_given_success"] < 1.0 and want["no_crossing"] > 0
        assert got == want

    def test_reproducible(self):
        a = stopping_time_experiment(P1, r=-1.5, eps=0.5, M=50, N=5_000, samples=100, rng=RNGSpec(seed=33))
        b = stopping_time_experiment(P1, r=-1.5, eps=0.5, M=50, N=5_000, samples=100, rng=RNGSpec(seed=33))
        assert a.statistics == b.statistics


class TestScanIntensity:
    def test_later_level_refused_before_its_table(self, monkeypatch):
        # every scale's moment bounds are checked before the first scale's table is built
        tables = []
        def table(rates, build=simulate.poisson_cdf_tables):
            tables.append(len(rates))
            return build(rates)
        monkeypatch.setattr(simulate, "poisson_cdf_tables", table)
        with pytest.raises(ParameterDomainError, match=r"^Hopf moment bounds overflow at level 600\.0$"):
            scan_intensity(IntensityProfile(1.0, HALF), [1.0, 600.0], N=8, samples=20, rng=RNGSpec(seed=0))
        assert tables == []

    def test_requires_monotone_grid(self):
        with pytest.raises(ValueError):
            scan_intensity(P1, [1.0, 0.5], N=8, samples=10, rng=RNGSpec(0))

    def test_small_scan_monotone(self):
        s = scan_intensity(P1, [0.1, 1.0, 8.0], N=32, samples=500, rng=RNGSpec(seed=0))
        g = s.statistics["growth_exponents"]
        assert g[0] > g[1] > g[2]
        assert s.statistics["anomaly"] is False
        # endpoints sit on the expected sides: near-linear growth of the
        # partial sums at small scale, flattening at large scale
        assert g[0] > 0.85
        assert g[2] < 0.5

    def test_reproducible(self):
        a = scan_intensity(P1, [0.5, 2.0], N=16, samples=100, rng=RNGSpec(seed=44))
        b = scan_intensity(P1, [0.5, 2.0], N=16, samples=100, rng=RNGSpec(seed=44))
        assert a.statistics == b.statistics


class TestWindowPolicy:
    def test_step_window_exact(self):
        p = IntensityProfile(1.0, StepFamily(0.0, 0.5))
        assert window_for_shift(p, 5) == (1, 6)

    def test_power_window_grows_with_shift(self):
        w1 = window_for_shift(P1, 8)
        w2 = window_for_shift(P1, 64)
        assert w2[1] > w1[1]

    def test_tighter_tolerance_widens(self):
        loose = window_for_shift(P1, 8, window_tol=1e-2)
        tight = window_for_shift(P1, 8, window_tol=1e-6)
        assert tight[1] > loose[1]
