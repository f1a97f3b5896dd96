"""Monte Carlo engine over configurations on the integer lattice.

Experiments are reproducible by construction: every public entry point
takes an ``RNGSpec`` and derives a fresh generator from it, all Poisson
draws go through CDF-table inversion (one uniform per variate), and the
order in which uniforms are consumed is a fixed, documented function of
the experiment parameters.  Identical (seed, stream) pairs therefore
reproduce every statistic bit-for-bit on one CPU SIMD target.  Only the
Hopf product ``counts @ theta`` goes through BLAS, so the clt, decay and
stopping statistics are also the same under every BLAS kernel and thread
count; hopf and scan, and numpy's SIMD loops on another CPU, may move the
last bits of a float.

Skellam increments y_j - x_j are drawn by one rule (``_increments``): per
block, the x uniforms, then the y uniforms, each row-major; the y block is
inverted as one column against the one-row a_0 table.  clt blocks are
``_CLT_BLOCK`` consecutive indices, whose dead ones (eps_j = 0) are
skipped, stopping blocks ``_STOPPING_BLOCK`` indices over the samples
still alive, decay one index.  A block is drawn and reduced in row chunks
of at most ``_DRAW_CHUNK_CELLS`` cells (one row where a row is longer),
each y chunk at its own stream offset, in buffers of one chunk; these are
the only chunks of the draws, which ``sampling`` inverts whole.  Neither
this chunking, nor these buffers, nor the Hopf chunking ever changes the
stream (``gen.random(out=...)`` returns the doubles ``gen.random(shape)``
would), and clt's ``np.einsum`` row sums have the same bits for any row
split.

Hopf and scan draw, at every scale, samples x window uniforms row-major
from a fresh generator of the spec.  One ``_hopf_core`` call serves every
scale: it checks every scale's moment bounds first, then builds the eps
grid, theta, the uniforms of one draw chunk and the float64 counts of one
gemm chunk once per call, and each scale's CDF table once per scale, after
the previous scale's is dropped; neither the buffers, the chunks nor the
shared theta change the stream.

Windowing: products over the lattice are truncated to a finite index
window.  The truncated log-density equals the log-density of the
window-restricted system exactly (the omitted factor has unit mean), and
the window policy bounds the *variance* of the omitted log factor by the
``window_tol`` argument, so the truncation bias is O(window_tol).

Hopf partial sums are heuristic evidence by nature: no finite-N sum can
certify recurrence.  Every summary produced here labels them as such;
certificates live in ``criteria``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import criteria
from .dist import ParameterDomainError, SkellamLaw, skellam_tail, skellam_tail_threshold
from .intensity import (
    IntensityProfile,
    MAX_WINDOW,
    PowerFamily,
    Trivalent,
    _LOG_MAX,
    _tail_family,
    condition_verdict,
    epsilon_at,
    eval_intensity,
    intensities,
    shift_difference_support,
    sup_epsilon,
)
from .numerics import fit_log_slope, ks_statistic, normal_cdf
from .sampling import (
    MAX_CELLS,
    RNGSpec,
    invert_uniform_rows,
    poisson_cdf_tables,
    prepare_rows,
    require_cells,
)

DEFAULT_WINDOW_TOL = 1e-4
_CLT_BLOCK = 256  # consecutive indices per clt draw block, dead ones skipped
_STOPPING_BLOCK = 8_192  # indices per stopping draw block
#: Most cells per row chunk of a draw block or of a Hopf gemm chunk (1 MiB
#: of float64).  Bench ops on a 2-core VM, median of 3 to 6 runs: stopping
#: ran 1.96 s, against 2.30/2.18/2.13/2.14 s at 2^15/2^16/2^18/2^19;
#: clt_hirate ran 1.50 s, against 2.20/1.66/1.56/1.83 s.  Below it the
#: per-chunk calls cost more.
_DRAW_CHUNK_CELLS = 1 << 17
#: Most cells per Hopf gemm chunk, whose rows hold window + N cells each.  It
#: sizes the gemm only; the chunk's uniforms come in draw chunks.  It must not
#: shrink, since OpenBLAS's bits depend on the rows per call: at window 6478
#: and N = 64, a 64-row product differed bitwise from the same rows in 1- to
#: 31-row calls, while C- and F-ordered operands gave the same bits.
_HOPF_CHUNK_CELLS = 1 << 20
_CHECKPOINTS = 9
#: K with P(sup|B| > K) = 0.01 for a Brownian bridge B, the asymptotic
#: Kolmogorov 1% point (scipy's ``kstwobign.isf(0.01)``, the same double).
_KS_CRITICAL_1PCT = 1.6276236115189504


class WindowCoverageError(RuntimeError):
    """A configuration window does not cover the indices a shift touches."""


@dataclass(frozen=True, eq=False)
class ConfigurationWindow:
    """Counts omega_k for k in [offset, offset + len(counts))."""

    offset: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.counts)
        if c.ndim != 1 or len(c) == 0:
            raise ParameterDomainError("counts must be a nonempty 1-d array")
        if np.any(c < 0):
            raise ParameterDomainError("counts must be nonnegative")

    @property
    def index_range(self) -> tuple[int, int]:
        return self.offset, self.offset + len(self.counts)

    def shifted(self, n: int) -> "ConfigurationWindow":
        """The configuration seen through the n-step shift: index k reads
        the original count at k + n."""
        return ConfigurationWindow(self.offset - n, self.counts)


@dataclass(frozen=True)
class ExperimentSummary:
    name: str
    parameters: dict
    statistics: dict
    rng: RNGSpec
    runtime_s: float


def window_for_shift(profile: IntensityProfile, max_shift: int,
                     window_tol: float = DEFAULT_WINDOW_TOL) -> tuple[int, int]:
    """Index window [lo, hi) needed to evaluate shifts up to ``max_shift``.

    Finite difference supports are covered exactly.  For power tails the
    support is infinite and the window is cut where the variance of the
    omitted log factor drops below ``window_tol``.
    """
    if max_shift < 1:
        raise ParameterDomainError(f"max_shift must be >= 1, got {max_shift}")
    if window_tol <= 0:
        raise ParameterDomainError("window_tol must be positive")
    support = shift_difference_support(profile, max_shift)
    if support is None:
        return (0, 1)
    lo, hi = support
    if hi is not None:
        return (lo, hi + 1)
    g = _tail_family(profile.epsilon).gamma
    # sum_{k>K} a_k (eps_{k-n} - eps_k)^2 ~ level g^2 n^2 K^(-2g-1) / (2g+1)
    K = (profile.level * g * g * max_shift**2 / ((2.0 * g + 1.0) * window_tol)) ** (1.0 / (2.0 * g + 1.0))
    if not K < MAX_WINDOW:
        raise ParameterDomainError(f"window_tol {window_tol} needs a window of {K:.3g} indices")
    return (lo, int(K) + max_shift + 16)


def _covered_window(profile: IntensityProfile, n: int, window_tol: float,
                    window: Optional[tuple[int, int]]) -> tuple[int, int]:
    """``window``, or the policy window for shifts up to n if it is None; one
    that does not cover the policy window raises WindowCoverageError."""
    lo_req, hi_req = window_for_shift(profile, n, window_tol)
    if window is None:
        return lo_req, hi_req
    if window[0] > lo_req or window[1] < hi_req:
        raise WindowCoverageError(f"window [{window[0]}, {window[1]}) does not cover "
                                  f"required [{lo_req}, {hi_req}) for shift {n}")
    return window


def _row_step(rows: int, columns: int) -> int:
    """Rows per chunk of a (rows, columns) draw block: the fewest consecutive
    row chunks of at most ``_DRAW_CHUNK_CELLS`` cells (one row where a row
    is longer), of equal rows but the last."""
    fit = max(1, _DRAW_CHUNK_CELLS // max(columns, 1))  # most rows a chunk holds
    parts = max(1, -(-rows // fit))
    return max(1, -(-rows // parts))


def _increments(gen: np.random.Generator, a_j: np.ndarray, cdf0: np.ndarray,
                rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """y - x for a (rows, len(a_j)) block, x[:, c] ~ Poisson(a_j[c]) and
    y ~ Poisson(a_0) (``cdf0``, the one-row a_0 table), as (r0, chunk) pairs:
    int32 views of ``_row_step`` rows from r0, which the next chunk overwrites.

    The block's x uniforms come first in the stream, then its y uniforms,
    each a row-major (rows, columns) matrix; the y matrix is inverted as one
    column.  The bit generator's state is saved at the x start and, after one
    ``advance``, at the y start, and each chunk resumes x and then y there.
    ``gen.random(out=...)`` fills one float64 buffer, and the counts, against
    tables prepared once per block for all its sample rows (rows for the a_j
    table, rows * columns for the a_0 row; no count depends on the guide
    size), two int32 buffers; row chunks return the doubles of one matrix,
    so the stream never changes and the generator ends 2 * rows * columns
    on."""
    C = len(a_j)
    require_cells("a draw block", rows, C)
    step = _row_step(rows, C)
    cdf = prepare_rows(poisson_cdf_tables(a_j), rows)
    y_table = prepare_rows(cdf0, rows * C)
    u, x, y = np.empty(step * C), np.empty(step * C, dtype=np.int32), np.empty(step * C, dtype=np.int32)
    bits = gen.bit_generator
    at_x, at_y = bits.state, bits.advance(rows * C).state
    for r0 in range(0, rows, step):
        n = min(step, rows - r0) * C
        bits.state = at_x
        d = invert_uniform_rows(cdf, gen.random(out=u[:n].reshape(-1, C)), out=x[:n].reshape(-1, C))
        at_x, bits.state = bits.state, at_y
        invert_uniform_rows(y_table, gen.random(out=u[:n].reshape(-1, 1)), out=y[:n].reshape(-1, 1))
        at_y = bits.state
        yield r0, np.subtract(y[:n].reshape(d.shape), d, out=d)


def sample_configuration(profile: IntensityProfile, window: tuple[int, int],
                         rng: RNGSpec | np.random.Generator) -> ConfigurationWindow:
    """Independent Poisson counts with rates a_k over [lo, hi)."""
    lo, hi = window
    if not lo < hi:
        raise ParameterDomainError(f"window must satisfy lo < hi, got {window}")
    gen = rng.generator() if isinstance(rng, RNGSpec) else rng
    rates = intensities(profile, np.arange(lo, hi))
    cdf = poisson_cdf_tables(rates)
    counts = invert_uniform_rows(cdf, gen.random((1, hi - lo)))[0]
    return ConfigurationWindow(lo, counts)


def log_rn_derivative(profile: IntensityProfile, omega: ConfigurationWindow, n: int,
                      window_tol: float = DEFAULT_WINDOW_TOL) -> float:
    """log of the n-step shifted density at omega:
    sum_k [(a_k - a_{k-n}) + omega_k log(a_{k-n} / a_k)].

    The window must cover the shift support at the requested tolerance
    (``_covered_window``); terms are combined by exact summation.
    """
    if n < 0:
        raise ParameterDomainError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 0.0
    lo, hi = _covered_window(profile, n, window_tol, omega.index_range)
    ks = np.arange(lo, hi)
    eps_k = epsilon_at(profile.epsilon, ks)
    eps_kn = epsilon_at(profile.epsilon, ks - n)
    a_k = profile.level * np.exp(eps_k)
    a_kn = profile.level * np.exp(eps_kn)
    terms = (a_k - a_kn) + omega.counts * (eps_kn - eps_k)
    return math.fsum(terms.tolist())


# ---------------------------------------------------------------------------
# Hopf diagnostics
# ---------------------------------------------------------------------------


def _hopf_core(profiles: Sequence[IntensityProfile], N: int, samples: int, rng: RNGSpec,
               window: tuple[int, int], beta: Optional[float]) -> list[dict]:
    """The Hopf statistics of each profile in turn over one window, for
    hopf_diagnostic (one profile) and scan_intensity (one per scale); the
    profiles differ only in their scale.  Each draws samples x W uniforms
    from a fresh ``rng.generator()`` in gemm chunks of ``_HOPF_CHUNK_CELLS
    // (W + N)`` rows, each drawn in ``_row_step`` draw chunks of at most
    ``_DRAW_CHUNK_CELLS`` cells and inverted against its CDF table, built
    once and prepared for a gemm chunk: a draw chunk's coarser guide would
    search slower, and one for all samples would hold a finer guide for
    each of the W rows.  Moment bounds are linear-space floats: every
    level's are checked before anything is built, and the first level that
    overflows them is refused.  Then the eps grid, theta, a uniform buffer
    of one draw chunk, a C-ordered float64 count buffer of one gemm chunk
    (the gemm's operand, which the inversions fill) and the partial sums
    are built once per call and never change the stream.  A partial sum
    adds at most N <= 2^17 densities exp(logrn) of mean one, so it passes
    the float range only if one of them passes 2^1007, which by Markov's
    inequality has probability at most 2^-1007."""
    if not (2 <= N <= MAX_WINDOW and window[1] - window[0] <= MAX_WINDOW and samples >= 1):
        raise ParameterDomainError(f"need 2 <= N <= {MAX_WINDOW}, a window of at most {MAX_WINDOW} indices "
                                   f"and samples >= 1, got N={N}, window={list(window)}, samples={samples}")
    checkpoints = np.unique(np.geomspace(1, N, _CHECKPOINTS).astype(int))
    require_cells("a Hopf theta table", window[1] - window[0], N)
    require_cells("the Hopf partial sums", samples, len(checkpoints))
    zero_gap = condition_verdict(profiles[0].epsilon, "zero_gap")[0] is Trivalent.YES
    b = 0.75 if beta is None else beta
    log_bn = -b * np.log(np.arange(1, N + 1, dtype=float)) if zero_gap else None
    lo, hi = window
    W = hi - lo
    markov_bounds = [None] * len(profiles)
    if zero_gap:
        for i, profile in enumerate(profiles):
            log_bound = 2.0 * log_bn + np.array([criteria.rn_square_integral(profile, n) for n in range(1, N + 1)])
            if not log_bound.max() < _LOG_MAX:
                raise ParameterDomainError(f"Hopf moment bounds overflow at level {profile.level}")
            markov_bounds[i] = np.exp(log_bound)
    rows = min(samples, max(1, _HOPF_CHUNK_CELLS // (W + N)))
    step = _row_step(rows, W)  # rows per draw chunk of a gemm chunk
    # eps over [lo - N, hi): eps_k and each eps_{k-n} are slices of one grid
    eps = epsilon_at(profiles[0].epsilon, np.arange(lo - N, hi))
    exp_eps = np.exp(eps)
    theta = np.empty((W, N))
    for n in range(1, N + 1):
        theta[:, n - 1] = eps[N - n:N - n + W] - eps[N:]
    uniforms = np.empty((step, W))
    counts = np.empty((rows, W))  # the gemm operand, C-ordered
    partials = np.empty((samples, len(checkpoints)))
    results = []
    for profile, markov_bound in zip(profiles, markov_bounds):
        a = profile.level * exp_eps
        a_k = a[N:]
        drift = np.array([np.sum(a_k - a[N - n:N - n + W]) for n in range(1, N + 1)])
        table = prepare_rows(poisson_cdf_tables(a_k), rows)
        gen = rng.generator()
        event_counts = np.zeros(N, dtype=np.int64)
        for done in range(0, samples, rows):
            m = min(rows, samples - done)
            for r0 in range(0, m, step):
                u = gen.random(out=uniforms[:min(step, m - r0)])
                invert_uniform_rows(table, u, out=counts[r0:r0 + len(u)])
            logrn = drift[None, :] + counts[:m] @ theta
            if log_bn is not None:
                event_counts += np.sum(logrn < log_bn[None, :], axis=0)
            P = np.cumsum(np.exp(logrn), axis=1)
            partials[done:done + m] = P[:, checkpoints - 1]
        del table  # before the next scale builds its own
        med = np.median(partials, axis=0)
        growth = fit_log_slope(checkpoints.tolist(), np.log(np.maximum(med, 1e-300)).tolist(),
                               kind="hopf_growth")
        out = {
            "heuristic": True,
            "note": "finite-window partial sums are diagnostic evidence, not certificates",
            "checkpoints": checkpoints.tolist(),
            "partial_sum_median": med.tolist(),
            "partial_sum_q10": np.quantile(partials, 0.10, axis=0).tolist(),
            "partial_sum_q90": np.quantile(partials, 0.90, axis=0).tolist(),
            "growth_exponent": growth.slope,
            "window": [int(lo), int(hi)],
        }
        if markov_bound is not None:
            out["markov"] = {
                "beta": b,
                "ns": list(range(1, N + 1)),
                "event_freq": (event_counts / samples).tolist(),
                "bound": markov_bound.tolist(),
            }
        results.append(out)
    return results


def hopf_diagnostic(profile: IntensityProfile, N: int, samples: int,
                    rng: RNGSpec, window_tol: float = DEFAULT_WINDOW_TOL,
                    beta: Optional[float] = None,
                    window: Optional[tuple[int, int]] = None) -> ExperimentSummary:
    """Distribution of the partial sums sum_{n<=N} exp(log_rn_derivative(., n))
    plus the small-density event frequencies against their moment bounds.

    The moment bound for the event {log density < log b_n}, with weights
    b_n = n^-beta, is b_n^2 * exp(rn_square_integral(n)); it applies when
    the asymptotic gap vanishes.  Everything here is labeled heuristic.

    An explicit ``window`` must cover the policy window for (N, window_tol)
    (``_covered_window``).
    """
    criteria.require_condition(profile, "nonsingularity", "hopf_diagnostic")
    t0 = time.perf_counter()
    window = _covered_window(profile, N, window_tol, window)
    stats = _hopf_core([profile], N, samples, rng, window, beta)[0]
    return ExperimentSummary(
        name="hopf_diagnostic",
        parameters={"profile": profile, "N": N,
                    "samples": samples, "window_tol": window_tol, "beta": beta,
                    "window": [int(window[0]), int(window[1])]},
        statistics=stats,
        rng=rng,
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# weighted-sum limit experiment
# ---------------------------------------------------------------------------


def clt_experiment(profile: IntensityProfile, n: int, samples: int, rng: RNGSpec,
                   thresholds: Sequence[float] = (1.0, 5.0, 10.0)) -> ExperimentSummary:
    """Weighted Skellam sums X_j = eps_j (y_j - x_j) with x_j ~ Poisson(a_j)
    and y_j ~ Poisson(a_0).

    Snapshots are taken at every m = 10^e below n (e from 2 to 11) and at
    m = n.  Reports, at each snapshot m: the KS distance of the normalized sum
    Y_m = beta_m sum_{j<=m} (X_j - E X_j) from N(0, 2 a_0) (the limit law),
    the empirical and exact finite-m variances, the deterministic drift
    beta_m sum E X_j, and the frequency of {sum X_j > -p} for each p.

    ``target_variance`` = 2 a_0 is the variance of the m -> infinity limit
    only.  ``exact_variance`` is the finite-m law,
    a_0 + sum eps_j^2 a_j / sum eps_j^2, which for a vanishing power-law
    eps falls short of the limit by Theta(1/log m); the empirical variance
    estimates it, not the limit.

    Draw protocol (fixed): ascending j in blocks of up to ``_CLT_BLOCK``
    consecutive j that end at each snapshot; the j with eps_j != 0 in a
    block are one ``_increments`` draw, x uniforms then y uniforms, and a
    block without any draws nothing.
    """
    criteria.require_condition(profile, "clt_regime", "clt_experiment")
    if not (2 <= n <= MAX_CELLS and 2 <= samples <= MAX_CELLS):
        raise ParameterDomainError(f"need n and samples in [2, {MAX_CELLS}], got n={n}, samples={samples}")
    t0 = time.perf_counter()
    gen = rng.generator()
    a0 = eval_intensity(profile, 0)
    snapshots = [10**e for e in range(2, 12) if 10**e < n] + [n]
    js = np.arange(2, n + 1)
    eps_j = epsilon_at(profile.epsilon, js)
    live = eps_j != 0.0
    a_j = profile.level * np.exp(eps_j)
    ex_j = eps_j * (a0 - a_j)
    cdf0 = poisson_cdf_tables(np.array([a0]))

    total = np.zeros(samples)
    crit = _KS_CRITICAL_1PCT / math.sqrt(samples)
    per_snapshot = []
    cursor = 0
    for m in snapshots:
        snap_end = m - 2  # position in js (= arange(2, n+1)) of index j = m
        while cursor <= snap_end:
            hi = min(cursor + _CLT_BLOCK, snap_end + 1)
            idx = np.flatnonzero(live[cursor:hi]) + cursor
            if len(idx):
                # einsum's own loop, not a BLAS gemv: each row is summed alike, whatever
                # the chunk's row count, BLAS kernel or thread count.
                for r0, d in _increments(gen, a_j[idx], cdf0, samples):
                    total[r0:r0 + len(d)] += np.einsum("sk,k->s", d, eps_j[idx])
            cursor = hi
        e2 = float(np.sum(eps_j[: m - 1] ** 2))
        beta_m = 1.0 / math.sqrt(e2)
        exp_sum = float(np.sum(ex_j[: m - 1]))
        Y = beta_m * (total - exp_sum)
        emp_var = float(np.var(Y, ddof=1))
        exact_var = float(beta_m**2 * np.sum(eps_j[: m - 1] ** 2 * (a0 + a_j[: m - 1])))
        Ys = np.sort(Y)
        ks = ks_statistic(Ys, normal_cdf(Ys, 0.0, 2.0 * a0))
        per_snapshot.append({
            "n": m,
            "ks_stat": ks,
            "ks_critical_1pct": crit,
            "empirical_variance": emp_var,
            "variance_se": emp_var * math.sqrt(2.0 / (samples - 1)),
            "exact_variance": exact_var,
            "drift": beta_m * exp_sum,
            "crossing_freq": {str(p): float(np.mean(total > -p)) for p in thresholds},
        })

    stats = {
        "target_variance": 2.0 * a0,
        "snapshots": per_snapshot,
    }
    return ExperimentSummary(
        name="clt_experiment",
        parameters={"profile": profile, "n": n,
                    "samples": samples, "thresholds": list(thresholds)},
        statistics=stats,
        rng=rng,
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# per-coordinate deviation decay
# ---------------------------------------------------------------------------


def increment_tail_decay(profile: IntensityProfile, rng: RNGSpec, samples: int,
                         ns: Sequence[int] = (10, 100, 1_000, 10_000, 100_000),
                         mc_max: int = 100) -> ExperimentSummary:
    """Exact and Monte Carlo estimates of P(|y_n - x_n| > |eps_n|^{-1/2}).

    The exact value is a Skellam tail; the experiment also reports the
    threshold index beyond which the tail provably stays below eps_n^4
    (from the certified tail threshold of the Skellam family over the
    profile's rate range).

    ``beats_eps_fourth`` is the exact comparison tail < eps_n^4 at n and
    may be false at small n.  ``guaranteed`` is a sufficient, conservative
    certificate that the comparison holds; for a power-law eps it is set
    for n beyond ``guaranteed_beyond_n``, and rows before that index may
    beat eps_n^4 without it.
    """
    criteria.require_condition(profile, "clt_regime", "increment_tail_decay")
    if samples < 2:
        raise ParameterDomainError("samples must be >= 2")
    t0 = time.perf_counter()
    gen = rng.generator()
    a0 = eval_intensity(profile, 0)
    rate_limit = max(a0, profile.level * math.exp(max(0.0, sup_epsilon(profile.epsilon))))
    L_cert = skellam_tail_threshold(rate_limit)
    cdf0 = poisson_cdf_tables(np.array([a0]))

    rows = []
    for n in sorted({int(v) for v in ns}):
        eps_n = float(epsilon_at(profile.epsilon, np.array([n]))[0])
        if eps_n == 0.0:
            continue
        threshold = abs(eps_n) ** -0.5
        L = math.floor(threshold) + 1
        a_n = profile.level * math.exp(eps_n)
        exact = skellam_tail(SkellamLaw(a0, a_n), L).exact
        row = {
            "n": n,
            "threshold": threshold,
            "L": L,
            "exact_tail": exact,
            "eps_fourth": eps_n**4,
            "beats_eps_fourth": bool(exact < eps_n**4),
            "guaranteed": bool(threshold > L_cert),
        }
        if n <= mc_max:
            freq = sum(np.count_nonzero(np.abs(d) > threshold)
                       for _, d in _increments(gen, np.array([a_n]), cdf0, samples)) / samples
            se = math.sqrt(max(exact * (1.0 - exact), 1e-300) / samples)
            row["mc_freq"] = freq
            row["mc_se"] = se
            row["mc_within_3se"] = bool(freq <= exact + 3.0 * se)
        rows.append(row)

    stats = {
        "tail_threshold_L": L_cert,
        "guaranteed_beyond_n": int(L_cert ** (2.0 / profile.epsilon.gamma))
        if isinstance(profile.epsilon, PowerFamily) else None,
        "rows": rows,
    }
    return ExperimentSummary(
        name="increment_tail_decay",
        parameters={"profile": profile, "samples": samples,
                    "ns": [int(v) for v in ns], "mc_max": mc_max},
        statistics=stats,
        rng=rng,
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# first-crossing construction
# ---------------------------------------------------------------------------


def stopping_time_experiment(profile: IntensityProfile, r: float, eps: float,
                             M: int, N: int, samples: int, rng: RNGSpec) -> ExperimentSummary:
    """First index l > M where the partial sum of X_j drops below r.

    Per sample: draw (X_j) for M < j <= N, stop at the first l with
    sum_{M<j<=l} X_j < r, record the overshoot |sum - r| (always bounded
    by |X_l|) and whether all |X_j| up to l stayed below eps.  Samples
    that never cross by N are reported as failures, never resampled.
    """
    if r >= -1.0:
        raise ParameterDomainError(f"r must be < -1, got {r}")
    if eps <= 0.0:
        raise ParameterDomainError(f"eps must be positive, got {eps}")
    if not 0 <= M < N:
        raise ParameterDomainError(f"need 0 <= M < N, got M={M}, N={N}")
    if not 1 <= samples <= MAX_CELLS:
        raise ParameterDomainError(f"samples must be in [1, {MAX_CELLS}], got {samples}")
    criteria.require_condition(profile, "clt_regime", "stopping_time_experiment")
    t0 = time.perf_counter()
    gen = rng.generator()
    a0 = eval_intensity(profile, 0)
    cdf0 = poisson_cdf_tables(np.array([a0]))

    partial = np.zeros(samples)
    crossing = np.full(samples, -1, dtype=np.int64)
    overshoot = np.full(samples, np.nan)
    x_at_crossing = np.full(samples, np.nan)
    max_abs_x = np.zeros(samples)
    alive = np.arange(samples)
    # the float reductions stay one row chunk in size, in buffers of the largest
    cells = max(_DRAW_CHUNK_CELLS, _STOPPING_BLOCK)
    X_buf, below_buf = np.empty(cells), np.empty(cells, dtype=bool)

    j = M
    while j < N and len(alive):
        j_hi = min(j + _STOPPING_BLOCK, N)
        js = np.arange(j + 1, j_hi + 1)
        eps_j = epsilon_at(profile.epsilon, js)
        for r0, chunk in _increments(gen, profile.level * np.exp(eps_j), cdf0, len(alive)):
            rows = alive[r0:r0 + len(chunk)]
            X = np.multiply(chunk, eps_j, out=X_buf[:chunk.size].reshape(chunk.shape))
            block_max = np.maximum(X.max(axis=1), -X.min(axis=1))  # max |X| per row
            # c + p is p + c in IEEE arithmetic, so these are the bits of partial + cumsum(X)
            sums = np.cumsum(X, axis=1, out=X)
            sums += partial[rows, None]
            below = np.less(sums, r, out=below_buf[:chunk.size].reshape(chunk.shape))
            first = below.argmax(axis=1)
            h = np.flatnonzero(below[np.arange(len(rows)), first])  # chunk rows that cross in this block
            # the crossing rows' |X| again from the increments, up to their last
            # crossing column, and each one's prefix max up to its own
            f = first[h]
            F = f.max(initial=0) + 1
            absX = np.abs(np.multiply(chunk[h, :F], eps_j[:F]))
            absX[np.arange(F) > f[:, None]] = 0.0
            block_max[h] = absX.max(axis=1)
            max_abs_x[rows] = np.maximum(max_abs_x[rows], block_max)
            crossing[rows[h]] = js[f]
            overshoot[rows[h]] = np.abs(sums[h, f] - r)
            x_at_crossing[rows[h]] = absX[np.arange(len(h)), f]
            partial[rows] = sums[:, -1]
        alive = alive[crossing[alive] < 0]
        j = j_hi

    ok = crossing > 0
    clean = ok & (max_abs_x < eps)
    stats = {
        "success_freq": float(np.mean(ok)),
        "no_crossing": int(np.sum(~ok)),
        "median_crossing_index": int(np.median(crossing[ok])) if ok.any() else None,
        "max_overshoot": float(np.max(overshoot[ok])) if ok.any() else None,
        "overshoot_le_last_step": bool(np.all(overshoot[ok] <= x_at_crossing[ok] + 1e-12)) if ok.any() else None,
        "eps_clean_freq_given_success": float(np.mean(clean[ok])) if ok.any() else None,
        "conditional_overshoot_below_eps": float(np.mean(overshoot[clean] < eps)) if clean.any() else None,
    }
    return ExperimentSummary(
        name="stopping_time_experiment",
        parameters={"profile": profile, "r": r, "eps": eps,
                    "M": M, "N": N, "samples": samples},
        statistics=stats,
        rng=rng,
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# intensity scaling scan
# ---------------------------------------------------------------------------


def scan_intensity(profile: IntensityProfile, t_grid: Sequence[float], N: int,
                   samples: int, rng: RNGSpec,
                   window_tol: float = DEFAULT_WINDOW_TOL,
                   anomaly_slack: float = 2e-3) -> ExperimentSummary:
    """Hopf diagnostics along a monotone grid of intensity scales.

    Every scale replays the same uniform stream against the same index
    window (sized for the largest scale), so the per-scale configurations
    are coupled monotonically and the growth indicator comparison is not
    washed out by independent sampling noise.  A growth indicator that
    increases along the grid by more than ``anomaly_slack`` is flagged as
    an anomaly in the output.
    """
    ts = [float(t) for t in t_grid]
    if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ParameterDomainError("t_grid must be strictly increasing with at least two points")
    criteria.require_condition(profile, "nonsingularity", "scan_intensity")
    t0 = time.perf_counter()
    window = window_for_shift(profile.with_scale(profile.scale * max(ts)), N, window_tol)

    results = _hopf_core([profile.with_scale(profile.scale * t) for t in ts], N, samples, rng,
                         window, beta=None)

    growth = [res["growth_exponent"] for res in results]
    rises = [b - a for a, b in zip(growth, growth[1:])]
    anomaly = any(rise > anomaly_slack for rise in rises)
    stats = {
        "t_grid": ts,
        "growth_exponents": growth,
        "anomaly": anomaly,
        "max_rise": max(rises) if rises else 0.0,
        "per_scale": [{"t": t, **res} for t, res in zip(ts, results)],
        "heuristic": True,
    }
    return ExperimentSummary(
        name="scan_intensity",
        parameters={"profile": profile, "t_grid": ts,
                    "N": N, "samples": samples, "window_tol": window_tol,
                    "anomaly_slack": anomaly_slack},
        statistics=stats,
        rng=rng,
        runtime_s=time.perf_counter() - t0,
    )
