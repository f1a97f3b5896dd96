"""Deterministic sampling primitives.

Reproducibility contract: a (seed, stream) pair fully determines every
draw.  Streams are realized as PCG64 jump-ahead blocks, so distinct stream
indices give statistically independent generators while identical pairs
replay bit-for-bit.

Poisson variates are drawn by CDF-table inversion at every rate: one
uniform per variate, inverted against a per-rate cumulative table.  A table
ends at its float plateau: its W columns stop where the Poisson(rmax) pmf,
rmax being its largest rate, first falls below 2^-60 past rmax, never past
the cutoff K = rmax + 12 sqrt(rmax + 1) + 30, whose left-out mass is below
1e-16.  Every row's running sum is constant from there on, so the columns
past W would only repeat the last one (``poisson_cdf_tables`` has the
proof).  One uniform per variate keeps the stream layout trivial to reason
about; the table length grows linearly with the rate, so rates are capped
defensively, and so are a table's cells: ``MAX_CELLS`` bounds every table
and draw block of the package, and ``require_cells`` refuses one past it.
Rows are one running product of rate / k from P(X = 0) = exp(-rate) while
that value is a normal float (rate below about 708.4); above that, P(X = 0)
is subnormal or zero, so the row is built from its mode in log space
instead, recursing both ways, normalized to unit mass over the cutoff K and
then cut to W.

``invert_uniform_rows`` is the one inversion entry point; a single rate is
its one-row table, with the uniforms as one column.

Inversion returns min(#{k : cdf[r, k] <= u}, top[r]) for row r, top[r]
being the first index of the row's float plateau (its first entry equal to
its last).  Uniforms are compared with the raw table entries, so a count
depends only on its row and uniform, not on the row's place in the table.
Low-count tables take sequential search (Devroye, *Non-Uniform Random
Variate Generation*, 1986, section III.2): pass k compares every query with
column k (+inf from the plateau on) and adds the outcome to its count, the
same count since rows are non-decreasing.  Their number is read off the
table: the fewest passes after which, by the table's own CDF, at most
``_CLIMB_SHARE`` of draws are still climbing, up to ``_MAX_PASSES``; those
climb on by gathered steps.  Tables that need more passes (mean rates above
about 20) take indexed search (Chen and Asau, *AIIE Trans.* 6(2), 1974):
a guide splits [0, 1) into G cells and holds, per row and cell j, one
int32 count code: the count of every uniform in [j / G, (j + 1) / G) where
no table entry before the plateau lies in the cell, and that count at the
cell's lower edge complemented (~n, negative) where one does.  A uniform
takes the code of its cell j = floor(u G) in one gather; only a negative
code goes on to bisection on the raw test u >= cdf[r, mid - 1] over
[~code, the next cell's count].  G is the smallest power of two at least
min(``_GUIDE_PER_COLUMN`` W, S, ``_GUIDE_CELLS`` // rows), S being
the number of sample rows the table serves over its whole draw block, so
u G, j / G and G cdf are exact, about one cell in 20 holds an entry for
tables some 400 wide, and a table's codes number fewer than
2 ``_GUIDE_CELLS`` + rows however large its block; one sample row (G = 1)
bisects over the whole row.  ``prepare_rows`` does this set-up (plateaus,
pass count, pass columns or guide codes) once for the row chunks of one
block.  The inverters take the uniforms they are given whole: the caller
sizes each chunk, and so the inverters' buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import ParameterDomainError, SkellamLaw, poisson_log_pmf, skellam_support_cutoff

_MAX_RATE = 100_000.0
_TINY = np.finfo(float).tiny
#: log 2^-60: past the largest rate, a table ends where its pmf falls below this.
_LOG_PLATEAU_PMF = -60.0 * math.log(2.0)

#: Most comparison passes run; below 256, since the passes count in uint8.
#: At rate 20 over 8192 rows and 250 sample rows on a 2-core VM (Xeon with
#: AVX-512), 32 passes took 13 ns per draw and the guide search (G = 256)
#: 11 ns; at rates 74 to 188 over 256 rows and 2000 sample rows (G = 2048)
#: the guide search took 6.5 to 8.3 ns.
_MAX_PASSES = 32
#: Largest expected share of draws still climbing after the passes.
_CLIMB_SHARE = 0.01
#: Guide cells per table column, at most: the finer the guide, the fewer
#: cells hold a CDF entry and send their uniforms on to bisection.
_GUIDE_PER_COLUMN = 8
#: Guide cells of one table, about, at most: G is at most the power of two
#: at or above this over the table's rows, so a table of many rows serving
#: many sample rows keeps fewer than 2^21 + rows codes (8 MiB of int32).
#: The clt a_j tables (256 rows, G = 2048) stay within it, and so does every
#: Hopf gemm chunk's guide, whose sample rows are at most 2^20 // W.
_GUIDE_CELLS = 1 << 20
#: Table cells per chunk of a guide's build (1 MiB of float64); bounds the
#: build's temporaries for a table of many rows.
_CHUNK_CELLS = 1 << 17
#: Most cells of one CDF table, draw block, Hopf theta table or set of Hopf
#: partial sums (256 MiB of float64); it also keeps every count code of the
#: guide search within int32.
MAX_CELLS = 1 << 25


@dataclass(frozen=True)
class RNGSpec:
    """Seed plus worker-stream index; the full reproducibility key."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ParameterDomainError(f"seed must fit in 64 bits, got {self.seed}")
        if self.stream < 0:
            raise ParameterDomainError(f"stream must be nonnegative, got {self.stream}")

    def generator(self) -> np.random.Generator:
        bg = np.random.PCG64(self.seed)
        if self.stream:
            bg = bg.jumped(self.stream)
        return np.random.Generator(bg)


def require_cells(what: str, rows: int, columns: int) -> None:
    """Refuse a ``what`` of rows x columns cells past ``MAX_CELLS``."""
    if rows * columns > MAX_CELLS:
        raise ParameterDomainError(f"{what} of {rows} x {columns} passes {MAX_CELLS} cells")


def poisson_cdf_tables(rates: np.ndarray) -> np.ndarray:
    """CDF tables for an array of rates, one row per rate.

    Row r holds P(X <= k) for k = 0..W - 1, W - 1 being the first k past
    the largest rate rmax, k >= floor(rmax) + 1, at which the Poisson(rmax)
    pmf p(k; rmax) is below 2^-60 (``_plateau_width``), and at most the
    cutoff K = rmax + 12 sqrt(rmax + 1) + 30, whose left-out mass is below
    1e-16.  Each row's pmf is built, and summed, in place in the returned
    array.

    The columns past W that the cutoff would add repeat column W - 1 in
    every row, so the counts of ``invert_uniform_rows`` are those of the
    cutoff-wide table.  For k >= W - 1 > rmax >= rate, the pmf rises with
    the rate where k >= rate (d/dλ p(k; λ) = p(k; λ) (k / λ - 1)) and falls
    in k past the mode, so p(k; rate) <= p(k; rmax) <= p(W - 1; rmax)
    < 2^-60; the float terms carry relative errors far below 1, so each
    stays below 2^-59.  The running sums there are at least
    P(X <= floor(rmax) + 1) for X ~ Poisson(rmax), at least 1/2 since the
    median is below rmax + 1/3 (Choi, *Proc. AMS* 121, 1994), and the float
    sums are within 1e-10 of it, so above 2^-6, whose half ulp is 2^-59.
    Adding a term below half an ulp leaves a sum as it is: every column past
    W - 1 equals it, the plateau starts at the same index, and no count
    changes.  The kept columns have the cutoff-wide table's bits, being the
    same sequential products and sums; rows from the mode are normalized
    over the cutoff before they are cut.
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    if np.any(rates < 0.0):
        raise ParameterDomainError("rates must be nonnegative")
    rmax = float(rates.max(initial=0.0))
    if rmax > _MAX_RATE:
        raise ParameterDomainError(f"rate {rmax} exceeds the supported cap {_MAX_RATE}")
    K = skellam_support_cutoff(SkellamLaw(rmax, 0.0))
    W = _plateau_width(rmax, K)
    require_cells("a CDF table", len(rates), W)
    pmf = np.empty((len(rates), W))
    p0 = np.negative(rates)
    pmf[:, 0] = np.exp(p0, out=p0)
    # rate / k by 1-D calls, over columns or rows, whichever are fewer: a 2-D
    # call would take iterator buffers of some 10% of a narrow table
    if len(rates) > W:
        for k in range(1, W):
            np.divide(rates, k, out=pmf[:, k])
    else:
        ks = np.arange(1.0, W)
        for r, rate in enumerate(rates):
            np.divide(rate, ks, out=pmf[r, 1:])
    np.cumprod(pmf, axis=1, out=pmf)
    for r in np.flatnonzero(pmf[:, 0] < _TINY):
        pmf[r] = _pmf_from_mode(float(rates[r]), K)[:W]
    return np.cumsum(pmf, axis=1, out=pmf)


def _plateau_width(rmax: float, K: int) -> int:
    """W = k + 1 for the first k >= floor(rmax) + 1 with p(k; rmax) < 2^-60,
    at most K + 1.  The walk steps log p by log(rmax / k) from its value
    at floor(rmax) + 1; its rounding, some 1e-12 in log p, is far inside the
    factor 2 between 2^-60 and the half ulp that ``poisson_cdf_tables``
    needs."""
    k = int(rmax) + 1
    if rmax == 0.0:
        return k + 1  # p(1; 0) = 0
    log_p = poisson_log_pmf(rmax, k)
    while log_p >= _LOG_PLATEAU_PMF and k < K:
        k += 1
        log_p += math.log(rmax / k)
    return k + 1


def _pmf_from_mode(rate: float, K: int) -> np.ndarray:
    """P(X = k) for k = 0..K, for a rate whose exp(-rate) is not normal.

    Starts at the mode m = floor(rate) from its log-pmf and recurses up by
    rate/k and down by k/rate; the lower tail underflows to 0 harmlessly.
    The log-pmf carries a rounding error of order ulp(rate log rate), which
    scales every entry alike, so the row is normalized to unit mass (the
    truncated upper tail is below 1e-16).
    """
    m = int(rate)
    pmf = np.empty(K + 1)
    pmf[m] = math.exp(poisson_log_pmf(rate, m))
    pmf[m + 1:] = pmf[m] * np.cumprod(rate / np.arange(m + 1, K + 1))
    pmf[:m] = pmf[m] * np.cumprod(np.arange(m, 0, -1) / rate)[::-1]
    return pmf / pmf.sum()


def _pass_count(cdf: np.ndarray) -> int | None:
    """Comparison passes for a (rows, W) table, or None for the per-row search.

    After p passes a uniform draw is still climbing with probability
    1 - cdf[r, p - 1]; take the fewest passes that leave at most
    ``_CLIMB_SHARE`` climbing on average over the rows.
    """
    head = cdf[:, :min(cdf.shape[1] - 1, _MAX_PASSES)]
    climbing = 1.0 - head.sum(axis=0) / max(len(head), 1)
    enough = np.flatnonzero(climbing <= _CLIMB_SHARE)
    return int(enough[0]) + 1 if len(enough) else None


@dataclass(frozen=True)
class RowTables:
    """A (rows, W) CDF table with its inversion set-up: each row's plateau
    start ``top``, the comparison ``passes`` (None for the guide search) and
    ``lookup``, the (passes, rows) pass columns, +inf from each plateau on,
    or the flat (rows, G + 1) int32 count codes of a guide of ``G`` cells,
    G sized for the sample rows of the whole block, within a budget of
    cells for the table.  Row chunks of one block inverted against it share
    that set-up."""

    cdf: np.ndarray
    top: np.ndarray
    passes: int | None
    lookup: np.ndarray
    G: int


def prepare_rows(cdf: np.ndarray, samples: int) -> RowTables:
    """The inversion set-up of ``cdf`` for the ``samples`` sample rows S
    that it serves, over every row chunk of its block: G is the smallest
    power of two at least min(``_GUIDE_PER_COLUMN`` W, S,
    ``_GUIDE_CELLS`` // rows) for a table of rows x W cells."""
    top = np.argmax(cdf == cdf[:, -1:], axis=1)
    passes = _pass_count(cdf)
    if passes is not None:
        columns = np.where(np.arange(passes)[:, None] < top, cdf[:, :passes].T, np.inf)
        return RowTables(cdf, top, passes, columns, 0)
    R, width = cdf.shape
    G = 1 << (max(min(_GUIDE_PER_COLUMN * width, samples, _GUIDE_CELLS // max(R, 1)), 1) - 1).bit_length()
    return RowTables(cdf, top, None, _guide_codes(cdf, top, G).ravel(), G)


def _invert_by_passes(table: RowTables, u: np.ndarray, counts: np.ndarray) -> None:
    """``invert_uniform_rows`` into ``counts`` by ``table.passes`` comparison
    passes over the whole of ``u``, a chunk the caller sizes; draws still
    climbing after them step up one column at a time until the row's entry
    exceeds them or its plateau is reached."""
    R = u.shape[1]
    cdf, top, passes, columns = table.cdf, table.top, table.passes, table.lookup
    n = np.greater_equal(u, columns[0]).view(np.uint8)
    for k in range(1, passes):
        n += u >= columns[k]
    counts[:] = n
    # the row-major positions of np.nonzero, for a tenth of its 2-D cost per cell
    s_i, r_i = np.divmod(np.flatnonzero(n == passes), R)
    # the climbing counts, never read back from ``counts``, whose dtype is the caller's
    c = np.full(len(s_i), passes, dtype=np.intp)
    while len(s_i):
        # c is at most top[r_i] <= W - 1, so the gather stays in the row
        up = (c < top[r_i]) & (u[s_i, r_i] >= cdf[r_i, c])
        s_i, r_i, c = s_i[up], r_i[up], c[up] + 1
        counts[s_i, r_i] = c


def _guide_codes(cdf: np.ndarray, top: np.ndarray, G: int) -> np.ndarray:
    """The (rows, G + 1) int32 count codes of a table's guide.  With
    n[r, j] = min(#{k : cdf[r, k] <= j / G}, top[r]), cell j < G of row r
    holds n[r, j] if no entry cdf[r, k], k < top[r], lies in
    (j / G, (j + 1) / G], so every uniform in [j / G, (j + 1) / G) has that
    count, and ~n[r, j] (negative) if one does; column G holds top[r].

    With G a power of two, cdf <= j / G exactly when ceil(G cdf) <= j, so
    row r holds m over the cells e[m - 1] <= j < e[m], where e[-1] = 0,
    e[k] = min(ceil(G cdf[r, k]), G + 1) for k < top[r] and e[k] = G + 1
    from top[r] on: one ``np.repeat`` of 0..T over those run lengths builds
    each chunk of rows, and one scatter flips the cells e[k] - 1 with
    1 <= e[k] <= G.  Chunks of about ``_CHUNK_CELLS`` table cells bound the
    build's temporaries; a table of more rows is joined from its chunks.
    """
    R, width = cdf.shape
    step = max(1, _CHUNK_CELLS // width)
    parts = []
    for r0 in range(0, max(R, 1), step):  # once for a table of no rows
        row_top = top[r0:r0 + step]
        n, T = len(row_top), int(row_top.max(initial=0))
        ends = np.empty((n, T + 2))  # e[k - 1] in column k, from e[-1] = 0 to G + 1
        ends[:, 0] = 0.0
        inner = ends[:, 1:T + 1]
        np.multiply(cdf[r0:r0 + step, :T], G, out=inner)
        np.ceil(inner, out=inner)
        np.minimum(inner, G + 1, out=inner)
        inner[np.arange(T) >= row_top[:, None]] = G + 1  # runs past the row's top are empty
        ends[:, T + 1] = G + 1
        codes = np.repeat(np.tile(np.arange(T + 1, dtype=np.int32), n),
                          np.diff(ends).astype(np.intp).ravel())
        codes[G::G + 1] = row_top  # the run of top starts past G where an entry before top passes 1
        in_cells = (inner >= 1.0) & (inner <= G)
        inner += (np.arange(n) * (G + 1.0) - 1.0)[:, None]  # cell e[k] - 1 as a flat position
        mixed = inner[in_cells].astype(np.intp)
        codes[mixed] = ~codes[mixed]
        parts.append(codes.reshape(n, G + 1))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _invert_by_guide(table: RowTables, u: np.ndarray, counts: np.ndarray) -> None:
    """``invert_uniform_rows`` into ``counts`` by the guide's count codes over
    the whole of ``u``, a chunk the caller sizes: a uniform in cell
    j = floor(u G) of row r takes code[r, j], its count unless negative.
    From a negative code the count lies in [a, b] = [~code[r, j],
    n[r, j + 1]], n being a code or its complement; it is
    a + (u >= cdf[r, a]) where b = a + 1, the common case, in one gather,
    and wider brackets are bisected by halving steps s, each taking
    m = min(a + s, b) for a where u >= cdf[r, m - 1].  (Halving steps over
    every bracket, with no one-gather case, ran the clt_hirate op 0.76
    -> 0.95 s in process on a 2-core VM.)"""
    R = u.shape[1]
    cdf, codes, G = table.cdf, table.lookup, table.G
    K = cdf.shape[1]
    flat = np.ascontiguousarray(cdf).ravel()
    cell = np.multiply(u, G, out=np.empty(u.shape, dtype=np.intp), casting="unsafe")  # floor(u G), exact
    cell += np.arange(R) * (G + 1)
    code = codes.take(cell, mode="clip")
    flat_code = code.reshape(-1)
    at = np.flatnonzero(flat_code < 0)
    if len(at):
        a = ~flat_code[at]
        b = codes.take(cell.reshape(-1)[at] + 1)
        b ^= b >> 31  # the next cell's count: its code or, if negative, ~code
        start, q = (at % R) * K, u.reshape(-1)[at]
        flat_code[at] = a + (q >= flat.take(start + a))  # the count where b = a + 1
        wide = np.flatnonzero(b - a > 1)
        if len(wide):
            at, a, b, q, start = at[wide], a[wide], b[wide], q[wide], start[wide] - 1
            jump = 1 << (int((b - a).max()).bit_length() - 1)
            while jump:
                probe = np.minimum(a + jump, b)
                np.copyto(a, probe, where=q >= flat.take(start + probe))
                jump >>= 1
            flat_code[at] = a
    np.copyto(counts, code, casting="unsafe")


def invert_uniform_rows(cdf: np.ndarray | RowTables, u: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Counts from uniforms u[s, r] against per-column-rate tables cdf[r, k].

    Columns of ``u`` correspond to rows of ``cdf``; each count is
    min(#{k : cdf[r, k] <= u[s, r]}, top[r]), top[r] being the first index
    of row r's plateau, for uniforms in [0, 1).  ``cdf`` is a table or its
    ``prepare_rows`` set-up.  Low-count tables take the comparison passes,
    the rest the guide search, each over all of ``u`` at once: the caller
    sizes the chunk, and the search's buffers (12 bytes per uniform for the
    guide's cells and codes) with it.  The counts go into ``out``, of u's
    shape and any integer or float dtype and layout, which is returned;
    without it, into a fresh C-ordered int64 array.
    """
    S, R = u.shape
    table = cdf if isinstance(cdf, RowTables) else prepare_rows(cdf, S)
    if table.cdf.shape[0] != R:
        raise ValueError(f"need one cdf row per uniform column: {table.cdf.shape[0]} != {R}")
    if out is None:
        out = np.empty((S, R), dtype=np.int64)
    elif out.shape != (S, R):
        raise ValueError(f"out must have the uniforms' shape {(S, R)}, got {out.shape}")
    (_invert_by_passes if table.passes is not None else _invert_by_guide)(table, u, out)
    return out
