"""Deterministic sampling primitives.

Reproducibility contract: a (seed, stream) pair fully determines every
draw.  Streams are realized as PCG64 jump-ahead blocks, so distinct stream
indices give statistically independent generators while identical pairs
replay bit-for-bit.

Poisson variates are drawn by CDF-table inversion at every rate: one
uniform per variate, inverted against a per-rate cumulative table of
K + 1 entries, K = rate + 12 sqrt(rate + 1) + 30 at the table's largest
rate, which leaves out a mass below 1e-16.  One uniform per variate keeps
the stream layout trivial to reason about; the table length grows
linearly with the rate, so rates are capped defensively, and so are a
table's cells: ``MAX_CELLS`` bounds every table and draw block of the
package, and ``require_cells`` refuses one past it.  Rows are one running
product of rate / k from P(X = 0) = exp(-rate) while that value is a normal
float (rate below about 708.4); above that, P(X = 0) is subnormal or zero,
so the row is built from its mode in log space instead, recursing both ways
and normalized to unit mass.

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
a guide table splits [0, 1) into G cells and holds, per row and cell
boundary j / G, the count of that boundary, so a uniform in cell
j = floor(u G) has its count between the guide entries j and j + 1;
bisection on the raw test u >= cdf[r, mid - 1] finds it there.  G is the
smallest power of two at least min(K + 1, S), S being the number of sample
rows inverted, so u G, j / G and G cdf are exact and the guide costs no
more than the table or the queries; one sample row (G = 1) bisects over
[0, top[r]].  ``prepare_rows`` does this set-up (plateaus, pass count,
pass columns or guide) once for the row chunks of one block, S being
their largest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import ParameterDomainError, SkellamLaw, skellam_support_cutoff

_MAX_RATE = 100_000.0
_TINY = np.finfo(float).tiny

#: Most comparison passes run; below 256, since the passes count in uint8.
#: At rate 20 over 8192 rows and 250 sample rows on a 2-core VM, 32 passes
#: took 29 ns per draw and the guide search 58 ns; at rates 74 to 188 over
#: 256 rows and 2000 sample rows the guide search took 32 ns.
_MAX_PASSES = 32
#: Largest expected share of draws still climbing after the passes.
_CLIMB_SHARE = 0.01
#: Queries per chunk of sample rows: 1 MiB of float64, which stays in cache
#: across the passes.
_CHUNK_CELLS = 1 << 17
#: Queries per chunk of the guide search; bounds its index arrays (cells,
#: bracket ends, bisection state) and so its share of peak RSS.  On the
#: clt_hirate op, 2^16 ran about 5% faster than 2^15 and 2^17 for 2 MB more.
_GUIDE_CHUNK = 1 << 16
#: Most cells of one CDF table, draw block, Hopf theta table or set of Hopf
#: partial sums (256 MiB of float64); it also keeps every flat position of
#: the guide search within int32.
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

    Row r holds P(X <= k) for k = 0..K, K = rmax + 12 sqrt(rmax + 1) + 30
    at the largest rate rmax; the mass left out is below 1e-16.  Each row's
    pmf is built, and summed, in place in the returned array.
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    if np.any(rates < 0.0):
        raise ParameterDomainError("rates must be nonnegative")
    rmax = float(rates.max(initial=0.0))
    if rmax > _MAX_RATE:
        raise ParameterDomainError(f"rate {rmax} exceeds the supported cap {_MAX_RATE}")
    K = skellam_support_cutoff(SkellamLaw(rmax, 0.0))
    require_cells("a CDF table", len(rates), K + 1)
    pmf = np.empty((len(rates), K + 1))
    pmf[:, 0] = np.exp(-rates)
    np.divide(rates[:, None], np.arange(1, K + 1), out=pmf[:, 1:])
    np.cumprod(pmf, axis=1, out=pmf)
    for r in np.flatnonzero(pmf[:, 0] < _TINY):
        pmf[r] = _pmf_from_mode(float(rates[r]), K)
    return np.cumsum(pmf, axis=1, out=pmf)


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
    pmf[m] = math.exp(m * math.log(rate) - rate - math.lgamma(m + 1.0))
    pmf[m + 1:] = pmf[m] * np.cumprod(rate / np.arange(m + 1, K + 1))
    pmf[:m] = pmf[m] * np.cumprod(np.arange(m, 0, -1) / rate)[::-1]
    return pmf / pmf.sum()


def _pass_count(cdf: np.ndarray) -> int | None:
    """Comparison passes for a (rows, K) table, or None for the per-row search.

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
    """A (rows, K) CDF table with its inversion set-up: each row's plateau
    start ``top``, the comparison ``passes`` (None for the guide search) and
    ``lookup``, the (passes, rows) pass columns, +inf from each plateau on,
    or the flat guide entries over ``G`` cells.  Row chunks of one block
    inverted against it share that set-up."""

    cdf: np.ndarray
    top: np.ndarray
    passes: int | None
    lookup: np.ndarray
    G: int


def prepare_rows(cdf: np.ndarray, samples: int) -> RowTables:
    """The inversion set-up of ``cdf`` for uniforms of up to ``samples``
    sample rows, which sets G."""
    top = np.argmax(cdf == cdf[:, -1:], axis=1)
    passes = _pass_count(cdf)
    if passes is not None:
        columns = np.where(np.arange(passes)[:, None] < top, cdf[:, :passes].T, np.inf)
        return RowTables(cdf, top, passes, columns, 0)
    G = 1 << (max(min(cdf.shape[1], samples), 1) - 1).bit_length()
    return RowTables(cdf, top, None, _guide_table(cdf, top, G).ravel(), G)


def _invert_by_passes(table: RowTables, u: np.ndarray, counts: np.ndarray) -> None:
    """``invert_uniform_rows`` into ``counts`` by ``table.passes`` comparison
    passes per chunk of sample rows; draws still climbing after them step up
    one column at a time until the row's entry exceeds them or its plateau is
    reached."""
    S, R = u.shape
    cdf, top, passes, columns = table.cdf, table.top, table.passes, table.lookup
    step = max(1, _CHUNK_CELLS // max(R, 1))
    for s0 in range(0, S, step):
        chunk, block = u[s0:s0 + step], counts[s0:s0 + step]
        n = np.greater_equal(chunk, columns[0]).view(np.uint8)
        for k in range(1, passes):
            n += chunk >= columns[k]
        block[:] = n
        # the row-major positions of np.nonzero, for a tenth of its 2-D cost per cell
        s_i, r_i = np.divmod(np.flatnonzero(n == passes), R)
        # the climbing counts, never read back from ``counts``, whose dtype is the caller's
        c = np.full(len(s_i), passes, dtype=np.intp)
        while len(s_i):
            # c is at most top[r_i] <= K - 1, so the gather stays in the row
            up = (c < top[r_i]) & (chunk[s_i, r_i] >= cdf[r_i, c])
            s_i, r_i, c = s_i[up], r_i[up], c[up] + 1
            block[s_i, r_i] = c


def _guide_table(cdf: np.ndarray, top: np.ndarray, G: int) -> np.ndarray:
    """Guide entries as flat positions r K + guide[r, j] in a (rows, K)
    table, guide[r, j] being min(#{k : cdf[r, k] <= j / G}, top[r]) for
    0 < j < G, 0 for j = 0 and top[r] for j = G: guide[r, j] and
    guide[r, j + 1] bracket the count of every uniform in [j / G, (j + 1) / G).

    With G a power of two, cdf <= j / G exactly when ceil(G cdf) <= j.  Only
    a band of W columns is counted, from the first one nonzero in some row
    to the last plateau start: the columns before it hold 0 in every row,
    and those after it only raise counts that the cap at top takes back.
    Row r's cells are keyed r (G + 1) + cell, below every later row's, so
    the running count of keys up to r (G + 1) + j is r W plus the row's
    count in the band.
    """
    R, K = cdf.shape
    start = np.arange(R) * K
    guide = np.empty((R, G + 1), dtype=np.int32)
    if G > 1:
        first = int(np.argmax(cdf.max(axis=0, initial=0.0) > 0.0))
        band = cdf[:, first:int(top.max(initial=0)) + 1]
        cells = np.ceil(band * G)
        np.minimum(cells, G, out=cells)  # cells from G on count toward no inner entry
        cells += (np.arange(R) * (G + 1.0))[:, None]
        per_key = np.bincount(cells.astype(np.intp).ravel(), minlength=R * (G + 1))
        np.cumsum(per_key, dtype=np.int32, out=guide.reshape(-1))
        guide += (start + first - np.arange(R) * band.shape[1])[:, None]
        np.minimum(guide, (start + top)[:, None], out=guide)
    guide[:, 0] = start
    guide[:, G] = start + top
    return guide


def _invert_by_guide(table: RowTables, u: np.ndarray, counts: np.ndarray) -> None:
    """``invert_uniform_rows`` into ``counts`` by guide table and bisection per chunk of
    sample rows: a uniform in cell j = floor(u G) of row r has its count in
    [guide[r, j], guide[r, j + 1]], and bisection on u >= cdf[r, mid - 1]
    narrows that bracket to the count.  Brackets are flat positions in the
    table, within int32 since tables are capped at ``MAX_CELLS``."""
    S, R = u.shape
    cdf, guide, G = table.cdf, table.lookup, table.G
    K = cdf.shape[1]
    flat = np.ascontiguousarray(cdf).ravel()
    start, first_cell = np.arange(R) * K, np.arange(R) * (G + 1)
    step = max(1, _GUIDE_CHUNK // max(R, 1))
    for s0 in range(0, S, step):
        chunk = u[s0:s0 + step]
        cell = (chunk * G).astype(np.intp, order="C")
        cell += first_cell
        lo = guide[cell]
        cell += 1
        hi = guide[cell]
        at = np.flatnonzero(hi > lo)
        flat_lo, q = lo.ravel(), chunk.ravel()[at]
        a, b = flat_lo[at], hi.ravel()[at]
        while len(at):
            mid = (a + b + 1) >> 1
            up = q >= flat[mid - 1]
            np.copyto(a, mid, where=up)
            np.subtract(mid, 1, out=b, where=~up)
            flat_lo[at] = a
            go = a < b
            at, a, b, q = at[go], a[go], b[go], q[go]
        np.subtract(lo, start, out=counts[s0:s0 + step], casting="unsafe")


def invert_uniform_rows(cdf: np.ndarray | RowTables, u: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Counts from uniforms u[s, r] against per-column-rate tables cdf[r, k].

    Columns of ``u`` correspond to rows of ``cdf``; each count is
    min(#{k : cdf[r, k] <= u[s, r]}, top[r]), top[r] being the first index
    of row r's plateau, for uniforms in [0, 1).  ``cdf`` is a table or its
    ``prepare_rows`` set-up.  Low-count tables take the comparison passes,
    the rest the guide search.  The counts go into ``out``, of u's shape and
    any integer or float dtype and layout, which is returned; without it,
    into a fresh C-ordered int64 array.
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
