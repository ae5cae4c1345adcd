"""Batched signal kernels over ``(tenants, window)`` matrices.

The scalar statistics in :mod:`repro.stats.theil_sen`,
:mod:`repro.stats.spearman` and :mod:`repro.stats.incremental` evaluate one
tenant's window per call.  At fleet scale (the paper's service operates on
the whole DBaaS cluster every billing interval, and URSA-style capacity
loops evaluate every tenant per cycle) the per-call Python and numpy
dispatch overhead dominates: 100k tenants × a handful of signals is
~1M interpreter round-trips per interval.

This module computes the same statistics for *all tenants at once*:

* :func:`batched_detect_trend` — Theil–Sen trend with the paper's
  α-sign-agreement acceptance rule, over every row of a ``(T, W)`` matrix.
* :func:`batched_spearman` — tie-averaged Spearman rank correlation per
  row, via an exact integer reformulation (no per-row re-ranking loops).
* :func:`batched_tail_median` — NaN-dropping tail median with a default
  for all-NaN rows, the batched :class:`repro.stats.incremental.TailMedian`.

Semantics contracts (held by ``tests/test_stats_batched.py`` and, bit for
bit, by ``tests/test_stats_batched_exact.py``): NaN/inf handling,
minimum-point rules, tie averaging and agreement thresholds match the
scalar references row-for-row, and every output is bit-identical to its
per-row reference — trend slopes and tail medians to ``np.median`` of the
row's valid slopes or values, Spearman to the incremental path through
exact integer rank moments.

The kernels avoid numpy's slow paths.  Pairwise slopes are built per lag
(``y[d:] - y[:-d]`` fills every pair ``(i, i + d)``) in a transposed
``(pairs, tenants)`` matrix, with excluded samples set to NaN so invalid
pairs come out NaN without a mask.  Every median sorts rows NaN-last and
gathers the middle values at each row's valid count, instead of numpy's
NaN-aware median, which routes small rows through ``numpy.ma``.
Spearman ranks for windows up to 16 come from one ``int8`` comparison
pass per column instead of an argsort.

Memory: both pairwise kernels walk tenants in tiles of
``SLOPE_CHUNK_ELEMENTS // (W(W-1)/2)`` columns, so a tile's scratch (one
``(pairs, tile)`` float64 slope matrix, or a few ``(W, tile)`` rank
matrices) stays in cache across the per-lag and per-column passes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "BatchedTrend",
    "BatchedCorrelation",
    "SLOPE_CHUNK_ELEMENTS",
    "batched_detect_trend",
    "batched_spearman",
    "batched_tail_median",
    "fractional_ranks",
]

#: Upper bound on elements in one pairwise scratch matrix (2 MB of
#: float64).  At window 8 (28 pairs) a tile is ~8900 tenants, at window 64
#: (2016 pairs) ~120.  Much larger tiles spill out of cache between the
#: per-lag passes and run slower.
SLOPE_CHUNK_ELEMENTS = 250_000

#: Widest window whose Spearman ranks are built by pairwise comparison
#: (``W`` passes of ``W x tile`` each, so it loses to a sort for wide
#: windows; ``int16`` moments stay exact up to ``W = 29``).
_PAIRWISE_RANK_MAX_WINDOW = 16


class BatchedTrend(NamedTuple):
    """Struct-of-arrays :class:`repro.stats.theil_sen.TrendResult`."""

    slope: np.ndarray  # (T,) float — 0.0 where not significant
    significant: np.ndarray  # (T,) bool
    agreement: np.ndarray  # (T,) float
    n_points: np.ndarray  # (T,) int


class BatchedCorrelation(NamedTuple):
    """Struct-of-arrays :class:`repro.stats.spearman.CorrelationResult`."""

    rho: np.ndarray  # (T,) float — 0.0 where undefined / too few points
    n_points: np.ndarray  # (T,) int


def _as_matrix_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"y must be (tenants, window), got shape {y.shape}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = np.broadcast_to(x, y.shape)
    if x.shape != y.shape:
        raise ValueError(f"x shape {x.shape} does not match y shape {y.shape}")
    return x, y


def _count_true(mask: np.ndarray) -> np.ndarray:
    """Per-column count of a ``(rows, C)`` bool matrix.

    Sums the bytes in the narrowest accumulator that cannot overflow;
    ``np.count_nonzero(axis=0)`` casts every element to ``intp`` first,
    which is an order of magnitude slower here.
    """
    dtype = np.uint8 if mask.shape[0] < 256 else np.int64
    return np.add.reduce(mask.view(np.uint8), axis=0, dtype=dtype)


def _lag_differences(values: np.ndarray) -> np.ndarray:
    """``values[j] - values[i]`` for every pair ``i < j`` of a ``(W, C)`` matrix.

    Returns ``(W(W-1)/2, C)``, the pairs grouped by lag ``d = j - i``:
    each lag is one contiguous slice subtraction, not two fancy-index
    gathers.
    """
    window = values.shape[0]
    out = np.empty((window * (window - 1) // 2,) + values.shape[1:])
    row = 0
    for lag in range(1, window):
        np.subtract(values[lag:], values[:-lag], out=out[row : row + window - lag])
        row += window - lag
    return out


def _nan_last_median(values: np.ndarray, n: np.ndarray, default: float) -> np.ndarray:
    """``np.median`` of each row's ``n`` smallest entries; ``default`` if ``n == 0``.

    Excluded entries must be NaN, so a row sort puts them last and the
    counted entries first.  The middle one or two are gathered by each
    row's count and combined with ``np.median``'s own arithmetic: its mean
    sums from ``+0.0``, so an odd count yields ``mid + 0.0`` and an even
    one ``(0.0 + lo + hi) / 2`` (which is why a lone ``-0.0`` reports
    ``0.0``).  A NaN among the counted entries makes the row NaN, as it
    does in ``np.median``.
    """
    rows, width = values.shape
    if width == 1:
        # A one-wide row is its own median.
        out = values[:, 0] + 0.0
        out[n == 0] = default
        return out
    ordered = np.sort(values, axis=1)
    idx = np.arange(rows)
    counted = np.maximum(n, 1)
    lo = ordered[idx, (counted - 1) // 2] + 0.0
    hi = ordered[idx, counted // 2]
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(counted % 2 == 1, lo, (lo + hi) / 2)
    out[np.isnan(ordered[idx, counted - 1])] = np.nan
    out[n == 0] = default
    return out


def batched_detect_trend(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float = 0.70,
    min_points: int = 4,
) -> BatchedTrend:
    """Row-wise :func:`repro.stats.theil_sen.detect_trend` over ``(T, W)``.

    ``x`` may be a shared ``(W,)`` axis (the common case: one interval
    clock for the whole fleet) or per-tenant ``(T, W)``.  Samples with a
    non-finite coordinate on either axis are excluded from that row's
    estimate, and pairs with identical x are skipped, exactly as the
    scalar reference does.
    """
    if not 0.5 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0.5, 1.0], got {alpha}")
    x_axis = np.asarray(x, dtype=float)
    shared_x = x_axis.ndim == 1
    x, y = _as_matrix_pair(x_axis, y)
    n_tenants, window = y.shape
    n_points = np.zeros(n_tenants, dtype=np.int64)
    slope = np.zeros(n_tenants)
    agreement = np.zeros(n_tenants)
    significant = np.zeros(n_tenants, dtype=bool)
    if window < 2:
        n_points[:] = np.count_nonzero(np.isfinite(x) & np.isfinite(y), axis=1)
        return BatchedTrend(slope, significant, agreement, n_points)

    chunk = max(1, SLOPE_CHUNK_ELEMENTS // (window * (window - 1) // 2))
    if shared_x:
        x_finite = np.isfinite(x_axis)[:, None]
        with np.errstate(all="ignore"):
            dx = _lag_differences(x_axis[:, None])
        vertical = dx[:, 0] == 0.0
        dx[vertical] = np.nan
    for start in range(0, n_tenants, chunk):
        stop = min(start + chunk, n_tenants)
        # Transposed (W, chunk) samples: every lag is a contiguous slice
        # and every per-tenant count a reduction over the short axis.
        ys = np.ascontiguousarray(y[start:stop].T)
        finite = np.isfinite(ys)
        if shared_x:
            finite &= x_finite
        else:
            xs = np.ascontiguousarray(x[start:stop].T)
            finite &= np.isfinite(xs)
        points = _count_true(finite).astype(np.int64)
        n_points[start:stop] = points
        # Excluded samples become NaN, so every pair touching one gets a
        # NaN slope.  The valid pairs are those between finite samples,
        # less the vertical ones; finite samples can still overflow to an
        # inf difference or a NaN quotient, and those pairs stay valid, as
        # in the scalar reference.
        excluded = ~finite
        np.copyto(ys, np.nan, where=excluded)
        n_valid = points * (points - 1) // 2
        with np.errstate(all="ignore"):
            slopes = _lag_differences(ys)
            if shared_x:
                if vertical.any():
                    # dy is NaN exactly where a sample is excluded.
                    n_valid -= _count_true(~np.isnan(slopes[vertical]))
            else:
                np.copyto(xs, np.nan, where=excluded)
                dx = _lag_differences(xs)
                vertical_c = dx == 0.0
                n_valid -= _count_true(vertical_c)
                dx[vertical_c] = np.nan
            slopes /= dx
        pos = _count_true(slopes > 0.0)
        neg = _count_true(slopes < 0.0)
        # Columns with too few finite samples (or no valid pairs) report
        # the scalar early-return shape: slope 0, agreement 0, and never
        # significant.
        usable = (points >= min_points) & (n_valid > 0)
        agree = np.where(usable, np.maximum(pos, neg) / np.maximum(n_valid, 1), 0.0)
        sig = usable & (agree >= alpha)
        agreement[start:stop] = agree
        significant[start:stop] = sig
        # Medians only where a trend was accepted.
        accepted = np.flatnonzero(sig)
        if accepted.size:
            slope[start + accepted] = _nan_last_median(
                slopes[:, accepted].T, n_valid[accepted], 0.0
            )
    return BatchedTrend(slope, significant, agreement, n_points)


def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Row-wise doubled tie-averaged ranks of a ``(T, W)`` matrix.

    Returns integer ``u`` with ``u[t, i] = 2 * rank(values[t, i]) - 1``
    where ``rank`` is the 1-based fractional (tie-averaged) rank within
    row ``t`` — i.e. ``u = count(< v) + count(<= v)``, the doubled-rank
    form whose sums stay exact integers.  Rows must be NaN-free; callers
    replace excluded entries with a ``+inf`` sentinel beforehand (ranks of
    the remaining entries are unaffected because the sentinel sorts last).
    """
    n_tenants, window = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=1)
    positions = np.arange(window, dtype=np.int64)
    # A "run" is a maximal block of equal sorted values.  run_start carries
    # each run's first position forward; run_end carries the last position
    # backward (via the flipped cumulative minimum).
    new_run = np.empty((n_tenants, window), dtype=bool)
    new_run[:, 0] = True
    np.not_equal(sorted_vals[:, 1:], sorted_vals[:, :-1], out=new_run[:, 1:])
    run_start = np.maximum.accumulate(np.where(new_run, positions, 0), axis=1)
    run_end = np.flip(
        np.minimum.accumulate(
            np.flip(np.where(np.roll(new_run, -1, axis=1), positions, window - 1), axis=1),
            axis=1,
        ),
        axis=1,
    )
    # 0-based run bounds [s, e] ⇒ 1-based ranks s+1 .. e+1 ⇒ doubled
    # tie-averaged rank u = (s+1) + (e+1) - 1 = s + e + 1.
    u_sorted = run_start + run_end + 1
    u = np.empty_like(u_sorted)
    np.put_along_axis(u, order, u_sorted, axis=1)
    return u


def _pairwise_ranks(values: np.ndarray) -> np.ndarray:
    """Doubled tie-averaged ranks down each column of a ``(W, C)`` matrix.

    ``u[i, t] = #(v[j, t] < v[i, t]) + #(v[j, t] <= v[i, t])`` over ``j``,
    the same exact integers :func:`fractional_ranks` returns, without a
    sort.  One comparison per ``j`` serves both counts: ``v[j] < v[i]``
    summed over ``j`` counts the entries below each ``i``, and summed over
    ``i`` counts the entries above ``j``, so ``#(<=) = W - #(>)``.  That
    is still ``W`` whole-matrix passes, so it only wins for short windows.
    Ranks are ``int8``: at most ``2W - 1``.
    """
    window = values.shape[0]
    below = np.zeros(values.shape, dtype=np.int8)
    above = np.empty(values.shape, dtype=np.int8)
    hits = np.empty(values.shape, dtype=np.int8)
    for j, row in enumerate(values):
        np.less(row, values, out=hits.view(bool))
        below += hits
        np.add.reduce(hits, axis=0, out=above[j])
    return below + (window - above)


def _rank_moments(x: np.ndarray, y: np.ndarray):
    """Valid-pair counts and ``(Σu², Σv², Σuv)`` per row, as exact integers.

    ``u``/``v`` are the doubled ranks of ``x``/``y`` among each row's
    pairs with both values finite.  Excluded entries become ``+inf``
    sentinels: they sort after every finite value, so the valid entries'
    ranks are exactly the ranks they would get in the compacted row; their
    own ranks are zeroed.
    """
    n_tenants, window = x.shape
    if window > _PAIRWISE_RANK_MAX_WINDOW:
        valid = np.isfinite(x) & np.isfinite(y)
        ux = np.where(valid, fractional_ranks(np.where(valid, x, np.inf)), 0)
        uy = np.where(valid, fractional_ranks(np.where(valid, y, np.inf)), 0)
        return (
            np.count_nonzero(valid, axis=1),
            np.einsum("tw,tw->t", ux, ux),
            np.einsum("tw,tw->t", uy, uy),
            np.einsum("tw,tw->t", ux, uy),
        )
    # Tiles of (W, chunk), transposed so each comparison row is contiguous
    # and a tile stays cache-resident.  For W <= 16 a doubled rank is at
    # most 31 and every moment at most 5456, so int16 products and sums
    # are exact.
    chunk = max(1, SLOPE_CHUNK_ELEMENTS // max(1, window * (window - 1) // 2))
    out = np.empty((4, n_tenants), dtype=np.int64)
    for start in range(0, n_tenants, chunk):
        stop = min(start + chunk, n_tenants)
        xs = np.ascontiguousarray(x[start:stop].T)
        ys = np.ascontiguousarray(y[start:stop].T)
        excluded = ~(np.isfinite(xs) & np.isfinite(ys))
        out[0, start:stop] = window - _count_true(excluded)
        ranks = []
        for values in (xs, ys):
            np.copyto(values, np.inf, where=excluded)
            u = _pairwise_ranks(values).astype(np.int16)
            np.copyto(u, 0, where=excluded)
            ranks.append(u)
        ux, uy = ranks
        for row, product in enumerate((ux * ux, uy * uy, ux * uy), 1):
            out[row, start:stop] = np.add.reduce(product, axis=0)
    return tuple(out)


def batched_spearman(
    x: np.ndarray,
    y: np.ndarray,
    min_points: int = 4,
) -> BatchedCorrelation:
    """Row-wise :func:`repro.stats.spearman.spearman` over ``(T, W)``.

    Pairs with a non-finite value on either axis are dropped per row;
    rows with fewer than ``min_points`` surviving pairs (or a constant
    axis) report ``rho = 0.0``.

    Uses the doubled-rank integer identity (see
    :class:`repro.stats.incremental.IncrementalSpearman`): with
    ``u = 2·rank(x) − 1`` and ``v = 2·rank(y) − 1`` over the ``n`` valid
    pairs, ``Σu = n²`` exactly, so

        rho = (Σuv − n³) / sqrt((Σu² − n³)(Σv² − n³))

    in *exact integer arithmetic* — bit-identical to the incremental
    vector path and within 1e-9 of the float batch reference.  Windows up
    to 16 rank by pairwise comparison, wider ones by
    :func:`fractional_ranks`.
    """
    x, y = _as_matrix_pair(x, y)
    n_points, *moments = _rank_moments(x, y)
    n3 = n_points ** 3
    a, b, c = (m - n3 for m in moments)
    ab = a * b
    compute = (n_points >= min_points) & (ab > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(compute, c / np.sqrt(np.where(compute, ab, 1)), 0.0)
    return BatchedCorrelation(rho, n_points)


def batched_tail_median(
    values: np.ndarray,
    k: int,
    default: float = 0.0,
) -> np.ndarray:
    """Row-wise NaN-dropping median of the last ``k`` columns.

    The batched :class:`repro.stats.incremental.TailMedian`: NaN entries
    are excluded, and rows whose tail is entirely NaN report ``default``.
    ``±inf`` propagates through the median exactly as ``np.median`` does.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be (tenants, window), got {values.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tail = values[:, -k:]
    counted = tail.shape[1] - np.count_nonzero(np.isnan(tail), axis=1)
    return _nan_last_median(tail, counted, default)
