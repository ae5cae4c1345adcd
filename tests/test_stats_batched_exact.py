"""Exact property tests for the batched signal kernels.

Each kernel in :mod:`repro.stats.batched` must produce the *same bits* as
its per-row reference, with no tolerance:

* :func:`batched_tail_median` — ``np.median`` of the row's non-NaN tail
  (``default`` when there is none);
* :func:`batched_detect_trend` — the scalar
  :func:`repro.stats.theil_sen.detect_trend`, whose slope is ``np.median``
  of the row's valid pairwise slopes;
* :func:`batched_spearman` — :class:`repro.stats.incremental.IncrementalSpearman`
  fed the row's pairs.

The drawn matrices mix NaN, ±inf, signed zeros, subnormals (so a pair's
quotient can underflow to 0), huge values (so a difference can overflow),
heavy ties, constant and all-NaN rows, and per-row x axes with repeated
values.  Widths run from 2 to 17 and 64, crossing the pairwise-rank cutoff.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stats.batched import (
    _PAIRWISE_RANK_MAX_WINDOW,
    batched_detect_trend,
    batched_spearman,
    batched_tail_median,
)
from repro.stats.incremental import IncrementalSpearman
from repro.stats.theil_sen import detect_trend

WIDTHS = list(range(2, 18)) + [64]
assert 2 <= _PAIRWISE_RANK_MAX_WINDOW < 17

SPECIAL = [
    np.nan,
    np.inf,
    -np.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.5e-310,
    1.0,
    -1.0,
    2.0,
    3.0,
    1e10,
    -1e10,
    1.5e308,
    -1.5e308,
]
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-3, 3).map(float),
    st.floats(width=64),
)
# x axes repeat values (vertical pairs) and span wide gaps, so subnormal
# dy over a large dx underflows to a zero slope.
axis_values = st.one_of(
    st.integers(0, 4).map(float),
    st.sampled_from([np.nan, np.inf, 1e10, -1e10, 1.5e308, 5e-324]),
    st.floats(width=64),
)

settings_exact = settings(max_examples=150, deadline=None)


@st.composite
def matrices(draw, widths=WIDTHS, shape=None, elements=values):
    if shape is None:
        shape = (draw(st.integers(1, 6)), draw(st.sampled_from(widths)))
    rows, width = shape
    m = draw(arrays(np.float64, shape, elements=elements))
    # Whole-row shapes the elementwise draw rarely hits.
    for r in range(rows):
        kind = draw(st.sampled_from(["drawn", "drawn", "constant", "nan", "ramp"]))
        if kind == "constant":
            m[r] = draw(elements)
        elif kind == "nan":
            m[r] = np.nan
        elif kind == "ramp":
            m[r] = np.arange(width, dtype=float) * draw(st.sampled_from([1.0, -2.0]))
    return m


def _assert_bits_equal(got, want, msg=""):
    """Equal values, NaN positions and the sign of every zero."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    np.testing.assert_array_equal(got, want, err_msg=msg)
    numbers = ~np.isnan(want)
    np.testing.assert_array_equal(
        np.signbit(got[numbers]), np.signbit(want[numbers]), err_msg=msg
    )


@settings_exact
@given(matrices(widths=list(range(1, 18)) + [64]), st.data())
def test_tail_median_equals_np_median_of_valid_tail(m, data):
    width = m.shape[1]
    k = data.draw(st.integers(1, width), label="k")
    default = data.draw(st.sampled_from([0.0, -1.0, np.nan]), label="default")
    got = batched_tail_median(m, k, default=default)
    want = np.empty(m.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        for r, row in enumerate(m[:, -k:]):
            kept = row[~np.isnan(row)]
            want[r] = np.median(kept) if kept.size else default
    _assert_bits_equal(got, want, f"k={k}")


def test_tail_median_even_and_single_width_cases():
    m = np.array(
        [
            [-0.0, -0.0, np.nan, np.nan],
            [np.inf, -np.inf, 1.0, np.nan],
            [1.5e308, 1.5e308, np.nan, 1.5e308],
            [5e-324, -0.0, np.nan, np.nan],
        ]
    )
    for k in (1, 2, 4):
        got = batched_tail_median(m, k, default=7.0)
        with np.errstate(invalid="ignore", over="ignore"):
            want = [
                np.median(r[~np.isnan(r)]) if (~np.isnan(r)).any() else 7.0
                for r in m[:, -k:]
            ]
        _assert_bits_equal(got, want, f"k={k}")


def _check_trend(x, y, alpha):
    with np.errstate(all="ignore"):
        got = batched_detect_trend(x, y, alpha=alpha)
        rows = [
            detect_trend(x if x.ndim == 1 else x[r], y[r], alpha=alpha)
            for r in range(y.shape[0])
        ]
    _assert_bits_equal(got.slope, [t.slope for t in rows], "slope")
    _assert_bits_equal(got.agreement, [t.agreement for t in rows], "agreement")
    np.testing.assert_array_equal(got.significant, [t.significant for t in rows])
    np.testing.assert_array_equal(got.n_points, [t.n_points for t in rows])


@settings_exact
@given(matrices(), st.sampled_from([0.55, 0.7, 1.0]), st.booleans(), st.data())
def test_trend_equals_scalar_detect_trend(y, alpha, per_row_x, data):
    rows, width = y.shape
    if per_row_x:
        x = data.draw(arrays(np.float64, (rows, width), elements=axis_values))
    elif data.draw(st.booleans(), label="clock"):
        # The fleet's clock: newest first, strictly decreasing.
        x = np.arange(width, 0, -1, dtype=float)
    else:
        x = data.draw(arrays(np.float64, (width,), elements=axis_values))
    _check_trend(x, y, alpha)


def test_trend_subnormal_quotients_underflow_to_zero():
    # dy = 5e-324 over dx = 1e10 underflows: those slopes are 0 and count
    # toward neither sign, which decides significance here.
    x = np.array([0.0, 1e10, 2e10, 3e10, 4e10])
    y = np.array(
        [
            [0.0, 5e-324, 1e-323, 1.5e-323, 2e-323],
            [0.0, 5e-324, 1.0, 2.0, 3.0],
            [-0.0, 0.0, -0.0, 0.0, 1.0],
        ]
    )
    _check_trend(x, y, 0.7)
    _check_trend(np.tile(x, (3, 1)), y, 0.7)


def test_trend_overflowing_pair_is_valid_and_makes_the_median_nan():
    # The outer pair's dy and dx both overflow to inf: its slope is NaN but
    # still counted, so np.median of the slopes (and the trend) is NaN.
    x = np.array([-1.5e308, 0.0, 1.0, 2.0, 1.5e308])
    y = np.array([[-1.5e308, 0.0, 1.0, 2.0, 1.5e308], [1.5e308, 2.0, 1.0, 0.0, -1.5e308]])
    _check_trend(x, y, 0.7)
    _check_trend(np.tile(x, (2, 1)), y, 0.7)
    assert np.isnan(batched_detect_trend(x, y).slope).all()


def _incremental(x_row, y_row):
    inc = IncrementalSpearman(x_row.size)
    for a, b in zip(x_row, y_row):
        inc.append(a, b)
    return inc.result()


@settings_exact
@given(matrices(), st.data())
def test_spearman_equals_incremental(x, data):
    rows = x.shape[0]
    y = data.draw(matrices(shape=x.shape), label="y")
    got = batched_spearman(x, y)
    want = [_incremental(x[r], y[r]) for r in range(rows)]
    _assert_bits_equal(got.rho, [w.rho for w in want], "rho")
    np.testing.assert_array_equal(got.n_points, [w.n_points for w in want])


def test_spearman_tie_heavy_rows_on_both_sides_of_the_cutoff():
    rng = np.random.default_rng(17)
    for width in (_PAIRWISE_RANK_MAX_WINDOW, _PAIRWISE_RANK_MAX_WINDOW + 1, 64):
        x = rng.integers(0, 3, size=(50, width)).astype(float)
        y = rng.integers(0, 4, size=(50, width)).astype(float)
        x[rng.random(x.shape) < 0.1] = np.nan
        y[rng.random(y.shape) < 0.05] = -np.inf
        got = batched_spearman(x, y)
        want = [_incremental(x[r], y[r]) for r in range(50)]
        _assert_bits_equal(got.rho, [w.rho for w in want], f"W={width}")
        np.testing.assert_array_equal(got.n_points, [w.n_points for w in want])
