"""Tests of the marching-squares oracle itself (``tests/marching_squares.py``)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from .marching_squares import cell_segments, chain_segments, contour, crossing_segments


def loop_segments(x, y, z, level):
    """The cell-by-cell scan the vectorized one replaced."""
    segments = []
    for i in range(len(x) - 1):
        for j in range(len(y) - 1):
            block = z[i:i + 2, j:j + 2]
            if np.any(np.isnan(block)):
                continue
            segments.extend(cell_segments(i, j, x, y, z, level))
    return segments


@st.composite
def holed_field(draw):
    """Axes, a field of few distinct values with NaN holes, and a level that
    is often exactly a corner value, so the ``>`` ties are exercised."""
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    x = np.cumsum([draw(st.floats(0.01, 1.0)) for _ in range(nx)])
    y = np.cumsum([draw(st.floats(0.01, 1.0)) for _ in range(ny)])
    cell = st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.nan]),
                     st.floats(-3.0, 3.0))
    z = np.array(draw(st.lists(cell, min_size=nx * ny, max_size=nx * ny)),
                 dtype=float).reshape(nx, ny)
    finite = z[~np.isnan(z)].tolist()
    level = draw(st.one_of(st.sampled_from(finite or [1.0]), st.floats(-3.0, 3.0)))
    return x, y, z, level


@settings(max_examples=300, deadline=None)
@given(holed_field())
def test_contour_scan_matches_cell_loop(case):
    x, y, z, level = case
    segments = crossing_segments(x, y, z, level)
    expected = loop_segments(x, y, z, level)
    assert segments == expected
    chains = sorted(chain_segments(expected), key=len, reverse=True)
    components = contour(x, y, z, level)
    assert len(components) == len(chains)
    assert all(np.array_equal(a, b) for a, b in zip(components, chains))


def test_linear_field_antidiagonal():
    grid = np.linspace(0.0, 0.9, 10)
    z = grid[:, None] + grid[None, :]
    chains = contour(grid, grid, z, 1.0)
    assert len(chains) == 1
    pts = chains[0]
    assert len(pts) >= 9
    assert np.allclose(pts[:, 0] + pts[:, 1], 1.0, atol=1e-12)
    d = np.diff(pts[:, 0])  # ordered along the curve: theta strictly monotone
    assert np.all(d > 0) or np.all(d < 0)
