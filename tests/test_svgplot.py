import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataecon import RenderSpec, baseline_params, grid_sweep
from dataecon.svgplot import (_VIRIDIS, _Canvas, _color, _fmt, _grid_ranges, _ramp,
                              render_heatmap)

from .textdiff import first_difference


def scalar_color(t):
    """The per-value colour ramp the vectorized one replaced."""
    stops = _VIRIDIS
    t = min(max(t, 0.0), 1.0)
    x = t * (len(stops) - 1)
    i = min(int(x), len(stops) - 2)
    f = x - i
    rgb = [stops[i][c] + f * (stops[i + 1][c] - stops[i][c]) for c in range(3)]
    return "#%02x%02x%02x" % tuple(int(round(255 * v)) for v in rgb)


def half_ties():
    """Values of t at which 255 times some channel of the ramp is exactly
    k + 0.5, where rounding half to even decides the byte."""
    stops = _VIRIDIS
    n = len(stops)
    ties = []
    for i in range(n - 1):
        for c in range(3):
            a, b = float(stops[i][c]), float(stops[i + 1][c])
            if a == b:
                continue
            lo, hi = sorted((255 * a, 255 * b))
            for k in range(math.ceil(lo - 0.5), math.floor(hi - 0.5) + 1):
                t = (i + ((k + 0.5) / 255 - a) / (b - a)) / (n - 1)
                for ulps in range(-4, 5):
                    cand = t
                    for _ in range(abs(ulps)):
                        cand = math.nextafter(cand, math.copysign(math.inf, ulps))
                    x = cand * (n - 1)
                    f = x - min(int(x), n - 2)
                    if min(int(x), n - 2) == i and 255 * (a + f * (b - a)) == k + 0.5:
                        ties.append(cand)
    return ties


def test_ramp_matches_scalar_colour_at_edges_stops_and_ties():
    n = len(_VIRIDIS)
    ties = half_ties()
    assert len(ties) >= 10
    ts = [0.0, 1.0, -0.25, 1.25, -1e-300, math.nextafter(1.0, 2.0), -math.inf,
          math.inf, *(k / (n - 1) for k in range(n)), *ties]
    assert _ramp(np.array(ts)) == [scalar_color(t) for t in ts]
    assert [_color(t) for t in ts] == [scalar_color(t) for t in ts]


@given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=50))
def test_ramp_matches_scalar_colour(ts):
    assert _ramp(np.array(ts)) == [scalar_color(t) for t in ts]


def cellwise_heatmap(grid, variable, spec):
    """The per-cell heatmap loop the row-wise one replaced."""
    vals = grid.values(variable)
    finite = vals[np.isfinite(vals)]
    log_scale = (finite.size > 0 and np.all(finite > 0)
                 and finite.max() / max(finite.min(), 1e-300) > 1e3)
    norm = np.log10(finite) if log_scale else finite
    lo = float(norm.min()) if norm.size else 0.0
    hi = float(norm.max()) if norm.size else 1.0
    span = (hi - lo) or 1.0
    xr, yr = _grid_ranges(grid, spec)
    scale_tag = "log10" if log_scale else "linear"
    cv = _Canvas(spec, xr, yr, f"{variable} ({scale_tag} color scale)", "theta", "eta")
    tx, ey = grid.theta_axis, grid.eta_axis
    for i in range(len(tx)):
        x_lo = tx[i] if i == 0 else 0.5 * (tx[i - 1] + tx[i])
        x_hi = tx[i] if i == len(tx) - 1 else 0.5 * (tx[i] + tx[i + 1])
        for j in range(len(ey)):
            y_lo = ey[j] if j == 0 else 0.5 * (ey[j - 1] + ey[j])
            y_hi = ey[j] if j == len(ey) - 1 else 0.5 * (ey[j] + ey[j + 1])
            v = vals[i, j]
            if np.isfinite(v):
                t = ((math.log10(v) if log_scale else v) - lo) / span
                fill = scalar_color(t)
            else:
                fill = "#bbbbbb"
            x_px, y_px = cv.px(x_lo), cv.py(y_hi)
            w_px = cv.px(x_hi) - cv.px(x_lo)
            h_px = cv.py(y_lo) - cv.py(y_hi)
            cv.parts.append(f'<rect x="{_fmt(x_px)}" y="{_fmt(y_px)}" '
                            f'width="{_fmt(w_px)}" height="{_fmt(h_px)}" fill="{fill}"/>\n')
    cv.parts.append(f'<rect x="{_fmt(cv.px0)}" y="{_fmt(cv.py1)}" '
                    f'width="{_fmt(cv.px1 - cv.px0)}" height="{_fmt(cv.py0 - cv.py1)}" '
                    'fill="none" stroke="black" stroke-width="1"/>\n')
    return cv.finish()


@pytest.mark.parametrize("axes", [
    ((0.05, 0.95, 50), (0.05, 0.95, 50)),  # log10 scale, singular band masked
    ((0.0, 0.99, 23), (0.0, 0.99, 17)),    # degenerate theta = 0 row
    ((0.1, 0.9, 30), (0.0, 0.2, 40)),      # linear scale
])
def test_heatmap_matches_cellwise_loop(axes):
    grid = grid_sweep(baseline_params(), *(np.linspace(*a) for a in axes))
    spec = RenderSpec(kind="surface-heatmap")
    for variable in ("k_star", "c_star"):
        assert first_difference(render_heatmap(grid, variable, spec),
                                cellwise_heatmap(grid, variable, spec)) is None
