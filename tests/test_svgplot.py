import ast
import base64
import math
import re
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataecon import (DomainError, ModelError, ModelParams, RenderSpec, baseline_params,
                      grid_sweep, phase_portrait, svgplot)
from dataecon.svgplot import (_HEIGHT, _VIRIDIS, _WIDTH, _Canvas, _color, _fmt, _ramp,
                              render_heatmap, render_phase)


def scalar_color(t):
    """The per-value colour ramp the vectorized one replaced."""
    stops = _VIRIDIS
    t = min(max(t, 0.0), 1.0)
    x = t * (len(stops) - 1)
    i = min(int(x), len(stops) - 2)
    f = x - i
    rgb = [stops[i][c] + f * (stops[i + 1][c] - stops[i][c]) for c in range(3)]
    return "#%02x%02x%02x" % tuple(int(round(255 * v)) for v in rgb)


def hex_of(rgb):
    return "#%02x%02x%02x" % tuple(rgb)


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
    rgb = _ramp(np.array(ts))
    assert rgb.dtype == np.uint8 and rgb.shape == (len(ts), 3)
    assert [hex_of(c) for c in rgb.tolist()] == [scalar_color(t) for t in ts]
    assert [_color(t) for t in ts] == [scalar_color(t) for t in ts]


@given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=50))
def test_ramp_matches_scalar_colour(ts):
    assert [hex_of(c) for c in _ramp(np.array(ts)).tolist()] == [scalar_color(t) for t in ts]


def embedded_png(svg):
    """Pixels of the heatmap's one embedded PNG as an (height, width, 3)
    array, after checking its signature, chunk order, CRCs and header."""
    hrefs = re.findall(r'<image [^>]*href="data:image/png;base64,([^"]*)"', svg)
    assert len(hrefs) == 1
    png = base64.b64decode(hrefs[0], validate=True)
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, at = [], 8
    while at < len(png):
        (size,) = struct.unpack(">I", png[at:at + 4])
        tag, data = png[at + 4:at + 8], png[at + 8:at + 8 + size]
        assert struct.unpack(">I", png[at + 8 + size:at + 12 + size])[0] == zlib.crc32(tag + data)
        chunks.append((tag, data))
        at += 12 + size
    assert at == len(png)
    assert [tag for tag, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    width, height, *rest = struct.unpack(">IIBBBBB", chunks[0][1])
    assert rest == [8, 2, 0, 0, 0]  # 8-bit RGB, deflate, filter set 0, no interlace
    rows = np.frombuffer(zlib.decompress(chunks[1][1]), np.uint8).reshape(height, 1 + 3 * width)
    assert not rows[:, 0].any()  # every scanline unfiltered
    return rows[:, 1:].reshape(height, width, 3)


def cellwise_colours(grid, variable):
    """The per-cell colour rule: the scalar ramp over libm log10 values when
    the finite values span more than three decades, gray where masked.
    Indexed [theta][eta]."""
    vals = grid.values(variable)
    finite = vals[np.isfinite(vals)].tolist()
    log_scale = (len(finite) > 0 and min(finite) > 0
                 and max(finite) / max(min(finite), 1e-300) > 1e3)
    norm = [math.log10(v) if log_scale else v for v in finite]
    lo = min(norm) if norm else 0.0
    hi = max(norm) if norm else 1.0
    span = (hi - lo) or 1.0
    return log_scale, [[scalar_color(((math.log10(v) if log_scale else v) - lo) / span)
                        if math.isfinite(v) else "#bbbbbb" for v in row]
                       for row in vals.tolist()]


@pytest.mark.parametrize("axes", [
    ((0.05, 0.95, 50), (0.05, 0.95, 50)),  # log10 scale, singular band masked
    ((0.0, 0.99, 23), (0.0, 0.99, 17)),    # degenerate theta = 0 row
    ((0.1, 0.9, 30), (0.0, 0.2, 40)),      # linear scale
    # perfbench surface-fine's seed-1 sweep grid
    ((0.05060767748593548, 0.9506076774859354, 200),
     (0.053832614890670906, 0.9538326148906708, 200)),
    ((0.05, 0.95, 60), (0.6, 0.95, 60)),   # log10 scale, above the band
])
def test_heatmap_matches_cellwise_loop(axes):
    grid = grid_sweep(baseline_params(), *(np.linspace(*a) for a in axes))
    spec = RenderSpec(kind="surface-heatmap")
    for variable in ("k_star", "c_star"):
        svg = render_heatmap(grid, variable, spec)
        pixels = embedded_png(svg)
        assert pixels.shape == (len(grid.eta_axis), len(grid.theta_axis), 3)
        log_scale, expected = cellwise_colours(grid, variable)
        assert f"{variable} ({'log10' if log_scale else 'linear'} color scale)" in svg
        # image row 0 is the largest eta
        got = [[hex_of(c) for c in col] for col in pixels[::-1].transpose(1, 0, 2).tolist()]
        assert got == expected


def image_box(svg):
    m = re.search(r'<image x="([^"]*)" y="([^"]*)" width="([^"]*)" height="([^"]*)" '
                  r'preserveAspectRatio="none" style="image-rendering:pixelated" '
                  r'clip-path="url\(#frame\)" href=', svg)
    assert m is not None
    return m.groups()


@pytest.mark.parametrize("ranges", [
    (None, None), ((0.1, 0.6), (0.2, 0.4)), ((0.0, 1.0), (0.0, 1.0))])
def test_image_spans_the_half_step_extended_axes(ranges):
    thetas, etas = np.linspace(0.1, 0.6, 11), np.linspace(0.2, 0.4, 7)
    grid = grid_sweep(baseline_params(), thetas, etas)
    spec = RenderSpec(kind="surface-heatmap", x_range=ranges[0], y_range=ranges[1])
    svg = render_heatmap(grid, "c_star", spec)
    cv = _Canvas(ranges[0] or (0.1, 0.6), ranges[1] or (0.2, 0.4), "", "", "")
    dx, dy = 0.05, 0.2 / 6
    x0, x1 = cv.px(thetas[0] - dx / 2), cv.px(thetas[-1] + dx / 2)
    y0, y1 = cv.py(etas[-1] + dy / 2), cv.py(etas[0] - dy / 2)
    assert image_box(svg) == (_fmt(x0), _fmt(y0), _fmt(x1 - x0), _fmt(y1 - y0))
    assert f'<clipPath id="frame"><rect {cv.frame}/></clipPath>' in svg


def test_renders_of_one_grid_are_byte_identical():
    grid = grid_sweep(baseline_params(), np.linspace(0.05, 0.95, 40),
                      np.linspace(0.05, 0.95, 30))
    spec = RenderSpec(kind="surface-heatmap")
    assert render_heatmap(grid, "k_star", spec) == render_heatmap(grid, "k_star", spec)


@pytest.mark.parametrize("uneven", ["theta", "eta"])
def test_uneven_axis_refused(uneven):
    axes = {"theta": np.linspace(0.05, 0.95, 20), "eta": np.linspace(0.05, 0.25, 20)}
    axes[uneven] = np.geomspace(0.05, 0.25, 20)
    grid = grid_sweep(baseline_params(), axes["theta"], axes["eta"])
    with pytest.raises(DomainError, match=f"heatmap {uneven} axis is not evenly spaced"):
        render_heatmap(grid, "c_star", RenderSpec(kind="surface-heatmap"))


@pytest.mark.parametrize("ranges", [(None, None), ((0.0, 1.0), (0.0, 1.0))])
@pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
def test_one_point_axis_refused(shape, ranges):
    thetas, etas = np.linspace(0.3, 0.7, shape[0]), np.linspace(0.3, 0.7, shape[1])
    grid = grid_sweep(baseline_params(), thetas, etas)
    spec = RenderSpec(kind="surface-heatmap", x_range=ranges[0], y_range=ranges[1])
    with pytest.raises(DomainError, match=re.escape("empty axis range (0.3, 0.3)")):
        render_heatmap(grid, "c_star", spec)


# ---------------------------------------------------------------------------
# phase portraits

def svg_numbers_finite(svg: str) -> bool:
    return re.search(r"\b(inf|nan)\b", svg) is None


DEFECT_PARAMS = ModelParams(
    alpha=0.5984136672205659, beta=0.024055319144110278, eta=0.6892686400451568,
    theta=6.4525043437412066e-15, w=0.8855241513953401, delta=0.2644982097297149,
    rho=0.2941821805230764, sigma=3.647495921428746, a=9.46214474228424)


@st.composite
def any_model_params(draw):
    alpha = draw(st.floats(0.15, 0.9))
    beta = draw(st.floats(0.05, min(0.9, 1.0 - alpha)))
    return ModelParams(
        alpha=alpha, beta=beta, eta=draw(st.floats(0.0, 0.95)),
        theta=draw(st.one_of(st.floats(0.0, 1.0), st.floats(1e-30, 1e-10))),
        w=draw(st.floats(0.1, 10.0)), delta=draw(st.floats(0.01, 0.5)),
        rho=draw(st.floats(0.01, 0.5)), sigma=draw(st.floats(1.01, 10.0)),
        a=draw(st.floats(0.1, 10.0)))


@settings(max_examples=40, derandomize=True, deadline=None)
@example(DEFECT_PARAMS)
@given(any_model_params())
def test_phase_svg_coordinates_finite(p):
    # The quiver arrows are scaled in plot units, at most 3.5% of the frame
    # on each axis; a steady state near the top of float64 (k* = 1.76e164
    # in the example) once drew them at inf.
    try:
        portrait = phase_portrait(p)
    except ModelError:
        return  # a typed refusal is an allowed outcome
    spec = RenderSpec(kind="phase")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = render_phase(portrait, spec)
    assert svg_numbers_finite(svg)
    arrows = re.findall(r'<line x1="([-0-9.]+)" y1="([-0-9.]+)" x2="([-0-9.]+)" '
                        r'y2="([-0-9.]+)" stroke="#777777"', svg)
    frame_w, frame_h = _WIDTH - 18.0 - 56.0, _HEIGHT - 56.0 - 30.0
    for x1, y1, x2, y2 in arrows[::3]:  # each shaft, then its two head strokes
        assert abs(float(x2) - float(x1)) <= 0.035 * frame_w + 0.01
        assert abs(float(y2) - float(y1)) <= 0.035 * frame_h + 0.01


# ---------------------------------------------------------------------------
# imports

def test_svgplot_imports_no_dataecon_module_but_errors():
    """svgplot is a leaf: drawing a figure loads no model, sweep or DID
    module, so each command can import only what it runs."""
    tree = ast.parse(Path(svgplot.__file__).read_text(encoding="utf-8"))
    local = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local += [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "dataecon":
            local.append(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            local += [a.name.partition(".")[2] for a in node.names
                      if a.name.partition(".")[0] == "dataecon"]
    assert local == ["errors"]
