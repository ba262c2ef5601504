import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dataecon import (DegenerateError, DomainError, ModelError, ModelParams,
                      ParameterError, RegimeError, SearchError, SteadyState,
                      SweepGrid, ThresholdCurve, band_free_intervals,
                      baseline_params, grid_sweep, interest_rate,
                      iso_equilibrium_contour, rhs, sensitivity_signs,
                      steady_state, threshold_curve, validate_params)
from dataecon import sweep
from dataecon.core import Coefficients, steady_states

from . import decimal_oracle, marching_squares
from .strategies import kx, model_params

BASE = baseline_params()


def synthetic_grid(f, thetas, etas) -> SweepGrid:
    """Grid whose c_star / k_star equal an arbitrary field, for seam tests."""
    v = np.array([[f(t, e) for e in etas] for t in thetas], dtype=float)
    return SweepGrid(np.asarray(thetas, float), np.asarray(etas, float),
                     k_star=v, c_star=v, l_star=np.ones_like(v),
                     y_star=np.ones_like(v), r_star=np.full_like(v, 0.15),
                     mask=np.full(v.shape, "ok", dtype="<U10"))


def cell(grid, i, j):
    """The SteadyState of cell (i, j) read from the grid's quantity arrays,
    None where the mask refuses the cell."""
    if grid.mask[i, j] != "ok":
        return None
    return SteadyState(**{q: grid.values(q)[i, j] for q in sweep._QUANTITIES}, feasible=True)


# ---------------------------------------------------------------------------
# grid_sweep

def test_single_cell_grid_equals_steady_state():
    grid = grid_sweep(BASE, [0.5], [0.2])
    assert grid.mask[0, 0] == "ok"
    assert cell(grid, 0, 0) == steady_state(validate_params({"theta": 0.5, "eta": 0.2}))


def test_eta0_row_constant_across_theta():
    grid = grid_sweep(BASE, np.linspace(0.05, 0.95, 7), [0.0])
    ks = grid.values("k_star")[:, 0]
    assert np.all(ks == ks[0])


def test_default_grid_masks_singular_band():
    thetas = np.linspace(0.05, 0.95, 50)
    etas = np.linspace(0.05, 0.95, 50)
    grid = grid_sweep(BASE, thetas, etas)
    expected = {e for e in etas if abs(BASE.alpha * e + BASE.alpha + BASE.beta - 1.0) < 0.02}
    singular_cols = {j for j in range(50) if np.all(grid.mask[:, j] == "singular")}
    assert len(singular_cols) == len(expected)
    assert int((grid.mask == "singular").sum()) == 50 * len(expected)
    assert np.all((grid.mask == "ok") | (grid.mask == "singular"))


def test_masked_cells_carry_no_numbers():
    grid = grid_sweep(BASE, [0.5], [1.0 / 3.0 - 1e-9])
    assert grid.mask[0, 0] == "singular"
    assert all(math.isnan(grid.values(q)[0, 0]) for q in sweep._QUANTITIES)


def test_theta_zero_with_positive_eta_masked_degenerate():
    grid = grid_sweep(BASE, [0.0, 0.5], [0.0, 0.2])
    assert grid.mask[0, 0] == "ok"        # eta = 0: theta irrelevant
    assert grid.mask[0, 1] == "degenerate"
    assert grid.mask[1, 1] == "ok"


def test_infeasible_cells_masked_not_raised():
    p = baseline_params(delta=0.5, rho=0.02)
    grid = grid_sweep(p, np.linspace(0.05, 0.95, 12), np.linspace(0.05, 0.95, 12))
    assert np.any(grid.mask == "infeasible")
    assert np.any(grid.mask == "ok")


def test_grid_cells_order_independent():
    thetas = np.linspace(0.1, 0.9, 5)
    etas = np.linspace(0.0, 0.9, 6)
    grid = grid_sweep(BASE, thetas, etas)
    # re-evaluate cells one by one in shuffled order; results must be bitwise equal
    rng = np.random.default_rng(0)
    order = [(i, j) for i in range(5) for j in range(6)]
    rng.shuffle(order)
    for i, j in order:
        single = grid_sweep(BASE, [thetas[i]], [etas[j]])
        assert single.mask[0, 0] == grid.mask[i, j]
        assert cell(single, 0, 0) == cell(grid, i, j)


def test_unmasked_cells_satisfy_equilibrium_conditions():
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 5), np.linspace(0.0, 0.9, 7))
    target = BASE.rho + BASE.delta
    for i, theta in enumerate(grid.theta_axis):
        for j, eta in enumerate(grid.eta_axis):
            ss = cell(grid, i, j)
            if ss is None:
                continue
            p = BASE.replace(theta=float(theta), eta=float(eta))
            assert abs(interest_rate(ss.k_star, p) - target) < 1e-10
            c_dot, k_dot = rhs((ss.c_star, ss.k_star), p)
            assert abs(c_dot) <= 1e-8 * ss.c_star
            assert abs(k_dot) <= 1e-8 * max(ss.y_star, 1.0)


@st.composite
def sweep_case(draw):
    """A valid base and short axes holding theta = 0, eta = 0, and etas
    within 1e-12 of both edges of the singular band."""
    alpha = draw(st.floats(0.05, 0.95))
    beta = draw(st.floats(0.02, 1.0 - alpha))
    assume(alpha + beta <= 1.0)
    base = ModelParams(alpha=alpha, beta=beta, w=draw(st.floats(0.05, 20.0)),
                       delta=draw(st.floats(0.005, 0.8)), rho=draw(st.floats(0.005, 0.3)))
    edges = [(1.0 - alpha - beta + s * base.singular_band) / alpha for s in (-1.0, 1.0)]
    etas = ({0.0} | {e + d for e in edges for d in (-1e-12, 0.0, 1e-12)}
            | draw(st.sets(st.floats(0.0, 0.99), max_size=4)))
    thetas = {0.0} | draw(st.sets(st.floats(0.0, 0.99), min_size=1, max_size=3))
    return base, sorted(thetas), sorted(e for e in etas if 0.0 <= e < 1.0)


def scalar_cell(p):
    """Mask category and SteadyState of one cell by the scalar solver."""
    try:
        ss = steady_state(p)
    except RegimeError:
        return "singular", None
    except (DegenerateError, DomainError):
        return "degenerate", None
    return ("ok", ss) if ss.feasible else ("infeasible", None)


@given(sweep_case())
def test_grid_matches_scalar_solver_cell_by_cell(case):
    base, thetas, etas = case
    grid = grid_sweep(base, thetas, etas)
    for i, theta in enumerate(thetas):
        for j, eta in enumerate(etas):
            p = base.replace(theta=theta, eta=eta)
            mask, ss = scalar_cell(p)
            assert grid.mask[i, j] == mask, (theta, eta)
            assert (mask == "singular") == (abs(kx(p)) < p.singular_band), (theta, eta)
            assert cell(grid, i, j) == ss, (theta, eta)  # exact on 'ok' cells


def test_axis_validation():
    with pytest.raises(DomainError):
        grid_sweep(BASE, [0.5, 0.3], [0.2])     # unsorted
    with pytest.raises(DomainError):
        grid_sweep(BASE, [0.5, 0.5], [0.2])     # duplicated
    with pytest.raises(DomainError, match=r"theta_axis values must lie in \[0, 1\]"):
        grid_sweep(BASE, [1.5], [0.2])          # theta = 1.5 outside [0, 1]
    with pytest.raises(DomainError, match=r"eta_axis values must lie in \[0, 1\)"):
        grid_sweep(BASE, [0.5], [1.0])          # eta = 1 outside [0, 1)
    with pytest.raises(DomainError):
        grid_sweep(BASE, [-0.1], [0.2])


@pytest.mark.parametrize("theta_axis", [[math.nan], [0.5, math.nan], [math.nan, 0.5]])
def test_nan_on_the_theta_axis_is_outside_its_range(theta_axis):
    with pytest.raises(DomainError, match=r"theta_axis values must lie in \[0, 1\]"):
        grid_sweep(BASE, theta_axis, [0.2])


@pytest.mark.parametrize("eta_axis", [[math.nan], [0.2, math.nan], [math.nan, 0.2]])
def test_nan_on_the_eta_axis_is_outside_its_range(eta_axis):
    with pytest.raises(DomainError, match=r"eta_axis values must lie in \[0, 1\)"):
        grid_sweep(BASE, [0.5], eta_axis)


def test_theta_one_cells_equal_steady_state():
    """theta = 1 is in the model's range, so the grid takes it too."""
    etas = np.linspace(0.0, 0.95, 20)
    grid = grid_sweep(BASE, [0.5, 1.0], etas)
    assert np.sum(grid.mask[1] == "ok") >= 15
    for j, eta in enumerate(etas):
        if grid.mask[1, j] == "ok":
            assert cell(grid, 1, j) == steady_state(BASE.replace(theta=1.0, eta=float(eta)))


def test_oversized_grid_refused_before_allocating(monkeypatch):
    axis = np.linspace(0.0, 0.99, 100_000)
    with monkeypatch.context() as m:
        m.setattr(sweep.np, "meshgrid", None)  # no grid may be built first
        m.setattr(sweep, "steady_states", None)
        with pytest.raises(DomainError, match=r"^grid of 100000 x 100000 cells exceeds "
                                              r"2500000 cells$"):
            grid_sweep(BASE, axis, axis)
    monkeypatch.setattr(sweep, "_MAX_CELLS", 12)
    assert grid_sweep(BASE, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4]).mask.shape == (3, 4)
    with pytest.raises(DomainError, match="grid of 13 x 1 cells"):
        grid_sweep(BASE, np.linspace(0.1, 0.9, 13), [0.2])


# ---------------------------------------------------------------------------
# threshold search

def test_threshold_matches_brute_force():
    tol = 1e-4
    lo, hi = 0.4, 0.95
    res = threshold_curve(BASE, [0.3], (lo, hi), tol)
    etas = np.linspace(lo, hi, 10_000)
    cs = [steady_state(BASE.replace(theta=0.3, eta=float(e))).c_star for e in etas]
    brute = etas[int(np.argmax(cs))]
    assert abs(res.eta_star[0] - brute) <= 2.0 * tol
    assert res.c_star_max[0] >= max(cs) - 1e-9
    assert res.shapes == ("interior-peak",)


def test_threshold_monotone_theta_pair():
    tol = 1e-4
    lo = threshold_curve(BASE, [0.3], (0.4, 0.95), tol)
    hi = threshold_curve(BASE, [0.7], (0.4, 0.95), tol)
    assert lo.eta_star[0] <= hi.eta_star[0] + tol


def test_threshold_splits_around_band():
    results = [threshold_curve(BASE, [0.5], part, 1e-4)
               for part in band_free_intervals(BASE, (0.05, 0.95))]
    assert len(results) == 2
    left, right = results
    assert left.eta_range[1] <= 0.31
    assert right.eta_range[0] >= 0.36
    # left side rises into the band edge: boundary maximum
    assert left.shapes == ("monotone-on-range",)
    assert right.shapes == ("interior-peak",)


def test_threshold_all_infeasible_raises():
    # heavy depreciation: c* < 0 for every eta above ~0.7
    p = baseline_params(delta=0.8, rho=0.01)
    with pytest.raises(SearchError):
        threshold_curve(p, [0.9], (0.75, 0.95), 1e-4)


def test_threshold_inverted_u_flanks():
    eta_star = float(threshold_curve(BASE, [0.3], (0.4, 0.95), 1e-5).eta_star[0])
    f = lambda e: steady_state(BASE.replace(theta=0.3, eta=e)).c_star
    h = 0.01
    assert f(eta_star - h) > f(eta_star - 2 * h)   # rising below
    assert f(eta_star + 2 * h) < f(eta_star + h)   # falling above


def test_threshold_curve_default_range_is_band_free():
    curve = threshold_curve(BASE, [0.2, 0.5, 0.8], tol=1e-4)
    assert band_free_intervals(BASE, curve.eta_range) == [curve.eta_range]
    assert np.all(np.diff(curve.eta_star) >= -1e-4)
    assert all(s == "interior-peak" for s in curve.shapes)


@pytest.mark.parametrize("params, side, expected", [
    ({}, 1, (0.3667, 0.95)),  # band centre 1/3: the part above it is the wider
    ({"alpha": 0.5, "beta": 0.1}, 0, (0.05, 0.76)),  # band centre 0.8: the part below
])
def test_threshold_default_range_is_the_wider_side_of_the_band(params, side, expected):
    """With no eta_range the search runs on the wider band-free part of
    [0.05, 0.95], on whichever side of the band that lies."""
    p = baseline_params(**params)
    curve = threshold_curve(p, [0.5])
    assert curve.eta_range == band_free_intervals(p, (0.05, 0.95))[side]
    assert curve.eta_range == pytest.approx(expected, abs=1e-4)


def test_threshold_curve_reports_the_band_free_range_it_searched():
    (lo, edge), = band_free_intervals(BASE, (0.05, 0.32))  # 0.32 lies in the band
    assert lo == 0.05 and edge < 0.32
    curve = threshold_curve(BASE, [0.5], (0.05, 0.32))
    assert curve.eta_range == (0.05, edge)
    assert curve.eta_star[0] <= edge
    assert threshold_curve(BASE, [0.5]).eta_range == band_free_intervals(BASE, (0.05, 0.95))[1]


def test_threshold_curve_rejects_straddling_range():
    with pytest.raises(DomainError):
        threshold_curve(BASE, [0.5], (0.05, 0.95))


def test_threshold_curve_refuses_empty_thetas():
    with pytest.raises(DomainError, match="thetas must be a nonempty list"):
        threshold_curve(BASE, [], (0.4, 0.95))


def test_oversized_threshold_curve_refused_before_evaluating(monkeypatch):
    """More thetas than grid_sweep's cell bound are refused before any theta
    is checked (1.5 is outside the model) or evaluated."""
    monkeypatch.setattr(sweep, "_MAX_CELLS", 2)
    with monkeypatch.context() as m:
        m.setattr(sweep, "steady_states", None)
        m.setattr(sweep, "Coefficients", None)
        with pytest.raises(DomainError, match=r"^3 thetas exceed the bound of 2$"):
            threshold_curve(BASE, [0.5, 0.5, 1.5], (0.4, 0.95))
    assert len(threshold_curve(BASE, [0.3, 0.5], (0.4, 0.95)).eta_star) == 2


def test_threshold_refuses_theta_outside_model():
    with pytest.raises(ParameterError, match=r"theta must lie in \[0, 1\], got 1.5"):
        threshold_curve(BASE, [0.5, 1.5], (0.4, 0.95))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.5])
def test_threshold_refuses_first_bad_theta_with_the_replace_message(monkeypatch, bad):
    thetas = np.linspace(0.01, 0.99, 10_001)
    thetas[6_000], thetas[7_000] = bad, 2.0
    with pytest.raises(ParameterError) as expected:
        BASE.replace(theta=bad)
    calls, inner = [], ModelParams.replace
    monkeypatch.setattr(ModelParams, "replace", lambda *a, **k: calls.append(k) or inner(*a, **k))
    with pytest.raises(ParameterError) as refused:
        threshold_curve(BASE, thetas, (0.4, 0.95))
    assert str(refused.value) == str(expected.value)
    assert refused.value.violations == expected.value.violations
    assert len([k for k in calls if "theta" in k]) == 1  # not one call per theta
    calls.clear()
    threshold_curve(BASE, thetas[:5_000], (0.4, 0.95))
    assert [k for k in calls if "theta" in k] == []


# The oracle: a 65-point scan and a scalar golden section on the scalar
# solver, refusals and infeasible points valued at -inf.

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_golden(f, lo, hi, tol):
    if not hi > lo:
        raise DomainError(f"empty search interval [{lo}, {hi}]")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        if not b - a < width:
            raise SearchError(f"golden section stalled at bracket width {b - a:.3g} "
                              f"above tol={tol}")
    x = 0.5 * (a + b)
    return x, f(x)


def reference_threshold(p_base, theta, lo, hi, tol):
    """(eta*, c* max, shape) at one theta on one band-free range [lo, hi]."""
    p_theta = p_base.replace(theta=float(theta))

    def c_at(eta):
        try:
            ss = steady_state(p_theta.replace(eta=float(eta)))
        except (RegimeError, DegenerateError, DomainError):
            return -math.inf
        return ss.c_star if ss.feasible else -math.inf

    xs = np.linspace(lo, hi, 65)
    vals = [c_at(x) for x in xs]
    if not any(map(math.isfinite, vals)):
        raise SearchError(f"no feasible steady state for theta={theta} on eta in [{lo}, {hi}]")
    i = int(np.argmax(vals))
    eta_star, c_max = scalar_golden(c_at, float(xs[max(i - 1, 0)]),
                                    float(xs[min(i + 1, 64)]), tol)
    edge = max(2.0 * tol, 1e-6 * (hi - lo))
    pinned = (eta_star - lo) <= edge or (hi - eta_star) <= edge
    return eta_star, c_max, "monotone-on-range" if pinned else "interior-peak"


def outcome(fn, *args):
    """fn's value, or the type and message of the ModelError it raises."""
    try:
        return fn(*args)
    except ModelError as exc:
        return type(exc), str(exc)


def assert_names_the_mask_at_eta_star(base, theta, why):
    """``why``, the end of a threshold refusal, names eta* and the mask
    category that ``steady_states`` gives there."""
    named = re.fullmatch(r": '(\w+)' at eta\*=(\S+)", why)
    assert named and steady_states(base, theta, float(named[2]))[0] == named[1] != "ok"


@st.composite
def threshold_case(draw):
    """A base (infeasible on part of the plane at times), thetas (now and
    then with theta = 0, which has no data above eta = 0), a range on one
    side of the band (often ending at an edge of the side) and a tol."""
    alpha = draw(st.floats(0.2, 0.9))
    beta = draw(st.floats(0.02, 1.0 - alpha))
    assume(alpha + beta <= 1.0)
    base = ModelParams(alpha=alpha, beta=beta, delta=draw(st.floats(0.01, 0.5)),
                       rho=draw(st.floats(0.005, 0.2)))
    side_lo, side_hi = draw(st.sampled_from(band_free_intervals(base, (0.0, 0.99))))
    ends = st.one_of(st.sampled_from([side_lo, side_hi]), st.floats(side_lo, side_hi))
    lo, hi = sorted((draw(ends), draw(ends)))
    assume(lo < hi)
    thetas = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    if draw(st.integers(0, 9)) == 0:
        thetas.insert(draw(st.integers(0, len(thetas))), 0.0)
    return base, thetas, (lo, hi), draw(st.floats(1e-6, 1e-2))


BAND_EDGE = ModelParams(alpha=0.6181792148933334, beta=0.10217667176097185,
                        delta=0.3312019125531727, rho=0.007135683614915034)


@settings(max_examples=150, deadline=None)
@given(threshold_case())
@example((BAND_EDGE, [0.2801851018685939], (0.0, 0.42001430505957127), 1e-4))
@example((BASE, [0.5], (0.1, math.nextafter(0.1, 1.0)), 1e-3))  # a one-ulp range
def test_threshold_curve_matches_per_theta_scalar_search(case):
    """Each theta against the oracle.  Bisection leaves eta* within tol/2 of
    the peak and the oracle within about tol of it, so eta* agrees within
    2 tol wherever the oracle's scan met no refused cell, and c* is never
    below the oracle's by more than rounding unless eta* lies that close to
    the oracle's (an interior peak's c* then differs by O(c'' tol^2)).
    The shape tags agree unless the oracle's eta* lies within 2 tol of the
    tags' margin.  Refusals equal the oracle's, up to the eta* and mask
    category a SearchError names at its end, except on a range too narrow
    for its scan to bracket, where eta* is a point of the range, and where
    c* under- or overflows on the range: there the cell at eta* can be
    refused, while the oracle reports a refused cell (c* = -inf) or the last
    representable one."""
    base, thetas, (lo, hi), tol = case
    assert band_free_intervals(base, (lo, hi)) == [(lo, hi)]
    got = outcome(threshold_curve, base, thetas, (lo, hi), tol)
    ones = [outcome(threshold_curve, base, [t], (lo, hi), tol) for t in thetas]
    refusals = [one for one in ones if not isinstance(one, ThresholdCurve)]
    if refusals:  # the first refused theta's error
        assert got == refusals[0]
    else:  # lockstep: each theta as if alone
        for i, one in enumerate(ones):
            assert (one.eta_star[0], one.c_star_max[0], one.shapes[0]) == \
                (got.eta_star[i], got.c_star_max[i], got.shapes[i])
            assert one.eta_range == (lo, hi)
    scan = np.linspace(lo, hi, 65)
    for theta, one in zip(thetas, ones):
        row = outcome(reference_threshold, base, theta, lo, hi, tol)
        mask, values = steady_states(base, theta, scan)
        if row[0] is DomainError:
            assert row[1].startswith("empty search interval")
            assert lo <= one.eta_star[0] <= hi
            continue
        if len(row) == 2:
            assert one[0] is row[0] and one[1].startswith(row[1])
            if one != row:
                assert_names_the_mask_at_eta_star(base, theta, one[1][len(row[1]):])
            continue
        if not isinstance(one, ThresholdCurve):
            assert np.any((values["c_star"] == np.inf) | (values["k_star"] == 0.0))
            prefix = f"no feasible steady state for theta={theta} on eta in [{lo}, {hi}]"
            assert one[0] is SearchError and one[1].startswith(prefix)
            assert_names_the_mask_at_eta_star(base, theta, one[1][len(prefix):])
            continue
        (eta, c), (eta_ref, c_ref, shape) = (one.eta_star[0], one.c_star_max[0]), row
        assert c >= c_ref * (1.0 - 1e-12) or abs(eta - eta_ref) <= 2.0 * tol, theta
        if np.all(mask == "ok"):
            assert abs(eta - eta_ref) <= 2.0 * tol, theta
        margin = max(2.0 * tol, 1e-6 * (hi - lo))  # the shape tag's distance to an end
        assert one.shapes[0] == shape or abs(min(eta_ref - lo, hi - eta_ref) - margin) <= 2.0 * tol


@settings(max_examples=150, deadline=None)
@given(threshold_case())
def test_dc_deta_changes_sign_at_most_once_on_each_side_of_the_band(case):
    """Where y*/k* > delta, the sign of dc*/deta goes at most once from + to
    - above the band (one peak) and from - to + below it (the maximum at an
    end), on a 2,001-point grid of each band-free part."""
    base, thetas, _, _ = case
    center = (1.0 - base.alpha - base.beta) / base.alpha
    for lo, hi in band_free_intervals(base, (0.0, 0.99)):
        etas = np.linspace(lo, hi, 2001)
        for theta in (t for t in thetas if t > 0.0):
            co = Coefficients(base, theta, etas)
            signs = np.sign(sweep._eta_slopes(co, theta, 1.0)[1][co.yk > base.delta])
            steps = np.diff(signs[signs != 0.0])
            assert np.all(steps <= 0.0 if lo > center else steps >= 0.0), (theta, lo, hi)


def test_threshold_at_the_band_edge_finds_the_cell_rounding_puts_inside_it():
    """The range ends where kx = -0.0199999999999999, inside the band only
    by rounding; c* keeps rising up to that cell."""
    theta, tol = 0.2801851018685939, 1e-4
    lo, hi = band_free_intervals(BAND_EDGE, (0.0, 0.99))[0]
    assert (lo, hi) == (0.0, 0.42001430505957127)
    assert steady_states(BAND_EDGE.replace(eta=hi))[0] == "singular"
    curve = threshold_curve(BAND_EDGE, [theta], (lo, hi), tol)
    etas = np.linspace(lo, hi, 10_000)
    grid = grid_sweep(BAND_EDGE, [theta], etas)
    brute = etas[int(np.nanargmax(grid.c_star[0]))]
    assert brute == pytest.approx(0.41997, abs=1e-5)
    assert abs(curve.eta_star[0] - brute) <= 2.0 * tol
    assert curve.c_star_max[0] >= 0.6606


def test_threshold_at_theta0_is_the_no_data_steady_state():
    """At theta = 0 only eta = 0 has data, so a range starting there finds
    eta* = 0, and one starting above it finds no feasible steady state."""
    curve = threshold_curve(BASE, [0.0, 0.5], (0.0, 0.3), 1e-4)
    assert curve.eta_star[0] == 0.0
    assert curve.c_star_max[0] == steady_state(BASE.replace(theta=0.0, eta=0.0)).c_star
    assert curve.c_star_max[0] == pytest.approx(8.704)
    with pytest.raises(SearchError, match=r"^no feasible steady state for theta=0.0 "
                                          r"on eta in \[0.1, 0.3\]: 'degenerate' at eta\*=0.1$"):
        threshold_curve(BASE, [0.0, 0.5], (0.1, 0.3), 1e-4)


@pytest.mark.parametrize("theta, eta_range, mask, eta_star", [
    (1e-30, None, "infeasible", 0.3667022705078125),  # c* overflows above the band
    (1e-100, (0.28, 0.3), "degenerate", 0.2800390625),  # k* underflows to 0 below it
])
def test_threshold_refusal_names_the_mask_at_eta_star(theta, eta_range, mask, eta_star):
    lo, hi = eta_range or (0.3666666666666667, 0.95)
    with pytest.raises(SearchError) as err:
        threshold_curve(BASE, [theta, 0.5], eta_range)
    assert str(err.value) == (f"no feasible steady state for theta={theta} on eta in "
                              f"[{lo}, {hi}]: '{mask}' at eta*={eta_star}")
    assert steady_states(BASE, theta, eta_star)[0] == mask


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_threshold_refuses_tol_that_is_not_positive(tol):
    with pytest.raises(DomainError, match="tol must be positive"):
        threshold_curve(BASE, [0.5], None, tol)


def test_threshold_tol_below_rounding_scale_ends():
    """tol sets the number of bisection steps, so a tol finer than the
    rounding scale of eta ends, at the eta* of a tol at that scale."""
    fine = threshold_curve(BASE, [0.5], None, 1e-15).eta_star[0]
    assert abs(threshold_curve(BASE, [0.5], None, 1e-20).eta_star[0] - fine) <= 1e-15


def test_threshold_infinite_tol_takes_no_step():
    lo, hi = band_free_intervals(BASE, (0.05, 0.95))[1]
    assert threshold_curve(BASE, [0.5], None, math.inf).eta_star[0] == 0.5 * (lo + hi)


def test_threshold_evaluator_calls_do_not_grow_with_thetas(monkeypatch):
    calls, inner = [], sweep.steady_states
    monkeypatch.setattr(sweep, "steady_states", lambda *a: calls.append(1) or inner(*a))
    thetas = np.linspace(0.05, 0.95, 37)
    for ts in [thetas] + [[theta] for theta in thetas]:
        calls.clear()
        threshold_curve(BASE, ts, None, 1e-4)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# contours

def test_contour_constant_field_empty():
    grid = synthetic_grid(lambda t, e: 2.0, np.linspace(0, 0.9, 5),
                          np.linspace(0, 0.9, 5))
    for level in (1.0, 3.0, 2.5):
        cont = iso_equilibrium_contour(grid, "c_star", level)
        assert len(cont.points) == 0
        assert cont.components == ()


def test_contour_linear_field_antidiagonal():
    # z = theta * eta is log-linear in log theta on every row, so the level
    # set theta * eta = 0.2 is met exactly; z = 0 on the theta = 0 column
    # and the eta = 0 row, which never bracket a crossing.
    grid = synthetic_grid(lambda t, e: t * e, np.linspace(0.0, 0.9, 10),
                          np.linspace(0.0, 0.9, 10))
    cont = iso_equilibrium_contour(grid, "c_star", 0.2)
    assert len(cont.components) == 1
    pts = cont.points
    assert pts[:, 1].tolist() == grid.eta_axis[3:].tolist()  # 0.2/eta <= 0.9
    assert np.allclose(pts[:, 0] * pts[:, 1], 0.2, rtol=1e-15, atol=0.0)
    assert np.all(np.diff(pts[:, 0]) < 0)


def test_contour_skips_masked_cells():
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 9), np.linspace(0.05, 0.95, 19))
    assert np.any(grid.mask == "singular")
    cont = iso_equilibrium_contour(grid, "k_star", 100.0)
    band = band_free_intervals(BASE, (0.0, 0.999))
    for th, et in cont.points:
        assert any(lo - 1e-9 <= et <= hi + 1e-9 for lo, hi in band)


def test_contour_fidelity_at_vertices():
    grid = grid_sweep(BASE, np.linspace(0.05, 0.95, 46), np.linspace(0.60, 0.95, 36))
    level = 0.02
    cont = iso_equilibrium_contour(grid, "c_star", level)
    assert len(cont.points) == 36
    # one vertex on every eta row, at the closed-form crossing, where the
    # steady state reproduces the level
    assert cont.points[:, 1].tolist() == grid.eta_axis.tolist()
    theta, eta = cont.points.T
    assert np.allclose(theta, closed_form_crossing(BASE, "c_star", level, eta),
                       rtol=1e-12, atol=0.0)
    mask, values = steady_states(BASE, theta, eta)
    assert np.all(mask == "ok")
    assert np.allclose(values["c_star"], level, rtol=1e-12, atol=0.0)


def test_contour_positive_comovement_high_eta():
    grid = grid_sweep(BASE, np.linspace(0.05, 0.95, 46), np.linspace(0.60, 0.95, 36))
    cont = iso_equilibrium_contour(grid, "c_star", 0.02)
    rho = stats.spearmanr(cont.points[:, 0], cont.points[:, 1]).statistic
    assert rho > 0.0


def test_contour_level_outside_range_empty():
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 6), np.linspace(0.6, 0.9, 6))
    cont = iso_equilibrium_contour(grid, "c_star", 1e9)
    assert len(cont.points) == 0


@pytest.mark.parametrize("variable", ["nope", "base", "mask", "feasible"])
def test_unknown_variable_refused(variable):
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 6), np.linspace(0.6, 0.9, 6))
    names = "k_star, c_star, l_star, y_star, r_star"
    with pytest.raises(DomainError, match=f"unknown variable '{variable}'; choose from {names}$"):
        grid.values(variable)
    with pytest.raises(DomainError, match="unknown variable"):
        iso_equilibrium_contour(grid, variable, 0.1)
    for name in names.split(", "):
        assert grid.values(name) is getattr(grid, name)


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_contour_non_finite_level_refused(level):
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 6), np.linspace(0.6, 0.9, 6))
    with pytest.raises(DomainError, match="contour level must be finite"):
        iso_equilibrium_contour(grid, "c_star", level)


def closed_form_crossing(p, variable, level, eta):
    """theta_L(eta) = exp((log L - g_X(eta))/eps(eta)): where the eta row
    of X* = exp(eps log theta + g_X) meets the level L, with
    eps = -alpha eta/kx and g_X = log X* at theta = 1."""
    co = Coefficients(p, 1.0, eta)
    log_ratio = {"k_star": 0.0, "c_star": np.log(co.yk - p.delta), "y_star": co.log_yk,
                 "l_star": math.log(p.beta * co.rho_delta / (p.alpha * p.w))}[variable]
    return np.exp((math.log(level) - co.log_k - log_ratio) / (-p.alpha * eta / co.kx))


@st.composite
def model_contour(draw, side):
    """A model grid on the ``side`` ('below' or 'above') of the singular
    band, one of the four positive quantities, and a level between its
    smallest and largest value on the grid.  The theta axis may start at 0
    and reach down to 1e-30; the eta axis may start at 0."""
    p = draw(model_params(nonsingular=False))
    parts = [(a, b) for a, b in band_free_intervals(p, (0.0, 0.95))
             if (kx(p.replace(eta=a)) > 0.0) == (side == "above")]
    assume(parts)
    (lo, hi), = parts
    etas = draw(st.lists(st.floats(lo, hi, exclude_max=True), min_size=2, max_size=12))
    etas += draw(st.sampled_from([[], [lo]]))
    unit = {"max_value": 1.0, "exclude_max": True}
    thetas = draw(st.lists(st.one_of(st.floats(1e-30, **unit), st.floats(0.01, **unit)),
                           min_size=2, max_size=12))
    thetas += draw(st.sampled_from([[], [0.0]]))
    etas, thetas = np.unique(etas), np.unique(thetas)
    assume(len(etas) >= 2 and len(thetas) >= 2)
    grid = grid_sweep(p, thetas, etas)
    variable = draw(st.sampled_from(["k_star", "c_star", "l_star", "y_star"]))
    log_z = np.log(grid.values(variable)[grid.mask == "ok"])
    assume(len(log_z))
    level = math.exp(log_z.min() + draw(st.floats(0.0, 1.0)) * (log_z.max() - log_z.min()))
    assume(0.0 < level < math.inf)
    return p, grid, variable, level


def subnormal_level_case():
    """A below-band grid whose k* at (1e-30, 0.84) is the subnormal
    3.9e-314, drawn as the level: no crossing through it is exact to 1e-12
    in log theta (it missed by 5.2e-12 with eps = 10.26)."""
    p = ModelParams(alpha=0.40644119180411004, beta=0.21894105397795988,
                    w=2.475751442906592, delta=0.07610907202728427, rho=0.5282976474771383)
    grid = grid_sweep(p, [1e-30, 0.5], [0.0, 0.83984375])
    return p, grid, "k_star", float(grid.k_star[0, 1])


@pytest.mark.parametrize("side", ["below", "above"])
@settings(max_examples=150, deadline=None)
@example(data=None, case=subnormal_level_case())
@given(data=st.data(), case=st.none())
def test_contour_vertices_at_the_closed_form_crossing(side, data, case):
    p, grid, variable, level = case or data.draw(model_contour(side))
    cont = iso_equilibrium_contour(grid, variable, level)
    for comp in cont.components:
        theta, eta = comp.T
        assert np.all(np.diff(eta) > 0) and np.all(np.isin(eta, grid.eta_axis))
        assert np.all(theta > 0.0)
        # A rounding u of log X* moves log theta_L by u/eps, so on a row
        # flatter than eps = 1 the bound holds in log X*, not in theta.
        eps = np.abs(p.alpha * eta / Coefficients(p, 1.0, eta).kx)
        miss = np.abs(np.log(theta / closed_form_crossing(p, variable, level, eta)))
        assert np.all(miss <= 1e-12 * np.maximum(1.0, 1.0 / eps))
    assert sum(len(c) for c in cont.components) == len(np.unique(
        np.concatenate([c[:, 1] for c in cont.components] or [[]])))


@pytest.mark.parametrize("side", ["below", "above"])
@settings(max_examples=100, deadline=None)
@example(data=None, case=subnormal_level_case())
@given(data=st.data(), case=st.none())
def test_contour_row_vertices_within_the_marching_squares_bracket(side, data, case):
    # Marching squares puts a vertex on every grid edge the level crosses,
    # interpolating z linearly; on an eta row that edge is the row's bracket
    # [theta_i, theta_i+1], and the exact row vertex must lie in it too.
    # Subnormal cells bracket no row crossing, so, like masked cells, they
    # reach marching squares as NaN.
    _, grid, variable, level = case or data.draw(model_contour(side))
    x, y, z = grid.theta_axis, grid.eta_axis, grid.values(variable)
    rows = {float(eta): theta for theta, eta in
            np.concatenate(iso_equilibrium_contour(grid, variable, level).components
                           or [np.empty((0, 2))])}
    z = np.where((z > 0.0) & (z < np.finfo(float).tiny), np.nan, z)
    for (kind, i, j), (theta, _) in (end for seg in marching_squares.crossing_segments(
            x, y, z, level) for end in seg):
        if kind == "h":
            assert x[i] <= rows[float(y[j])] <= x[i + 1]
            assert abs(rows[float(y[j])] - theta) <= x[i + 1] - x[i]


def test_contour_theta_zero_axis_never_brackets_a_crossing():
    grid = grid_sweep(BASE, np.linspace(0.0, 0.9, 10), np.linspace(0.6, 0.9, 7))
    assert np.all(grid.mask[0, :] == "degenerate")
    cont = iso_equilibrium_contour(grid, "c_star", 0.02)
    assert np.all(cont.points[:, 0] > 0.0)
    assert np.allclose(cont.points[:, 0], closed_form_crossing(BASE, "c_star", 0.02,
                                                               cont.points[:, 1]),
                       rtol=1e-12, atol=0.0)
    # a value at theta = 0 that straddles the level is not a crossing
    step = synthetic_grid(lambda t, e: 2.0 if t > 0 else 0.5, [0.0, 0.5, 0.9], [0.1, 0.2])
    assert iso_equilibrium_contour(step, "c_star", 1.0).components == ()


def test_contour_eta_zero_row_has_no_vertex():
    grid = grid_sweep(BASE, np.linspace(0.0, 0.9, 10), [0.0, 0.05, 0.1, 0.15])
    assert grid.mask[0, 0] == "ok"  # theta = 0 is a steady state at eta = 0
    level = float(grid.c_star[5, 2])
    cont = iso_equilibrium_contour(grid, "c_star", level)
    assert 0.0 not in cont.points[:, 1]
    assert len(cont.points) >= 2
    row0 = iso_equilibrium_contour(grid, "c_star", float(grid.c_star[0, 0]))
    assert 0.0 not in np.concatenate([c[:, 1] for c in row0.components] or [[]])


def test_contour_constant_r_star_and_nonpositive_levels_empty():
    grid = grid_sweep(BASE, np.linspace(0.05, 0.95, 10), np.linspace(0.0, 0.3, 7))
    r = float(grid.r_star[0, 0])
    for variable, level in [("r_star", r), ("r_star", 0.5 * r), ("r_star", 2.0 * r),
                            ("c_star", 0.0), ("c_star", -1.0), ("k_star", -0.0)]:
        cont = iso_equilibrium_contour(grid, variable, level)
        assert cont.components == ()
        assert cont.points.shape == (0, 2)


def test_contour_crossing_between_values_of_equal_log_is_the_lower_cell():
    # log(1e300) == log(nextafter(1e300)): the row still crosses, at its
    # lower cell, and not at a NaN vertex
    top = np.nextafter(1e300, np.inf)
    grid = synthetic_grid(lambda t, e: top if t > 0.3 else 1e300, [0.2, 0.4], [0.1, 0.2])
    assert iso_equilibrium_contour(grid, "c_star", 1e300).points.tolist() == [[0.2, 0.1],
                                                                             [0.2, 0.2]]


def test_contour_row_crossing_twice_refused():
    grid = synthetic_grid(lambda t, e: 3.0 if t == 0.5 and e == 0.2 else 1.0,
                          [0.1, 0.5, 0.9], [0.1, 0.2, 0.3])
    with pytest.raises(DomainError, match="crosses 2.0 more than once on the eta = 0.2 row"):
        iso_equilibrium_contour(grid, "c_star", 2.0)


# ---------------------------------------------------------------------------
# sensitivity signs

def test_sensitivity_signs_below_band():
    # In the decreasing-returns regime both elasticities raise k*: a larger
    # data share raises the profit coefficient, and with the inverted
    # exponent the capital stock rises with profit.
    rep = sensitivity_signs(BASE)
    assert rep.dk_deta.sign == 1
    assert rep.dk_dtheta.sign == 1
    assert rep.dc_deta.sign == 1


def test_sensitivity_signs_above_band():
    rep = sensitivity_signs(baseline_params(eta=0.8, theta=0.5))
    assert rep.dk_deta.sign == 1
    assert rep.dk_dtheta.sign == -1
    assert rep.dc_dtheta.sign == -1


def test_sensitivity_theta_irrelevant_at_eta0():
    rep = sensitivity_signs(baseline_params(eta=0.0))
    assert rep.dk_dtheta.sign == 0
    assert rep.dc_dtheta.sign == 0
    assert rep.dk_dtheta.value == 0.0
    assert rep.dc_dtheta.value == 0.0


def test_sensitivity_flanks_around_threshold():
    eta_star = float(threshold_curve(BASE, [0.5], (0.4, 0.95), 1e-5).eta_star[0])
    below = sensitivity_signs(baseline_params(theta=0.5, eta=eta_star - 0.02))
    above = sensitivity_signs(baseline_params(theta=0.5, eta=eta_star + 0.02))
    assert below.dc_deta.sign == 1
    assert above.dc_deta.sign == -1


def _difference(p, name, d, side):
    """Second-order difference of (k*, c*) in parameter ``name`` with step
    d: central (side 0), or one-sided forward (1) or backward (-1)."""
    x = getattr(p, name)

    def f(s):
        ss = steady_state(p.replace(**{name: x + s * d}))
        return np.array([ss.k_star, ss.c_star])

    if side == 0:
        return (f(1) - f(-1)) / (2 * d)
    return side * (4 * f(side) - f(2 * side) - 3 * f(0)) / (2 * d)


def fd_reference(p, name, h=1e-3):
    """Reference d(k*, c*)/d(name) from differences of steady_state, and
    the bound its rounding puts on it.

    The step is d = h max(|x|, 1e-3), and Richardson extrapolation
    (4 D(d/2) - D(d)) / 3 cancels the d^2 error term.  The stencil is
    central where x +- d stays in the parameter domain and one-sided into
    it at the edges (eta = 0, theta = 1).  Its weights sum to at most 12/d,
    and k* and c* are correct to about 1e-13 of k* and y* (c* = y* - delta k*),
    so rounding moves the result by at most 12e-13 (k*, y*) / d: below that
    a derivative is not resolved.
    """
    x = getattr(p, name)
    d = h * max(abs(x), 1e-3)
    top = 1.0 if name == "theta" else math.nextafter(1.0, 0.0)
    side = 1 if x - d < 0.0 else -1 if x + d > top else 0
    ss = steady_state(p)
    return ((4 * _difference(p, name, d / 2, side) - _difference(p, name, d, side)) / 3,
            12e-13 * np.array([ss.k_star, ss.y_star]) / d)


def assert_matches_reference(rep, p, h=1e-3, rel=1e-5):
    """Every analytic derivative within ``rel`` of fd_reference plus its
    rounding bound, and of its sign wherever the reference resolves one."""
    (dk_deta, dc_deta), noise_eta = fd_reference(p, "eta", h)
    (dk_dtheta, dc_dtheta), noise_theta = fd_reference(p, "theta", h)
    for got, ref, noise in ((rep.dk_deta, dk_deta, noise_eta[0]),
                            (rep.dc_deta, dc_deta, noise_eta[1]),
                            (rep.dk_dtheta, dk_dtheta, noise_theta[0]),
                            (rep.dc_dtheta, dc_dtheta, noise_theta[1])):
        assert abs(got.value - ref) <= rel * abs(ref) + noise, (got, ref, noise)
        if abs(ref) > noise:
            assert got.sign == np.sign(ref)


def test_sensitivity_near_eta_one_matches_reference():
    # a central stencil of relative step 1e-4 would reach eta >= 1
    p = baseline_params(eta=0.99995)
    rep = sensitivity_signs(p)
    assert (rep.dk_deta.sign, rep.dk_dtheta.sign, rep.dc_deta.sign,
            rep.dc_dtheta.sign) == (1, -1, -1, -1)
    assert_matches_reference(rep, p)


def test_sensitivity_near_band_edge_matches_reference():
    # close enough to the singular band that a stencil of relative step
    # 0.02 would reach into it; the reference's relative step 1e-4 does not
    p = baseline_params(eta=0.2995, theta=0.5)
    rep = sensitivity_signs(p)
    assert (rep.dk_deta.sign, rep.dk_dtheta.sign, rep.dc_deta.sign,
            rep.dc_dtheta.sign) == (1, 1, 1, 1)
    assert_matches_reference(rep, p, h=1e-4)


@pytest.mark.parametrize("name, edge", [("eta", 0.0), ("theta", 1.0)])
def test_sensitivity_at_domain_edge_matches_one_sided_difference(name, edge):
    # only a one-sided difference stays in the domain here (a clipped
    # central stencil divided by its full width reads half of it)
    p = BASE.replace(**{name: edge})
    rep = sensitivity_signs(p)
    d = 1e-5
    dk, dc = _difference(p, name, d, 1 if edge == 0.0 else -1)
    assert getattr(rep, f"dk_d{name}").value == pytest.approx(dk, rel=1e-5, abs=0.0)
    assert getattr(rep, f"dc_d{name}").value == pytest.approx(dc, rel=1e-5, abs=0.0)


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_sensitivity_refuses_theta0(eta):
    # at eta = 0 the eta step meets log 0; at eta > 0 there is no data
    with pytest.raises(DomainError):
        sensitivity_signs(baseline_params(theta=0.0, eta=eta))


@given(model_params(feasible=True, margin=0.05))
def test_sensitivity_matches_richardson_reference(p):
    assert_matches_reference(sensitivity_signs(p), p)


# d(k*, c*)/d(eta, theta) as (dk_deta, dk_dtheta, dc_deta, dc_dtheta), read
# from complex-step evaluations (h = 1e-20) of the steady state as it was
# computed through the profit coefficient, before the closed form.
COMPLEX_STEP_TABLE = {
    (0.5, 0.2): (175525.43644146025, 10147.32997151471, 24066.194603228614, 1420.6261960120542),
    (0.15, 0.06): (529.4065888466779, 107.25595167133255, 74.24072575800349, 17.268208219084524),
    (0.9, 0.29): (167159862129678.5, 2097248912117.6433, 21103415986521.816, 265301987382.88016),
    (0.5, 0.2995): (1680965645696606.5, 37161832452579.125, 209931926216141.1, 4648016194006.3),
    (0.5, 0.8): (2.9655942230977286, -2.162409737257166, 0.053674285149885405, -0.10812048686285818),
    (0.3, 0.6): (4.546293783770192, -3.121086933345678, 0.301281764034702, -0.24968695466765456),
    (0.7, 0.95): (2.1349855231315393, -1.441474169446677, -0.039535742820905787, -0.03964053965978373),
    (1.0, 0.4): (1.636798441236138e-05, -3.798565738867865e-07, 1.7909818710125908e-06,
                 -4.17842231275467e-08),
    (0.5, 0.0): (438.7273713201609, 0.0, 66.90365312442732, 0.0),
}
DERIVATIVES = ("dk_deta", "dk_dtheta", "dc_deta", "dc_dtheta")


@pytest.mark.parametrize("theta, eta", list(COMPLEX_STEP_TABLE))
def test_sensitivity_matches_complex_step_table(theta, eta):
    rep = sensitivity_signs(BASE.replace(theta=theta, eta=eta))
    for name, want in zip(DERIVATIVES, COMPLEX_STEP_TABLE[theta, eta]):
        assert getattr(rep, name).value == pytest.approx(want, rel=1e-12, abs=0.0), name


def derivative_bound(p):
    """Rounding bound of each analytic derivative: the relative error of k*,
    eps (1 + |log k*|)/|kx|, times the sum of the magnitudes of the terms
    that make up each derivative, plus the oracle's own resolution (70
    digits over a step of 1e-20: below 1e-45 of k* or y*)."""
    rep = sensitivity_signs(p)
    ss = steady_state(p)
    k, rd, eps = ss.k_star, p.rho + p.delta, 2.0 ** -52
    yk = rd * (1.0 - p.alpha * p.eta) / p.alpha
    abs_kx = abs(kx(p))
    rel = 16 * eps * (1.0 + abs(math.log(k))) / abs_kx
    k_eta = k * p.alpha * (abs(math.log(yk)) + abs(math.log(p.theta)) + 1.0
                           + abs(math.log(k))) / abs_kx
    k_theta = abs(rep.dk_dtheta.value)
    k_noise, c_noise = 1e-45 * k, 1e-45 * ss.y_star
    return rep, {"dk_deta": rel * k_eta + k_noise, "dk_dtheta": rel * k_theta + k_noise,
                 "dc_deta": rel * (yk * k_eta + rd * k) + c_noise,
                 "dc_dtheta": rel * yk * k_theta + c_noise}


@given(model_params(feasible=True, margin=0.05))
def test_sensitivity_matches_decimal_central_differences(p):
    rep, bounds = derivative_bound(p)
    oracle = decimal_oracle.sensitivities(p)
    for name in DERIVATIVES:
        got, want = getattr(rep, name).value, float(oracle[name])
        assert abs(got - want) <= bounds[name], (name, got, want, bounds[name])

