import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats

from dataecon import (DegenerateError, DomainError, ModelParams, RegimeError,
                      SearchError, SweepGrid, band_free_intervals,
                      baseline_params, consumption_threshold,
                      default_eta_range, golden_section_max, grid_sweep,
                      interest_rate, iso_equilibrium_contour, regime, rhs,
                      sensitivity_signs, steady_state, threshold_curve,
                      validate_params)

BASE = baseline_params()


def synthetic_grid(f, thetas, etas) -> SweepGrid:
    """Grid whose c_star / k_star equal an arbitrary field, for seam tests."""
    v = np.array([[f(t, e) for e in etas] for t in thetas], dtype=float)
    return SweepGrid(np.asarray(thetas, float), np.asarray(etas, float),
                     k_star=v, c_star=v, l_star=np.ones_like(v),
                     y_star=np.ones_like(v), r_star=np.full_like(v, 0.15),
                     mask=np.full(v.shape, "ok", dtype="<U10"), base=BASE)


# ---------------------------------------------------------------------------
# grid_sweep

def test_single_cell_grid_equals_steady_state():
    grid = grid_sweep(BASE, [0.5], [0.2])
    assert grid.mask[0, 0] == "ok"
    assert grid.cells[0][0] == steady_state(validate_params({"theta": 0.5, "eta": 0.2}))


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
    assert grid.cells[0][0] is None
    assert math.isnan(grid.values("k_star")[0, 0])


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
        assert single.cells[0][0] == grid.cells[i][j]


def test_unmasked_cells_satisfy_equilibrium_conditions():
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 5), np.linspace(0.0, 0.9, 7))
    target = BASE.rho + BASE.delta
    for i, theta in enumerate(grid.theta_axis):
        for j, eta in enumerate(grid.eta_axis):
            ss = grid.cells[i][j]
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
            assert (mask == "singular") == regime(p).singular, (theta, eta)
            assert grid.cells[i][j] == ss, (theta, eta)  # exact on 'ok' cells


def test_axis_validation():
    with pytest.raises(DomainError):
        grid_sweep(BASE, [0.5, 0.3], [0.2])     # unsorted
    with pytest.raises(DomainError):
        grid_sweep(BASE, [0.5, 0.5], [0.2])     # duplicated
    with pytest.raises(DomainError):
        grid_sweep(BASE, [1.0], [0.2])          # theta = 1 outside [0, 1)
    with pytest.raises(DomainError):
        grid_sweep(BASE, [-0.1], [0.2])


# ---------------------------------------------------------------------------
# threshold search

def test_golden_section_on_parabola():
    for peak in (0.21, 0.5, 0.777):
        x, fx = golden_section_max(lambda x: -(x - peak) ** 2, 0.0, 1.0, 1e-6)
        assert abs(x - peak) < 1e-6
        assert fx <= 0.0


def test_golden_section_empty_interval():
    with pytest.raises(DomainError):
        golden_section_max(lambda x: x, 1.0, 1.0, 1e-6)


def test_threshold_matches_brute_force():
    tol = 1e-4
    lo, hi = 0.4, 0.95
    res = consumption_threshold(BASE, 0.3, (lo, hi), tol)[0]
    etas = np.linspace(lo, hi, 10_000)
    cs = [steady_state(BASE.replace(theta=0.3, eta=float(e))).c_star for e in etas]
    brute = etas[int(np.argmax(cs))]
    assert abs(res.eta_star - brute) <= 2.0 * tol
    assert res.c_star_max >= max(cs) - 1e-9
    assert res.shape == "interior-peak"


def test_threshold_monotone_theta_pair():
    tol = 1e-4
    lo = consumption_threshold(BASE, 0.3, (0.4, 0.95), tol)[0]
    hi = consumption_threshold(BASE, 0.7, (0.4, 0.95), tol)[0]
    assert lo.eta_star <= hi.eta_star + tol


def test_threshold_splits_around_band():
    results = consumption_threshold(BASE, 0.5, (0.05, 0.95), 1e-4)
    assert len(results) == 2
    left, right = results
    assert left.eta_range[1] <= 0.31
    assert right.eta_range[0] >= 0.36
    # left side rises into the band edge: boundary maximum
    assert left.shape == "monotone-on-range"
    assert right.shape == "interior-peak"


def test_threshold_all_infeasible_raises():
    # heavy depreciation: c* < 0 for every eta above ~0.7
    p = baseline_params(delta=0.8, rho=0.01)
    with pytest.raises(SearchError):
        consumption_threshold(p, 0.9, (0.75, 0.95), 1e-4)


def test_threshold_inverted_u_flanks():
    res = consumption_threshold(BASE, 0.3, (0.4, 0.95), 1e-5)[0]
    f = lambda e: steady_state(BASE.replace(theta=0.3, eta=e)).c_star
    h = 0.01
    assert f(res.eta_star - h) > f(res.eta_star - 2 * h)   # rising below
    assert f(res.eta_star + 2 * h) < f(res.eta_star + h)   # falling above


def test_threshold_curve_default_range_is_band_free():
    rng = default_eta_range(BASE)
    assert len(band_free_intervals(BASE, rng)) == 1
    curve = threshold_curve(BASE, [0.2, 0.5, 0.8], tol=1e-4)
    assert np.all(np.diff(curve.eta_star) >= -1e-4)
    assert all(s == "interior-peak" for s in curve.shapes)


def test_threshold_curve_rejects_straddling_range():
    with pytest.raises(DomainError):
        threshold_curve(BASE, [0.5], (0.05, 0.95))


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
    grid = synthetic_grid(lambda t, e: t + e, np.linspace(0.0, 0.9, 10),
                          np.linspace(0.0, 0.9, 10))
    cont = iso_equilibrium_contour(grid, "c_star", 1.0)
    assert len(cont.components) == 1
    pts = cont.points
    assert len(pts) >= 9
    assert np.allclose(pts[:, 0] + pts[:, 1], 1.0, atol=1e-12)
    # ordered along the curve: theta strictly monotone
    d = np.diff(pts[:, 0])
    assert np.all(d > 0) or np.all(d < 0)


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
    assert len(cont.points) >= 10
    z = grid.values("c_star")
    tx, ey = grid.theta_axis, grid.eta_axis
    for th, et in cont.points:
        # every vertex sits on a cell edge; linear interpolation along that
        # edge must reproduce the level
        on_x = np.isclose(tx, th, atol=1e-12).any()
        if on_x:
            i = int(np.argmin(np.abs(tx - th)))
            j = int(np.clip(np.searchsorted(ey, et) - 1, 0, len(ey) - 2))
            v = np.interp(et, [ey[j], ey[j + 1]], [z[i, j], z[i, j + 1]])
        else:
            j = int(np.argmin(np.abs(ey - et)))
            i = int(np.clip(np.searchsorted(tx, th) - 1, 0, len(tx) - 2))
            v = np.interp(th, [tx[i], tx[i + 1]], [z[i, j], z[i + 1, j]])
        assert abs(v - level) <= 1e-3 * level


def test_contour_positive_comovement_high_eta():
    grid = grid_sweep(BASE, np.linspace(0.05, 0.95, 46), np.linspace(0.60, 0.95, 36))
    cont = iso_equilibrium_contour(grid, "c_star", 0.02)
    rho = stats.spearmanr(cont.points[:, 0], cont.points[:, 1]).statistic
    assert rho > 0.0


def test_contour_level_outside_range_empty():
    grid = grid_sweep(BASE, np.linspace(0.1, 0.9, 6), np.linspace(0.6, 0.9, 6))
    cont = iso_equilibrium_contour(grid, "c_star", 1e9)
    assert len(cont.points) == 0


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


def test_sensitivity_flanks_around_threshold():
    res = consumption_threshold(BASE, 0.5, (0.4, 0.95), 1e-5)[0]
    below = sensitivity_signs(baseline_params(theta=0.5, eta=res.eta_star - 0.02))
    above = sensitivity_signs(baseline_params(theta=0.5, eta=res.eta_star + 0.02))
    assert below.dc_deta.sign == 1
    assert above.dc_deta.sign == -1


def test_sensitivity_step_shrink_keeps_eta_below_one():
    # the first eta step would reach eta >= 1, outside the parameter domain
    p = baseline_params(eta=0.99995)
    rep = sensitivity_signs(p)
    assert rep.step < 1e-4
    d_eta = rep.step * p.eta
    plus, minus = (steady_state(p.replace(eta=p.eta + s * d_eta)) for s in (1, -1))
    assert rep.dk_deta.value == (plus.k_star - minus.k_star) / (2 * d_eta)
    assert rep.dc_deta.value == (plus.c_star - minus.c_star) / (2 * d_eta)


def test_sensitivity_step_shrink_near_band_edge():
    # close enough to the singular band that the first stencil fails
    p = baseline_params(eta=0.2995, theta=0.5)
    rep = sensitivity_signs(p, h=0.02)
    assert rep.step < 0.02
    assert rep.dk_deta.sign == 1
