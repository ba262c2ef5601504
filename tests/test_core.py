import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataecon import (DomainError, ModelParams, RegimeError, baseline_params,
                      grid_sweep, interest_rate, output, rhs, steady_state,
                      validate_params)
from dataecon.core import steady_states

from . import decimal_oracle
from .strategies import kx, model_params

BASE = baseline_params()
EPS = 2.0 ** -52


# ---------------------------------------------------------------------------
# Independent oracles: the paper's equations written with plain floats

def data_volume(y, theta):
    """Data produced from output: d = theta*y."""
    if y < 0.0:
        raise DomainError(f"output must be nonnegative, got {y}")
    return theta * y


def technology(d, eta):
    """Technology level from data: z = d^eta; 0^0 is left undefined (the
    eta = 0 reduction uses z = 1)."""
    if d < 0.0 or (d == 0.0 and eta == 0.0):
        raise DomainError(f"technology is undefined at d={d}, eta={eta}")
    return d ** eta


def fixed_point_closed_form(k, l, p):
    """y solving y = ((theta y)^eta k)^alpha l^beta, by plain powers."""
    om = 1.0 - p.alpha * p.eta
    return p.theta ** (p.alpha * p.eta / om) * k ** (p.alpha / om) * l ** (p.beta / om)


def labor_demand(k, p):
    """Labor at the first-order condition w = dy/dl = (beta/(1-ae)) y/l of
    the fixed-point output, solved for l."""
    ae = p.alpha * p.eta
    om, den = 1.0 - ae, 1.0 - p.beta - ae
    return ((p.beta / (om * p.w)) * p.theta ** (ae / om) * k ** (p.alpha / om)) ** (om / den)


def reduced_output(k, p):
    """Output at the labor optimum, y(k, l*(k))."""
    return fixed_point_closed_form(k, labor_demand(k, p), p)


def profit_coefficient(p):
    """Maximized profit at unit capital, y(1, l*(1)) - w l*(1)."""
    l1 = labor_demand(1.0, p)
    return fixed_point_closed_form(1.0, l1, p) - p.w * l1


def textbook_eta0(alpha, beta, w, delta, rho):
    """Cobb-Douglas closed forms with eta = 0, written with plain powers."""
    pi0 = (1.0 - beta) * (beta / w) ** (beta / (1.0 - beta))
    k = ((rho + delta) * (1.0 - beta) / (alpha * pi0)) ** ((1.0 - beta) / (alpha + beta - 1.0))
    l = (beta * k ** alpha / w) ** (1.0 / (1.0 - beta))
    y = k ** alpha * l ** beta
    return {"k": k, "c": y - delta * k, "l": l, "y": y, "pi": pi0}


def fixed_point_output(k, l, theta, eta, alpha, beta, tol=1e-14):
    """Iterate y <- ((theta y)^eta k)^alpha l^beta to convergence."""
    y = 1.0
    for _ in range(10_000):
        y_new = ((theta * y) ** eta * k) ** alpha * l ** beta
        if abs(y_new - y) <= tol * max(abs(y_new), 1.0):
            return y_new
        y = y_new
    raise AssertionError("fixed-point iteration did not converge")


def bisect_rate(p, target, lo, hi, tol=1e-12):
    f = lambda k: interest_rate(k, p) - target
    assert f(lo) * f(hi) < 0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# data_volume / technology

def test_data_volume_examples():
    assert data_volume(2.0, 1.0) == 2.0
    assert data_volume(2.0, 0.5) == 1.0
    assert data_volume(0.0, 0.7) == 0.0
    with pytest.raises(DomainError):
        data_volume(-1.0, 0.5)


def test_technology_examples():
    assert technology(1.0, 0.5) == 1.0
    assert technology(4.0, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert technology(0.673, 0.5) == pytest.approx(0.82037, abs=1e-5)
    assert technology(0.0, 0.3) == 0.0
    with pytest.raises(DomainError):
        technology(0.0, 0.0)
    with pytest.raises(DomainError):
        technology(-0.1, 0.5)


def test_technology_cross_check_with_output_fixed_point():
    # z = (theta y)^eta evaluated at the reduced-form y closes the loop
    p = validate_params({"eta": 0.5, "theta": 0.5})
    y = output(1.0, 1.0, p)
    d = data_volume(y, p.theta)
    z = technology(d, p.eta)
    assert (z * 1.0) ** p.alpha * 1.0 ** p.beta == pytest.approx(y, rel=1e-12)


# ---------------------------------------------------------------------------
# output

def test_output_unit_inputs():
    for eta in (0.1, 0.5, 0.9):
        p = validate_params({"eta": eta, "theta": 1.0})
        assert output(1.0, 1.0, p) == pytest.approx(1.0, rel=1e-14)


def test_output_eta0_collapses_to_cobb_douglas():
    for theta in (0.1, 0.5, 0.9):
        p = validate_params({"eta": 0.0, "theta": theta})
        assert output(1.0, 1.0, p) == pytest.approx(1.0, rel=1e-14)
        assert output(2.0, 3.0, p) == pytest.approx(2.0 ** 0.6 * 3.0 ** 0.2, rel=1e-14)


def test_output_example_against_fixed_point_oracle():
    p = validate_params({"eta": 0.5, "theta": 0.5})
    y = output(2.0, 1.0, p)
    assert y == pytest.approx(1.3460, abs=1e-4)
    assert y == pytest.approx(fixed_point_output(2.0, 1.0, 0.5, 0.5, 0.6, 0.2),
                              rel=1e-12)


def test_output_domain_errors():
    with pytest.raises(DomainError):
        output(0.0, 1.0, BASE)
    with pytest.raises(DomainError):
        output(1.0, -1.0, BASE)
    with pytest.raises(DomainError):
        output(1.0, 1.0, validate_params({"eta": 0.5, "theta": 0.0}))


@given(model_params(nonsingular=False),
       st.floats(0.1, 50.0), st.floats(0.1, 50.0))
def test_output_fixed_point_property(p, k, l):
    y = output(k, l, p)
    implied = ((p.theta * y) ** p.eta * k) ** p.alpha * l ** p.beta
    assert abs(y - implied) / y < 1e-10


# ---------------------------------------------------------------------------
# labor_demand

def test_labor_demand_eta0_closed_form():
    p = validate_params({"eta": 0.0})
    assert labor_demand(1.0, p) == pytest.approx(0.2 ** 1.25, rel=1e-12)
    assert labor_demand(1.0, p) == pytest.approx(0.13375, abs=1e-5)
    assert labor_demand(51.199, p) == pytest.approx(2.560, abs=1e-3)


def test_labor_demand_singular_regime_refused():
    # labor demand itself is regular at kx = 0; the closed forms built on it
    # (r(k) and the steady state) are refused there
    p = validate_params({"eta": 1.0 / 3.0})
    assert math.isfinite(labor_demand(1.0, p))
    with pytest.raises(RegimeError):
        interest_rate(1.0, p)
    with pytest.raises(RegimeError):
        steady_state(p)


@given(model_params(), st.floats(0.1, 100.0))
def test_labor_foc_marginal_product_equals_wage(p, k):
    l_opt = labor_demand(k, p)
    h = 1e-6 * l_opt
    mpl = central_diff(lambda l: output(k, l, p), l_opt, h)
    assert mpl == pytest.approx(p.w, rel=1e-6)


# ---------------------------------------------------------------------------
# profit_coefficient

def test_profit_coefficient_eta0_reduction():
    p = validate_params({"eta": 0.0})
    expected = (1.0 - p.beta) * (p.beta / p.w) ** (p.beta / (1.0 - p.beta))
    assert profit_coefficient(p) == pytest.approx(expected, rel=1e-12)
    assert profit_coefficient(p) == pytest.approx(0.53499, abs=1e-5)


def test_profit_coefficient_is_unit_capital_profit():
    # r(k) is the derivative of profit pi k^(alpha/den), so r(1) = (alpha/den) pi
    p = BASE
    l1 = labor_demand(1.0, p)
    profit = output(1.0, l1, p) - p.w * l1
    den = 1.0 - p.beta - p.alpha * p.eta
    assert profit == pytest.approx(profit_coefficient(p), rel=1e-12)
    assert interest_rate(1.0, p) == pytest.approx(p.alpha / den * profit, rel=1e-8)


@given(model_params())
def test_profit_coefficient_matches_unit_profit_everywhere(p):
    # the unit-capital profit equals its closed form
    # theta^(ae/den) ((1-ae) w/beta)^(-beta/den) den/(1-ae), positive wherever den > 0
    ae = p.alpha * p.eta
    om, den = 1.0 - ae, 1.0 - p.beta - ae
    l1 = labor_demand(1.0, p)
    profit = output(1.0, l1, p) - p.w * l1
    closed = p.theta ** (ae / den) * (om * p.w / p.beta) ** (-p.beta / den) * den / om
    assert profit == pytest.approx(closed, rel=1e-7)
    assert profit > 0.0
    assert interest_rate(1.0, p) == pytest.approx(p.alpha / den * profit, rel=1e-7)


# ---------------------------------------------------------------------------
# interest_rate

def test_interest_rate_eta0_values():
    p = validate_params({"eta": 0.0})
    assert interest_rate(1.0, p) == pytest.approx(0.75 * profit_coefficient(p), rel=1e-12)
    assert interest_rate(1.0, p) == pytest.approx(0.40125, abs=1e-5)
    assert interest_rate(51.199, p) == pytest.approx(0.15, abs=1e-4)


def test_interest_rate_bisection_oracle():
    p = validate_params({"eta": 0.0})
    k_root = bisect_rate(p, p.rho + p.delta, 1.0, 500.0)
    assert k_root == pytest.approx(51.2, rel=1e-9)
    assert steady_state(p).k_star == pytest.approx(k_root, rel=1e-9)


def test_interest_rate_at_k_star_is_rho_plus_delta():
    for record in ({"eta": 0.2, "theta": 0.5}, {"eta": 0.1, "theta": 0.9},
                   {"eta": 0.6, "theta": 0.3}):
        p = validate_params(record)
        ss = steady_state(p)
        assert interest_rate(ss.k_star, p) == pytest.approx(0.15, abs=1e-12)


@given(model_params(), st.floats(0.5, 20.0))
def test_interest_rate_is_profit_derivative(p, k):
    profit = lambda kk: reduced_output(kk, p) - p.w * labor_demand(kk, p)
    fd = central_diff(profit, k, 1e-6 * k)
    assert interest_rate(k, p) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------------------
# steady_state

def test_steady_state_eta0_anchor():
    p = validate_params({"eta": 0.0})
    ss = steady_state(p)
    assert ss.k_star == pytest.approx(51.199, abs=0.01)
    assert ss.c_star == pytest.approx(8.706, abs=0.01)
    oracle = textbook_eta0(p.alpha, p.beta, p.w, p.delta, p.rho)
    assert ss.k_star == pytest.approx(oracle["k"], rel=1e-8)
    assert ss.c_star == pytest.approx(oracle["c"], rel=1e-8)
    assert ss.l_star == pytest.approx(oracle["l"], rel=1e-8)
    assert ss.y_star == pytest.approx(oracle["y"], rel=1e-8)
    assert ss.r_star == p.rho + p.delta
    assert ss.feasible


def test_theta_irrelevance_at_eta0():
    a = steady_state(validate_params({"eta": 0.0, "theta": 0.3}))
    b = steady_state(validate_params({"eta": 0.0, "theta": 0.9}))
    assert a == b  # bitwise: theta enters only through theta^0


def test_steady_state_zeroes_dynamics():
    for record in ({"eta": 0.2, "theta": 0.5}, {"eta": 0.05, "theta": 0.2},
                   {"eta": 0.7, "theta": 0.8}):
        p = validate_params(record)
        ss = steady_state(p)
        c_dot, k_dot = rhs((ss.c_star, ss.k_star), p)
        assert abs(c_dot) / ss.c_star < 1e-8
        assert abs(k_dot) / max(ss.y_star, 1.0) < 1e-8


def test_steady_state_singular_refused():
    with pytest.raises(RegimeError):
        steady_state(validate_params({"eta": 1.0 / 3.0}))


def test_steady_state_capital_underflow_refused():
    # k* = (r den / (alpha pi))^(den/kx) underflows to 0 for a tiny rho + delta
    p = validate_params({"alpha": 0.9, "beta": 0.1, "eta": 0.05,
                         "rho": 1e-20, "delta": 1e-20})
    with pytest.raises(DomainError, match="capital must be positive, got 0.0"):
        steady_state(p)


@given(model_params(feasible=True))
def test_steady_state_rate_residual_property(p):
    ss = steady_state(p)
    assert abs(interest_rate(ss.k_star, p) - (p.rho + p.delta)) \
        <= 1e-10 * (p.rho + p.delta)


@given(model_params(feasible=True))
def test_steady_state_accounting_identity(p):
    ss = steady_state(p)
    assert ss.c_star == pytest.approx(ss.y_star - p.delta * ss.k_star, rel=1e-12)
    assert ss.l_star == pytest.approx(labor_demand(ss.k_star, p), rel=1e-12)
    assert ss.y_star == pytest.approx(reduced_output(ss.k_star, p), rel=1e-12)


def test_eta0_module_agreement_with_textbook_path():
    for alpha, beta, w, delta, rho in ((0.6, 0.2, 1.0, 0.08, 0.07),
                                       (0.3, 0.5, 2.0, 0.05, 0.03),
                                       (0.4, 0.4, 0.7, 0.10, 0.04)):
        p = validate_params({"alpha": alpha, "beta": beta, "w": w,
                             "delta": delta, "rho": rho, "eta": 0.0})
        oracle = textbook_eta0(alpha, beta, w, delta, rho)
        ss = steady_state(p)
        assert profit_coefficient(p) == pytest.approx(oracle["pi"], rel=1e-8)
        assert interest_rate(1.0, p) == pytest.approx(
            alpha / (1.0 - beta) * oracle["pi"], rel=1e-8)
        assert ss.k_star == pytest.approx(oracle["k"], rel=1e-8)
        assert ss.c_star == pytest.approx(oracle["c"], rel=1e-8)
        assert ss.l_star == pytest.approx(oracle["l"], rel=1e-8)
        assert labor_demand(1.0, p) == pytest.approx(
            (beta / w) ** (1.0 / (1.0 - beta)), rel=1e-8)


# ---------------------------------------------------------------------------
# the log-linear kernel against the 70-digit decimal oracle

def relative_bound(ss, p):
    """Relative rounding bound of each steady-state quantity: log k* =
    N/kx carries about eps (1 + |log k*|)/|kx| of error, and c* = k*(y*/k*
    - delta) adds the cancellation of its ratio, eps y*/c*."""
    k_bound = 16 * EPS * (1.0 + abs(math.log(ss.k_star))) / abs(kx(p))
    return {"k_star": k_bound, "l_star": k_bound, "y_star": k_bound,
            "c_star": k_bound + 16 * EPS * ss.y_star / ss.c_star}


def assert_matches_decimal(ss, p):
    oracle = decimal_oracle.steady_state(p)
    for name, bound in relative_bound(ss, p).items():
        ref = float(oracle[name])
        assert abs(getattr(ss, name) - ref) <= bound * abs(ref), (name, getattr(ss, name), ref)


@given(model_params(feasible=True))
def test_steady_state_matches_decimal_oracle(p):
    assert_matches_decimal(steady_state(p), p)


def test_eta0_textbook_values_to_1e12():
    ss = steady_state(validate_params({"eta": 0.0}))
    for got, want in ((ss.k_star, 51.2), (ss.c_star, 8.704), (ss.l_star, 2.56),
                      (ss.y_star, 12.8)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# Cells where den = 1 - beta - alpha*eta is about 1e-3: the profit
# coefficient, a difference of two exponentials, was subnormal or rounded to
# 0 there, so k* overflowed ("infeasible") or the cell was refused
# ("degenerate"), although log k* is moderate and c* > 0.
LOST_CELLS = [
    # infeasible before: log k* = 47.78, c*/k* = 1.10
    dict(alpha=0.1133, beta=0.8844, w=246.9, theta=0.157, eta=0.959),
    # degenerate before (profit coefficient not positive): k* = 2.46e5
    dict(alpha=0.1356, beta=0.8643, w=6.156, theta=0.5, eta=0.99),
    # infeasible before: k* = 8.74e9
    dict(alpha=0.2081, beta=0.7918, w=316.1, theta=0.75, eta=0.97),
]


@pytest.mark.parametrize("cell", LOST_CELLS)
def test_feasible_cells_near_den_zero_are_kept(cell):
    p = ModelParams(**cell)
    ss = steady_state(p)
    assert ss.feasible
    assert_matches_decimal(ss, p)
    thetas, etas = np.linspace(0.0, p.theta, 5), np.linspace(0.0, p.eta, 5)
    grid = grid_sweep(p, thetas, etas)
    assert grid.mask[-1, -1] == "ok"
    for name in ("k_star", "c_star", "l_star", "y_star", "r_star"):
        assert getattr(grid, name)[-1, -1] == getattr(ss, name)


@pytest.mark.parametrize("theta, eta", [(0.5 + 1e-20j, 0.2), (0.5, 0.2 + 1e-20j),
                                        (np.array([0.5 + 0j]), 0.2)])
def test_steady_states_refuses_complex_inputs(theta, eta):
    # numpy would drop the imaginary part with a ComplexWarning, and a
    # complex step would read zero derivatives
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be real"):
            steady_states(BASE, theta, eta)
