import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataecon import (DomainError, RegimeError, baseline_params, data_volume,
                      interest_rate, labor_demand, output, profit_coefficient,
                      reduced_output, rhs, steady_state, technology,
                      validate_params)

from .strategies import model_params

BASE = baseline_params()


# ---------------------------------------------------------------------------
# Independent oracles

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
    with pytest.raises(RegimeError):
        labor_demand(1.0, validate_params({"eta": 1.0 / 3.0}))


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
    p = BASE
    l1 = labor_demand(1.0, p)
    oracle = output(1.0, l1, p) - p.w * l1
    assert profit_coefficient(p) == pytest.approx(oracle, rel=1e-8)


@given(model_params())
def test_profit_coefficient_matches_unit_profit_everywhere(p):
    l1 = labor_demand(1.0, p)
    oracle = output(1.0, l1, p) - p.w * l1
    assert profit_coefficient(p) == pytest.approx(oracle, rel=1e-7)
    assert profit_coefficient(p) > 0.0


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
    den = 1.0 - p.beta - p.alpha * p.eta
    profit = lambda kk: profit_coefficient(p) * kk ** (p.alpha / den)
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
        assert ss.k_star == pytest.approx(oracle["k"], rel=1e-8)
        assert ss.c_star == pytest.approx(oracle["c"], rel=1e-8)
        assert labor_demand(1.0, p) == pytest.approx(
            (beta / w) ** (1.0 / (1.0 - beta)), rel=1e-8)
