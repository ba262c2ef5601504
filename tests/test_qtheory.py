import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dataecon import (DegenerateError, QState, RegimeError, baseline_params,
                      firm_steady_state, interest_rate, investment_rate,
                      k_of_q, q_dot, steady_state, validate_params)

from .strategies import model_params

BASE = baseline_params()


def test_investment_rate_examples():
    assert investment_rate(1.0, BASE) == BASE.delta == 0.08
    assert investment_rate(1.0 + BASE.a * 0.01, BASE) == pytest.approx(
        BASE.delta + 0.01, rel=1e-12)
    assert investment_rate(1.0 - BASE.a * BASE.delta, BASE) == pytest.approx(
        0.0, abs=1e-15)


def test_capital_growth_identity():
    # k_dot/k = i/k - delta = (q - 1)/a
    for q in (0.5, 1.0, 1.3, 2.0):
        assert investment_rate(q, BASE) - BASE.delta == pytest.approx(
            (q - 1.0) / BASE.a, rel=1e-14, abs=1e-16)


def test_q_dot_zero_at_steady_pair():
    ss = steady_state(BASE)
    assert q_dot(QState(1.0, ss.k_star), BASE.rho, BASE) == pytest.approx(
        0.0, abs=1e-12)


def test_q_dot_sign_for_larger_capital():
    # decreasing returns: MPK falls below r + delta when k rises above k*
    ss = steady_state(BASE)
    assert q_dot(QState(1.0, 2.0 * ss.k_star), BASE.rho, BASE) > 0.0


def test_q_dot_quadratic_term_vanishes_at_q1():
    # the adjustment terms vanish at q = 1, so the adjustment coefficient drops out
    a_small = BASE.replace(a=0.5)
    a_large = BASE.replace(a=10.0)
    assert q_dot(QState(1.0, 10.0), 0.07, a_small) == pytest.approx(
        q_dot(QState(1.0, 10.0), 0.07, a_large), rel=1e-12)


def test_k_of_q_eta0_anchor():
    p = validate_params({"eta": 0.0})
    assert k_of_q(1.0, 0.07, p) == pytest.approx(51.199, abs=0.01)


def test_k_of_q_q1_solves_mpk_condition():
    for r in (0.03, 0.07, 0.12):
        k = k_of_q(1.0, r, BASE)
        assert interest_rate(k, BASE) == pytest.approx(r + BASE.delta, rel=1e-10)


@given(st.floats(0.5, 2.0))
def test_q_dot_vanishes_on_k_of_q(q):
    # adjustment coefficient large enough that the whole q grid admits a
    # steady capital (at a=2 the bracket turns negative near q=2, which is
    # the documented degenerate path)
    p = BASE.replace(a=10.0)
    k = k_of_q(q, p.rho, p)
    scale = (p.rho + p.delta) * q
    assert abs(q_dot(QState(q, k), p.rho, p)) <= 1e-10 * scale


def test_k_of_q_degenerate_bracket():
    # q far below 1 at a near-zero discount rate drives the bracket negative
    with pytest.raises(DegenerateError):
        k_of_q(0.01, 0.0001, BASE)


def test_k_of_q_nan_bracket_is_degenerate():
    with pytest.raises(DegenerateError, match="marginal-value bracket is nan"):
        k_of_q(1.0, math.nan, BASE)


def test_k_of_q_singular_refused():
    with pytest.raises(RegimeError):
        k_of_q(1.0, 0.07, validate_params({"eta": 1.0 / 3.0}))


def test_firm_steady_state_matches_household_side():
    for record in ({"eta": 0.0}, {"eta": 0.2, "theta": 0.5},
                   {"eta": 0.1, "theta": 0.9}):
        p = validate_params(record)
        fs = firm_steady_state(p.rho, p)
        assert fs.q == 1.0
        assert fs.k == steady_state(p).k_star  # same inversion, bit for bit


@given(model_params(feasible=True))
def test_cross_module_consistency_property(p):
    fs = firm_steady_state(p.rho, p)
    ks = steady_state(p).k_star
    assert abs(fs.k - ks) <= 1e-8 * ks


def test_a_invariance_at_steady_state():
    ks = [firm_steady_state(BASE.rho, BASE.replace(a=a)).k for a in (0.5, 2.0, 8.0)]
    assert ks[0] == ks[1] == ks[2]
    assert investment_rate(1.0, BASE.replace(a=5.0)) == BASE.delta


def test_qstate_positivity():
    from dataecon import DomainError
    with pytest.raises(DomainError):
        QState(0.0, 1.0)
    with pytest.raises(DomainError):
        QState(1.0, -2.0)
