"""Hypothesis strategies for valid parameter vectors and states."""

import hypothesis.strategies as st
from hypothesis import assume

from dataecon import ModelParams, steady_state


def kx(p):
    """The composite exponent alpha + beta + alpha*eta - 1 of ``p``."""
    return p.alpha + p.beta + p.alpha * p.eta - 1.0


@st.composite
def model_params(draw, eta_min=0.0, eta_max=0.9, nonsingular=True,
                 feasible=False, margin=0.01):
    alpha = draw(st.floats(0.15, 0.9))
    beta = draw(st.floats(0.05, min(0.9, 1.0 - alpha)))
    eta = draw(st.floats(eta_min, eta_max))
    theta = draw(st.floats(0.05, 1.0))
    p = ModelParams(alpha=alpha, beta=beta, eta=eta, theta=theta)
    if nonsingular:
        assume(abs(kx(p)) >= p.singular_band + margin)
    if feasible:
        ss = steady_state(p)
        assume(ss.feasible and ss.k_star < 1e12 and ss.c_star > 1e-12)
    return p


@st.composite
def positive_state(draw, lo=0.05, hi=50.0):
    c = draw(st.floats(lo, hi))
    k = draw(st.floats(lo, hi))
    return c, k
