"""The firm's q-theory investment block.

The firm accumulates capital subject to a quadratic adjustment cost
``(a/2) (i/k - delta)^2 k``.  The first-order condition for investment ties
the investment rate to the shadow price q:

    i/k = delta + (q - 1)/a,

and the costate equation is

    q_dot = (r + delta) q - MPK(k) - (a/2) [ (q-1)^2/a^2 + (2 delta/a)(q-1) ],

with MPK(k) the endogenous interest rate of the household block.  Setting
q_dot = 0 inverts to the steady capital stock at a given q; at q = 1 the
adjustment terms vanish exactly and capital solves MPK(k) = r + delta.

The printed steady-capital bracket is ambiguous about whether the
``2 delta`` term is divided by the adjustment coefficient `a` or the capital
elasticity `alpha`; this module reads `a`, and the two readings agree at
q = 1, where the term vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import interest_rate
from .errors import DegenerateError, DomainError
from .params import ModelParams


@dataclass(frozen=True)
class QState:
    """Shadow price of installed capital and the capital stock."""

    q: float
    k: float

    def __post_init__(self):
        if not (self.q > 0.0 and self.k > 0.0):
            raise DomainError(f"q and k must be positive, got q={self.q}, k={self.k}")


def investment_rate(q: float, p: ModelParams) -> float:
    """Gross investment per unit of capital: i/k = delta + (q - 1)/a."""
    return p.delta + (q - 1.0) / p.a


def _adjustment_terms(q: float, p: ModelParams) -> float:
    dq = q - 1.0
    return 0.5 * p.a * (dq * dq / (p.a * p.a) + (2.0 * p.delta / p.a) * dq)


def q_dot(s: QState, r: float, p: ModelParams) -> float:
    """Costate drift of the shadow price at discount rate r."""
    return (r + p.delta) * s.q - interest_rate(s.k, p) - _adjustment_terms(s.q, p)


def k_of_q(q: float, r: float, p: ModelParams) -> float:
    """Steady capital stock at shadow price q: the root of q_dot in k.

    Raises DegenerateError when the bracket (r + delta) q minus the
    adjustment terms is not positive (or NaN): no capital stock supports that q.
    """
    if q <= 0.0:
        raise DomainError(f"q must be positive, got {q}")
    numerator = (r + p.delta) * q - _adjustment_terms(q, p)
    if not numerator > 0.0:
        raise DegenerateError(
            f"no steady capital at q={q}: marginal-value bracket is {numerator:.6g}"
        )
    return float(core._reduced(p).capital(numerator))


def firm_steady_state(r: float, p: ModelParams) -> QState:
    """Full steady state of the investment block: q = 1, MPK(k) = r + delta.

    At the household discount rate r = rho this capital stock coincides with
    the consumption-side k*, and it is independent of the adjustment
    coefficient because adjustment costs vanish at q = 1.
    """
    return QState(q=1.0, k=k_of_q(1.0, r, p))
