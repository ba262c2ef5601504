"""Closed-form primitives of the data-economy model.

Production takes data as an input through the technology level attached to
capital: ``y = (z k)^alpha l^beta`` with ``z = d^eta`` and ``d = theta y``.
Solving the implicit fixed point gives the reduced production function

    y = theta^(ae/(1-ae)) * k^(alpha/(1-ae)) * l^(beta/(1-ae)),   ae = alpha*eta.

Optimizing labor out at wage ``w`` leaves accounting profit
``pi(w) * k^(alpha/den)`` with ``den = 1 - beta - ae``, whose derivative in
capital is the endogenous interest rate

    r(k) = (alpha/den) * pi(w) * k^(kx/den),   kx = alpha + beta + ae - 1.

The steady state pairs r(k*) = rho + delta with the accumulation identity
c* = y(k*, l*(k*)) - delta*k*.  All power evaluations run in log space
(exp of sums of logs); near the singular band the exponents behave like
1/kx and direct powers would overflow.

The algebra is written once, in ``Coefficients``; ``steady_states``
evaluates it on (theta, eta) arrays and the scalar functions are its 0-d
calls, so a grid cell and a scalar solve run the same float operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, ModelError, RegimeError
from .params import ModelParams

_LOG_MAX = 709.0  # exp overflow threshold for float64

# Outcomes of a closed-form solve and the grid mask category of each.
_OK, _INFEASIBLE, _SINGULAR, _NO_DATA, _NO_PROFIT, _NO_CAPITAL = range(6)
_MASKS = np.array(["ok", "infeasible", "singular"] + 3 * ["degenerate"])
_NO_DATA_MESSAGE = "theta must be positive when eta > 0 (no data, no output)"


def _log_power(expo, base):
    """expo*log(base), exactly 0 where expo is 0 (so 0^0 terms drop out)."""
    return expo * np.log(np.where(expo == 0.0, 1.0, base))


def _exp(s):
    """exp(s), saturating to inf above _LOG_MAX; callers treat non-finite
    results as infeasible."""
    return np.exp(np.where(np.real(s) > _LOG_MAX, np.inf, s))


@dataclass(frozen=True)
class SteadyState:
    """Equilibrium quantities; ``feasible`` is False when c* <= 0 or any
    quantity is non-finite."""

    k_star: float
    c_star: float
    l_star: float
    y_star: float
    r_star: float
    feasible: bool


class Coefficients:
    """Reduced-form coefficients of ``p``, whose theta and eta may be
    replaced by arrays that broadcast.  With ae = alpha*eta, den = 1 - beta
    - ae and kx = alpha + beta + ae - 1, the methods evaluate

        l*(k) = exp(log_l + y_exp log k),  y(k, l*(k)) = exp(log_y + y_exp log k),
        r(k) = r_coef k^r_exp,             k(r) = (r den / (alpha piw))^k_exp,

    with y_exp = alpha/den, r_coef = y_exp piw, r_exp = kx/den and
    k_exp = den/kx.  ``refused`` holds the first failing check (_SINGULAR,
    _NO_DATA, _NO_PROFIT) or _OK; refused cells hold meaningless numbers.
    A complex theta or eta serves derivatives: read only imaginary parts.
    """

    def __init__(self, p: ModelParams, theta=None, eta=None):
        theta = p.theta if theta is None else theta
        eta = p.eta if eta is None else eta
        theta = np.asarray(theta, dtype=complex if np.iscomplexobj(theta) else float)
        eta = np.asarray(eta, dtype=complex if np.iscomplexobj(eta) else float)
        alpha, beta, w = p.alpha, p.beta, p.w
        self.p = p
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ae = alpha * eta
            om = 1.0 - ae
            self.den = den = 1.0 - beta - ae
            kx = alpha + beta + ae - 1.0
            # Profit at unit capital, theta^(ae/om) T^(-beta/den) - w T^(-om/den),
            # with T = (om/beta) theta^(-ae/om) w the labor-optimum bracket.
            log_theta_om = _log_power(ae / om, theta)
            log_t = np.log(om / beta) + np.log(w) - log_theta_om
            self.piw = piw = (np.exp(log_theta_om) * np.exp((-beta / den) * log_t)
                              - w * np.exp((-om / den) * log_t))
            log_theta = _log_power(ae / den, theta)
            self.log_y = log_theta + (-beta / den) * np.log(om / beta * w)
            self.log_l = (om / den) * np.log(beta / (om * w)) + log_theta
            self.y_exp = alpha / den
            self.r_coef = self.y_exp * piw
            self.r_exp, self.k_exp = kx / den, den / kx
            self.refused = np.where(
                np.abs(np.real(kx)) < p.singular_band, _SINGULAR,
                np.where((np.real(eta) > 0.0) & (np.real(theta) <= 0.0), _NO_DATA,
                         np.where(np.real(piw) <= 0.0, _NO_PROFIT, _OK)))

    def capital(self, target):
        return _exp(self.k_exp * np.log(target * self.den / (self.p.alpha * self.piw)))

    def labor(self, k):
        return _exp(self.log_l + self.y_exp * np.log(k))

    def output(self, k):
        return _exp(self.log_y + self.y_exp * np.log(k))

    def rate(self, k):
        return self.r_coef * _exp(self.r_exp * np.log(k))

    def steady(self):
        """Outcome code and SteadyState quantities (meaningful where _OK) of each cell."""
        r_star = self.p.rho + self.p.delta
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            k = self.capital(r_star)
            finite = np.isfinite(k)
            l = np.where(finite, self.labor(k), np.nan)
            y = np.where(finite, self.output(k), np.nan)
            c = y - self.p.delta * k
            feasible = np.isfinite(c) & np.isfinite(l) & (np.real(c) > 0.0) & (np.real(l) > 0.0)
        code = np.where(self.refused != _OK, self.refused,
                        np.where(k == 0.0, _NO_CAPITAL, np.where(feasible, _OK, _INFEASIBLE)))
        return code, {"k_star": k, "c_star": c, "l_star": l, "y_star": y,
                      "r_star": np.full(np.shape(k), r_star)}


def _refusal(co: Coefficients, code) -> ModelError:
    """The error a scalar solve on ``co`` raises for outcome ``code``."""
    if code == _SINGULAR:
        return RegimeError(
            f"alpha+beta+alpha*eta-1 = {co.p.k_exponent:.6g} lies inside the "
            f"singular band (half-width {co.p.singular_band}); "
            "closed forms are not evaluated there")
    if code == _NO_DATA:
        return DomainError(_NO_DATA_MESSAGE)
    if code == _NO_PROFIT:
        return DegenerateError(f"profit coefficient is nonpositive ({float(co.piw)})")
    assert code == _NO_CAPITAL, code
    return DomainError("capital must be positive, got 0.0")


def _reduced(p: ModelParams, k: float | None = None) -> Coefficients:
    """The record of ``p``; refuses k <= 0, the singular band and theta <= 0 < eta."""
    if k is not None and k <= 0.0:
        raise DomainError(f"capital must be positive, got {k}")
    co = Coefficients(p)
    if co.refused in (_SINGULAR, _NO_DATA):
        raise _refusal(co, co.refused)
    return co


def steady_states(p: ModelParams, theta=None, eta=None) -> tuple[np.ndarray, dict]:
    """Steady states of ``p`` at every (theta, eta) of the broadcast inputs.

    Returns the mask category of each cell ('ok', 'infeasible', or where
    ``steady_state`` raises, 'singular' or 'degenerate') and a dict of the
    SteadyState quantities; only 'ok' cells carry meaningful numbers.
    """
    code, values = Coefficients(p, theta, eta).steady()
    return _MASKS[code], values


def data_volume(y: float, theta: float) -> float:
    """Data produced from output: d = theta*y."""
    if y < 0.0:
        raise DomainError(f"output must be nonnegative, got {y}")
    return theta * y


def technology(d: float, eta: float) -> float:
    """Technology level from data: z = d^eta.

    d = 0 with eta = 0 is undefined (0^0); callers on the eta = 0 reduction
    path must use z = 1 directly.
    """
    if d < 0.0:
        raise DomainError(f"data volume must be nonnegative, got {d}")
    if d == 0.0:
        if eta == 0.0:
            raise DomainError("0^0 is undefined; use the eta = 0 reduction (z = 1)")
        return 0.0
    return float(_exp(eta * np.log(d)))


def output(k: float, l: float, p: ModelParams) -> float:
    """Reduced-form output solving the data fixed point.

    The returned y satisfies y = ((theta*y)^eta * k)^alpha * l^beta.
    """
    if k <= 0.0 or l <= 0.0:
        raise DomainError(f"capital and labor must be positive, got k={k}, l={l}")
    if p.eta > 0.0 and p.theta <= 0.0:
        raise DomainError(_NO_DATA_MESSAGE)
    ae = p.alpha * p.eta
    om = 1.0 - ae
    return float(_exp(_log_power(ae / om, p.theta) + (p.alpha / om) * np.log(k)
                      + (p.beta / om) * np.log(l)))


def labor_demand(k: float, p: ModelParams) -> float:
    """Profit-maximizing labor input at capital k and wage w.

    From the first-order condition the marginal product of labor equals w:

        l* = [ (beta / ((1-ae) w)) * theta^(ae/(1-ae)) * k^(alpha/(1-ae)) ]^((1-ae)/den)
    """
    return float(_reduced(p, k).labor(k))


def profit_coefficient(p: ModelParams) -> float:
    """Wage-dependent coefficient pi(w) of accounting profit pi(w)*k^(alpha/den).

    Equals output(1, l*(1)) - w*l*(1), the maximized profit at unit capital.
    For valid parameters the value is strictly positive; a nonpositive value
    is possible only through floating-point degeneracy and is propagated by
    callers as a degenerate steady state.
    """
    return float(_reduced(p).piw)


def interest_rate(k: float, p: ModelParams) -> float:
    """Endogenous interest rate r(k) = (alpha/den) * pi(w) * k^(kx/den).

    This is the derivative of accounting profit in capital, the firm's
    marginal value of one more unit of k.
    """
    return float(_reduced(p, k).rate(k))


def reduced_output(k: float, p: ModelParams) -> float:
    """Output at the firm's labor optimum, y(k, l*(k)).

    Collapses to C * k^(alpha/den) with
    C = theta^(ae/den) * [((1-ae)/beta) w]^(-beta/den).
    """
    return float(_reduced(p, k).output(k))


def capital_from_marginal_value(target: float, p: ModelParams) -> float:
    """Invert r(k) = target for capital.

    Shared by the household-side steady state (target = rho + delta) and the
    q-theory block, so both encode the same inversion bit for bit.
    """
    co = _reduced(p)
    if target <= 0.0:
        raise DegenerateError(f"marginal-value target must be positive, got {target}")
    if co.refused == _NO_PROFIT:
        raise _refusal(co, _NO_PROFIT)
    return float(co.capital(target))


def steady_state(p: ModelParams) -> SteadyState:
    """Closed-form steady state of the consumption-capital system.

    k* solves r(k*) = rho + delta; c* = y(k*, l*(k*)) - delta*k*.  The point
    zeroes both dynamic equations.  feasible is False (not an error) when
    c* <= 0 or the closed form overflows, so parameter sweeps can mask cells.
    This is the 0-d case of ``steady_states``.
    """
    co = Coefficients(p)
    code, values = co.steady()
    if code not in (_OK, _INFEASIBLE):
        raise _refusal(co, code)
    return SteadyState(**{name: float(v) for name, v in values.items()},
                       feasible=bool(code == _OK))
