"""Closed-form primitives of the data-economy model.

Production takes data as an input through the technology level attached to
capital: ``y = (z k)^alpha l^beta`` with ``z = d^eta`` and ``d = theta y``.
Solving the implicit fixed point gives the reduced production function

    y = theta^(ae/(1-ae)) * k^(alpha/(1-ae)) * l^(beta/(1-ae)),   ae = alpha*eta.

With labor at its first-order condition, output is a power of capital and
the endogenous interest rate (the derivative of profit in capital) is
r(k) = alpha y / ((1 - ae) k).  The steady state pairs r(k*) = rho + delta
with the accumulation identity c* = y* - delta k*, which is one log-linear
formula: with den = 1 - beta - ae and kx = alpha + beta + ae - 1,

    log k* = [den log((rho+delta)(1-ae)/alpha) + beta log((1-ae) w/beta)
              - ae log theta] / kx,
    y* = k* (rho+delta)(1-ae)/alpha,   c* = k* ((rho+delta)(1-ae)/alpha - delta),
    l* = k* beta (rho+delta)/(alpha w),  r* = rho + delta.

Off the steady state r, y and l are anchored at log k* in log space.  The
exponent 1/kx diverges at the singular band kx = 0, where closed forms are
refused.  The algebra is written once, in ``Coefficients``;
``steady_states`` evaluates it on (theta, eta) arrays and the scalar
functions are its 0-d calls, so a grid cell and a scalar solve run the same
float operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError, RegimeError
from .params import ModelParams

_LOG_MAX = 709.0  # exp overflow threshold for float64

# Outcomes of a closed-form solve and the grid mask category of each.
_OK, _INFEASIBLE, _SINGULAR, _NO_DATA, _NO_CAPITAL = range(5)
_MASKS = np.array(["ok", "infeasible", "singular"] + 2 * ["degenerate"])
_NO_DATA_MESSAGE = "theta must be positive when eta > 0 (no data, no output)"


def _log_power(expo, base):
    """expo*log(base), exactly 0 where expo is 0 (so 0^0 terms drop out)."""
    return expo * np.log(np.where(expo == 0.0, 1.0, base))


def _exp(s):
    """exp(s), saturating to inf above _LOG_MAX; callers treat non-finite
    results as infeasible."""
    return np.exp(np.where(s > _LOG_MAX, np.inf, s))


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
    """The steady state of ``p`` in log-linear form, with theta and eta
    replaceable by real arrays that broadcast.  With ae = alpha*eta,
    den = 1 - beta - ae and kx = alpha + beta + ae - 1 it holds ``den``,
    ``kx``, ``log_k`` (log k*), ``yk`` (y*/k* = (rho + delta)(1 - ae)/alpha,
    free of theta), ``log_yk`` and ``r_exp`` = kx/den, and anchors at log k*

        r(k) = (rho + delta)(k/k*)^r_exp,   y(k) = yk k (k/k*)^r_exp,
        k(r) = k* (r/(rho + delta))^(1/r_exp).

    ``refused`` holds _SINGULAR, _NO_DATA or _OK; refused cells hold
    meaningless numbers.
    """

    def __init__(self, p: ModelParams, theta=None, eta=None):
        theta = p.theta if theta is None else theta
        eta = p.eta if eta is None else eta
        if np.iscomplexobj(theta) or np.iscomplexobj(eta):
            raise DomainError("theta and eta must be real")
        theta, eta = np.asarray(theta, dtype=float), np.asarray(eta, dtype=float)
        alpha, beta = p.alpha, p.beta
        self.p = p
        self.rho_delta = rho_delta = p.rho + p.delta
        with np.errstate(divide="ignore", invalid="ignore"):
            ae = alpha * eta
            om = 1.0 - ae
            self.den = den = 1.0 - beta - ae
            self.kx = kx = alpha + beta + ae - 1.0
            self.yk = rho_delta * om / alpha
            self.log_yk = np.log(self.yk)
            self.log_k = (den * self.log_yk + beta * np.log(om * p.w / beta)
                          - _log_power(ae, theta)) / kx
            self.r_exp = kx / den
        self.refused = np.where(
            np.abs(kx) < p.singular_band, _SINGULAR,
            np.where((eta > 0.0) & (theta <= 0.0), _NO_DATA, _OK))

    def _ratio(self, k):
        """(k/k*)^r_exp = r(k)/(rho + delta)."""
        return _exp(self.r_exp * (np.log(k) - self.log_k))

    def capital(self, target):
        return _exp(self.log_k + np.log(target / self.rho_delta) / self.r_exp)

    def output(self, k):
        return self.yk * k * self._ratio(k)

    def rate(self, k):
        return self.rho_delta * self._ratio(k)

    def steady(self):
        """Outcome code and SteadyState quantities (meaningful where _OK) of each cell."""
        p = self.p
        with np.errstate(invalid="ignore", over="ignore"):
            k = _exp(self.log_k)
            c = (self.yk - p.delta) * k
            l = (p.beta * self.rho_delta / (p.alpha * p.w)) * k
            y = self.yk * k
            feasible = np.isfinite(c) & np.isfinite(l) & (c > 0.0) & (l > 0.0)
        code = np.where(self.refused != _OK, self.refused,
                        np.where(k == 0.0, _NO_CAPITAL, np.where(feasible, _OK, _INFEASIBLE)))
        return code, {"k_star": k, "c_star": c, "l_star": l, "y_star": y,
                      "r_star": np.full(np.shape(k), self.rho_delta)}


def _refusal(co: Coefficients, code) -> ModelError:
    """The error a scalar solve on ``co`` raises for outcome ``code``."""
    if code == _SINGULAR:
        return RegimeError(
            f"alpha+beta+alpha*eta-1 = {float(co.kx):.6g} lies inside the "
            f"singular band (half-width {co.p.singular_band}); "
            "closed forms are not evaluated there")
    if code == _NO_DATA:
        return DomainError(_NO_DATA_MESSAGE)
    assert code == _NO_CAPITAL, code
    return DomainError("capital must be positive, got 0.0")


def _reduced(p: ModelParams, k: float | None = None) -> Coefficients:
    """The record of ``p``; refuses k <= 0, the singular band and theta <= 0 < eta."""
    if k is not None and k <= 0.0:
        raise DomainError(f"capital must be positive, got {k}")
    co = Coefficients(p)
    if co.refused != _OK:
        raise _refusal(co, co.refused)
    return co


def steady_states(p: ModelParams, theta=None, eta=None) -> tuple[np.ndarray, dict]:
    """Steady states of ``p`` at every (theta, eta) of the broadcast inputs.

    Returns the mask category of each cell ('ok', 'infeasible', or where
    ``steady_state`` raises, 'singular' or 'degenerate') and a dict of the
    SteadyState quantities; only 'ok' cells carry meaningful numbers.
    A complex theta or eta raises DomainError.
    """
    code, values = Coefficients(p, theta, eta).steady()
    return _MASKS[code], values


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


def interest_rate(k: float, p: ModelParams) -> float:
    """Endogenous interest rate r(k) = (rho + delta)(k/k*)^(kx/den).

    This is the derivative of accounting profit in capital, the firm's
    marginal value of one more unit of k.
    """
    return float(_reduced(p, k).rate(k))


def steady_state(p: ModelParams) -> SteadyState:
    """Closed-form steady state of the consumption-capital system.

    k* solves r(k*) = rho + delta; c* = y* - delta*k*.  The point zeroes
    both dynamic equations.  feasible is False (not an error) when c* <= 0
    or the closed form overflows, so parameter sweeps can mask cells.
    This is the 0-d case of ``steady_states``.
    """
    co = Coefficients(p)
    code, values = co.steady()
    if code not in (_OK, _INFEASIBLE):
        raise _refusal(co, code)
    return SteadyState(**{name: float(v) for name, v in values.items()},
                       feasible=bool(code == _OK))
